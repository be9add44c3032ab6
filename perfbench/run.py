"""Benchmark of noisemod's Monte Carlo BEP sweeps.

Run from the repository root:

    python3 perfbench/run.py --workload fig5_n_sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Each workload is one `noisemod simulate` sweep, driven through the CLI's
own entry point `noisemod.cli.main` with the CSV written to a temporary
file.  It is a closed loop from one process: one sweep at a time, with
at most two pool workers.  `--seed` is passed to the simulator, so the
same seed gives the same inputs and the same output bytes.

--trace 0 measures the end-to-end metrics with tracing off.  The sweep
is repeated while `--seconds` allows (at least three times), each time
after three set-up probes in fresh interpreters (setup_probe.py), and
medians are reported.

--trace 1 gives the per-layer metrics.  It alternates an untraced sweep
at the workload's worker count, whose RunRecord timings give the pool
metrics, with a serial sweep in which the benchmark wraps, from this
package, the names noisemod looks up for each chunk and each cell (see
tracing.py).  Medians over the passes are reported.

Every sweep's cells are checked: a cell fails when it is missing (the
CLI reported a cell failure), when its error count is further than
oracle.Z_BOUND standard deviations from the closed-form BEP, or when
its CSV line differs from the first sweep of the run (repeats, and the
traced serial run against the untraced one, must be byte-identical).

The last line of standard output is one JSON object with `correct`,
`attempted` and `failed` (sweep cells; their ratio is the failed_share
printed above it) and `metrics`.  The full result,
with run metadata, per-cell z-scores and the spans of a traced run, is
written to .bench_out/ at the repository root.  `--workload all` runs
every workload untraced and traced, each in its own interpreter.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SCHEMES = ("kljn", "gqnm", "cgqnm")
# Set-up takes 0.1-0.25 s and drifts with the machine's load, so it is
# sampled in several fresh interpreters per sweep and reported as a median.
SETUP_PROBES_PER_SWEEP = 3
MIN_SWEEPS = 3


@dataclass(frozen=True)
class Workload:
    config: str
    n: str
    sigma_w: str | None
    min_bits: int
    workers: int

    def n_values(self) -> list[int]:
        parts = [int(p) for p in self.n.split(":")]
        a, b, step = parts if len(parts) == 3 else (parts[0], parts[0], 1)
        return list(range(a, b + 1, step))

    def argv(self, seed: int, out: Path, workers: int | None = None) -> list[str]:
        args = [
            "simulate", "--scheme", "all", "--config", str(ROOT / self.config),
            "--n", self.n, "--min-bits", str(self.min_bits),
            "--workers", str(self.workers if workers is None else workers),
            "--seed", str(seed), "--out", str(out),
        ]
        if self.sigma_w is not None:
            args += ["--sigma-w", self.sigma_w]
        return args


WORKLOADS = {
    # The paper's Fig. 5 sweep at sigma_w = 2e-5: moment sampling with
    # channel noise is ~99% of each cell, and 15 cells keep both workers busy.
    "fig5_n_sweep": Workload("configs/paper_literal.json", "40:100:15", None, 200_000, 2),
    # Short blocks on one worker: cheap samples, many symbols, so bit draw,
    # state lookup and detection weigh most; also the single-thread baseline.
    "short_block_serial": Workload("configs/canonical.json", "2:8:2", None, 4_000_000, 1),
    # Long noise-free blocks (one draw per sample) in 500-symbol chunks;
    # 3 equal cells on 2 workers leave one worker idle for ~1/3 of the sweep.
    "long_block_noiseless": Workload("configs/canonical.json", "2000", "0", 100_000, 2),
}

def metric_units(section: str) -> dict[str, str]:
    """Metric name -> unit for "end_to_end" or "per_layer", as BENCHMARK.json lists them."""
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in contract[section]}


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; the children's value is the largest
    # single child (pool workers and set-up probes) that has been waited for.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _read(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except FileNotFoundError:
        return b""


def _repeat(seconds: float, minimum: int, step):
    """Call step() at least `minimum` times, then while another fits in `seconds`."""
    results, durations = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(step(len(results)))
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(results) >= minimum and elapsed + statistics.median(durations) > seconds:
            return results


# ---------------------------------------------------------------- checks


@dataclass
class CellCheck:
    attempted: int
    failed: int
    bits: int
    max_abs_z: float
    cells: list


def check_cells(workload: Workload, csv_runs: list[bytes]) -> CellCheck:
    """Check every expected cell of the sweep in each CSV against the oracle
    and against the first CSV's bytes."""
    import oracle
    from noisemod import Scheme, derive_subchannels, load_config

    sub0, sub1 = derive_subchannels(load_config(ROOT / workload.config)[0])
    parsed = []
    for text in csv_runs:
        lines = text.decode().splitlines()
        header = lines[0].split(",") if lines else []
        rows = {}
        for line in lines[1:]:
            fields = dict(zip(header, line.split(",")))
            rows[(fields.get("scheme"), fields.get("N"))] = (line, fields)
        parsed.append((lines[:1], rows))
    reference_header, reference = parsed[0]
    cells, failed, bits = [], 0, 0
    for scheme in SCHEMES:
        for n in workload.n_values():
            key = (scheme, str(n))
            cell = {"scheme": scheme, "N": n, "z": None, "problem": None}
            cells.append(cell)
            if any(key not in rows for _, rows in parsed):
                cell["problem"] = "missing (cell failure)"
            elif any(rows[key][0] != reference[key][0] or head != reference_header
                     for head, rows in parsed[1:]):
                cell["problem"] = "bytes differ between sweeps"
            else:
                fields = reference[key][1]
                s = Scheme(scheme)
                bps = s.bits_per_symbol
                cell_bits = int(fields["bits"])
                bits += cell_bits
                e1, e2 = oracle.error_moments(s, sub0, sub1, n * bps, float(fields["sigma_w"]))
                z = oracle.z_score(int(fields["errors"]), cell_bits // bps, e1, e2)
                cell["z"] = z
                if not abs(z) <= oracle.Z_BOUND:
                    cell["problem"] = f"|z| = {abs(z):.3g} exceeds {oracle.Z_BOUND}"
            failed += cell["problem"] is not None
    zs = [abs(c["z"]) for c in cells if c["z"] is not None]
    return CellCheck(len(cells), failed, bits, max(zs) if zs else math.nan, cells)


# ---------------------------------------------------------------- untraced


def setup_probe(workload: Workload, seed: int, tmp: Path) -> float:
    """Set-up seconds of one fresh interpreter (see setup_probe.py)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *workload.argv(seed, tmp / "setup.csv")],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def end_to_end(workload: Workload, seed: int, seconds: float, tmp: Path) -> tuple[dict, CellCheck, dict]:
    from noisemod import cli

    def sweep(i):
        # Set-up is sampled next to every sweep, so its median spans the run.
        setup = [setup_probe(workload, seed, tmp) for _ in range(SETUP_PROBES_PER_SWEEP)]
        out = tmp / f"sweep{i}.csv"
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        code = cli.main(workload.argv(seed, out))
        wall = time.perf_counter() - t0
        return {"wall": wall, "cpu": _cpu_seconds() - cpu0, "code": code, "setup": setup, "csv": _read(out)}

    sweeps = _repeat(seconds, MIN_SWEEPS, sweep)
    peak = _peak_rss_mb()
    check = check_cells(workload, [s["csv"] for s in sweeps])
    bits = check.bits
    metrics = {
        "wall_s": _median(s["wall"] for s in sweeps),
        "bits_per_s": _median(bits / s["wall"] for s in sweeps),
        "setup_s": _median(t for s in sweeps for t in s["setup"]),
        "cpu_s": _median(s["cpu"] for s in sweeps),
        "peak_rss_mb": peak,
    }
    raw = {"sweeps": [{k: s[k] for k in ("wall", "cpu", "code", "setup")} for s in sweeps]}
    return metrics, check, raw


# ---------------------------------------------------------------- traced


def untraced_pass(workload: Workload, seed: int, out: Path) -> dict:
    """One sweep at the workload's worker count, keeping run_sweep's result."""
    from noisemod import cli
    from tracing import Tracer

    captured = []
    real = getattr(cli, "run_sweep", None)

    def capture(*args, **kwargs):
        t0 = time.perf_counter()
        result = real(*args, **kwargs)
        captured.append((time.perf_counter() - t0, result))
        return result

    hooks = Tracer()
    hooks.replace(cli, "run_sweep", capture)
    try:
        t0 = time.perf_counter()
        cli.main(workload.argv(seed, out))
        wall = time.perf_counter() - t0
    finally:
        hooks.restore()
    busy = idle = None
    if captured:
        sweep_wall, result = captured[0]
        cell_walls = [getattr(r, "wall_s", None) for r in result.records]
        if cell_walls and None not in cell_walls:
            busy = sum(cell_walls)
            idle = workload.workers * sweep_wall - busy
    return {"wall": wall, "csv": _read(out), "harness.cell_busy_s": busy, "harness.pool_idle_s": idle}


def _traced_source(base, tracer, count_draws: bool):
    """NoiseSource subclass whose generator creation is a span and whose
    generator is a counting proxy (unless draws happen in compiled code)."""
    from tracing import CountingGenerator

    init = getattr(base, "generator", None)
    if not isinstance(init, property):
        return None

    class TracedSource(base):
        @property
        def generator(self):
            with tracer.span("modem.stream_init"):
                gen = init.__get__(self)
            return CountingGenerator(gen, tracer) if count_draws else gen

    return TracedSource


def traced_pass(workload: Workload, seed: int, out: Path) -> dict:
    """One serial sweep with every layer boundary wrapped."""
    import noisemod
    from noisemod import cli, harness
    from tracing import Tracer

    tracer = Tracer()
    kernel = {"samples": 0, "max_bytes": 0, "known": True}

    def count_kernel(args, kwargs):
        # compute_moments(gen, sigmas, n, sigma_w)
        try:
            samples = int(args[1].size) * int(args[2])
            draws = 2 if args[3] > 0.0 else 1
        except (AttributeError, IndexError, TypeError):
            kernel["known"] = False
            return
        kernel["samples"] += samples
        kernel["max_bytes"] = max(kernel["max_bytes"], samples * draws * 8)

    present = {}
    for module, attr, span, on_call in (
        (harness, "compute_moments", "kernels.moments", count_kernel),
        (harness, "_symbol_states", "harness.state_lookup", None),
        (harness, "_detect_bits", "detect.detect", None),
        (harness, "run_point", "harness.run_point", None),
        (harness, "threshold_bank", "detect.threshold_bank", None),
        (harness, "derive_subchannels", "params.derive_subchannels", None),
        (cli, "emit", "harness.emit", None),
        (cli, "load_config", "params.load_config", None),
        (cli, "build_report", "analysis.build_report", None),
    ):
        present[span] = tracer.patch(module, attr, span, on_call)
    # Draws made inside compiled code cannot pass through a Python proxy.
    count_draws = getattr(noisemod, "BACKEND", None) != "numba"
    source = getattr(harness, "NoiseSource", None)
    traced_source = _traced_source(source, tracer, count_draws) if source else None
    present["modem.stream_init"] = (
        traced_source is not None and tracer.replace(harness, "NoiseSource", traced_source)
    )
    present["generator.integers"] = present["modem.stream_init"] and count_draws
    try:
        t0 = time.perf_counter()
        cli.main(workload.argv(seed, out, workers=1))
        wall = time.perf_counter() - t0
    finally:
        tracer.restore()

    totals = tracer.totals()

    def span_seconds(span, key="total"):
        if not present[span]:
            return None
        return totals[span][key] if span in totals else 0.0

    moments_s = span_seconds("kernels.moments")
    run_point_s = span_seconds("harness.run_point")
    per_symbol = [span_seconds(s) for s in ("generator.integers", "harness.state_lookup", "detect.detect")]
    kernel_known = present["kernels.moments"] and kernel["known"]
    csv = _read(out)
    metrics = {
        "kernels.moments_s": moments_s,
        "kernels.calls": totals.get("kernels.moments", {}).get("calls", 0) if moments_s is not None else None,
        "kernels.samples_per_s": kernel["samples"] / moments_s if kernel_known and moments_s else None,
        "kernels.bytes_computed": kernel["max_bytes"] if kernel_known else None,
        "modem.variates_drawn": tracer.variates if present["generator.integers"] else None,
        "modem.bit_draw_s": per_symbol[0],
        "modem.stream_init_s": span_seconds("modem.stream_init"),
        "harness.state_lookup_s": per_symbol[1],
        "detect.detect_s": per_symbol[2],
        "harness.run_point_s": run_point_s,
        "harness.run_point_self_s": span_seconds("harness.run_point", "self"),
        "harness.emit_s": span_seconds("harness.emit"),
        "harness.emit_bytes": len(csv) if present["harness.emit"] else None,
        "params.load_config_s": span_seconds("params.load_config"),
        "params.derive_subchannels_s": span_seconds("params.derive_subchannels"),
        "analysis.build_report_s": span_seconds("analysis.build_report"),
        "detect.threshold_bank_s": span_seconds("detect.threshold_bank"),
    }
    return {"wall": wall, "csv": csv, "metrics": metrics, "tracer": tracer}


def run_point_breakdown(tracer) -> dict[str, float]:
    totals = tracer.totals().get("harness.run_point")
    if totals is None:
        return {}
    return dict(tracer.children_of("harness.run_point"), self=totals["self"], total=totals["total"])


def traced(workload: Workload, seed: int, seconds: float, tmp: Path) -> tuple[dict, CellCheck, dict]:
    def one_pair(i):
        return (untraced_pass(workload, seed, tmp / f"plain{i}.csv"),
                traced_pass(workload, seed, tmp / f"traced{i}.csv"))

    pairs = _repeat(seconds, 1, one_pair)
    check = check_cells(workload, [run["csv"] for pair in pairs for run in pair])
    metrics = {
        name: _median({**plain, **run["metrics"]}.get(name) for plain, run in pairs)
        for name in metric_units("per_layer")
    }
    plain_wall = _median(plain["wall"] for plain, _ in pairs)
    traced_wall = _median(run["wall"] for _, run in pairs)
    last = pairs[-1][1]["tracer"]
    raw = {
        "untraced_wall_s": [plain["wall"] for plain, _ in pairs],
        "traced_wall_s": [run["wall"] for _, run in pairs],
        # Both sweeps are serial only where the workload itself is.
        "tracing_overhead_s": traced_wall - plain_wall if workload.workers == 1 else None,
        "run_point_breakdown_s": run_point_breakdown(last),
        "spans": [
            {"name": name, "start": start, "end": end, "parent": parent}
            for name, start, end, parent in last.spans
        ],
    }
    return metrics, check, raw


# ---------------------------------------------------------------- output


def metadata(args) -> dict:
    import numpy
    import scipy

    import noisemod

    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                None,
            )
    except OSError:
        pass
    revision = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            revision = done.stdout.strip() if done.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": getattr(noisemod, "BACKEND", None),
        "git_revision": revision,
    }


def _fmt(value) -> str:
    if value is None:
        return "null (absent at this revision)"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


PER_SYMBOL_PARTS = ("modem.bit_draw_s", "harness.state_lookup_s", "detect.detect_s")


def print_run_point_shares(metrics: dict, breakdown: dict) -> None:
    """Where run_point's time went (last traced sweep): direct child spans and self time."""
    total = breakdown.pop("total", None)
    if not total:
        return
    print("share of run_point: " + ", ".join(
        f"{name} {100 * value / total:.2f}%" for name, value in breakdown.items()
    ) + f" (sum {100 * sum(breakdown.values()) / total:.2f}%)")
    if all(metrics[name] is not None for name in PER_SYMBOL_PARTS):
        per_symbol = sum(metrics[name] for name in PER_SYMBOL_PARTS)
        print(f"share of run_point in per-symbol layers (bit draw, state lookup, "
              f"detection), medians: {100 * per_symbol / metrics['harness.run_point_s']:.2f}%")


def run_one(args) -> int:
    if not (SRC / "noisemod" / "__init__.py").is_file():
        print(f"error: no noisemod sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import noisemod

    if not Path(noisemod.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported noisemod from {noisemod.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        measure = traced if args.trace else end_to_end
        metrics, check, raw = measure(workload, args.seed, args.seconds, Path(tmp))
    import oracle  # loaded by the checks; imported after the measurement so scipy stays out of it

    units = metric_units("per_layer" if args.trace else "end_to_end")
    metrics = {name: metrics[name] for name in units}
    meta = metadata(args)
    if args.trace:
        meta["tracing_overhead_s"] = raw["tracing_overhead_s"]

    for key, value in meta.items():
        print(f"# {key}: {value}")
    for cell in check.cells:
        if cell["problem"]:
            print(f"FAILED cell {cell['scheme']} N={cell['N']}: {cell['problem']}")
    print(f"oracle: {check.attempted - check.failed}/{check.attempted} cells pass, "
          f"max checked |z| = {check.max_abs_z:.3g} (bound {oracle.Z_BOUND})")
    print(f"{args.workload}.failed_share {check.failed / check.attempted:.6g} share")
    for name, value in metrics.items():
        print(f"{args.workload}.{name} {_fmt(value)} {units[name]}")
    if args.trace:
        print_run_point_shares(metrics, dict(raw["run_point_breakdown_s"]))

    result = {
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = dict(result, metadata=meta, cells=check.cells, raw=raw)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh interpreter."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            sys.stderr.write(done.stderr)
            lines = done.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if done.returncode != 0 or not lines:
                print(f"error: {name} --trace {trace} exited with {done.returncode}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
