"""Command line interface.

Subcommands: `simulate` runs Monte Carlo BEP sweeps and writes CSV/JSON,
`check` prints the distinguishability margins for a configuration, and
`derive` prints the composite constants and detector thresholds.

Exit codes: 0 success, 1 configuration error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict

from .analysis import SpreadFormula, build_report, sample_variance_spread
from .harness import Fairness, SweepSpec, emit, run_sweep
from .modem import Scheme, ThresholdMode, threshold_bank
from .params import (
    ConfigError,
    DEFAULT_SAMPLES_PER_SYMBOL,
    DEFAULT_SCHEME,
    DEFAULT_SIGMA_W,
    DegenerateLevelsError,
    derive_subchannels,
    load_config,
)


# Most values one swept range may hold; checked before the range is built.
MAX_RANGE_VALUES = 10_000


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the CLI contract reserves 2 for I/O.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_range(text: str, kind: type) -> list:
    """A scalar or an inclusive A:B:STEP range of `kind` (int or float)."""
    parts = text.split(":")
    try:
        if len(parts) not in (1, 3):
            raise ValueError
        values = [kind(p) for p in parts]
    except ValueError:
        raise ConfigError(f"expected {kind.__name__.upper()} or A:B:STEP, got {text!r}") from None
    if kind is float and not all(map(math.isfinite, values)):
        raise ConfigError(f"bad range {text!r}: A, B and STEP must be finite")
    if len(values) == 1:
        return values
    a, b, step = values
    if step <= 0 or b < a:
        raise ConfigError(f"bad range {text!r}: need A <= B and STEP > 0")
    span = (b - a) // step if kind is int else (b - a) / step + 1e-9
    if span >= MAX_RANGE_VALUES:
        raise ConfigError(
            f"bad range {text!r}: {span + 1:.6g} values, at most {MAX_RANGE_VALUES} allowed"
        )
    values = [a + i * step for i in range(int(span) + 1)]
    if kind is float and (b - a) / step - int(span) <= 1e-9:
        values[-1] = b  # the steps reach B within the count's tolerance: end on B itself
    return values


def _load(args):
    if args.config is None:
        return DEFAULT_SCHEME, DEFAULT_SIGMA_W, DEFAULT_SAMPLES_PER_SYMBOL
    return load_config(args.config)


_SCHEME_CHOICES = {scheme.value: (scheme,) for scheme in Scheme} | {"all": tuple(Scheme)}


def cmd_simulate(args) -> int:
    if args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    scheme_config, sigma_w, n = _load(args)
    spec = SweepSpec(
        n=_parse_range(args.n, int) if args.n is not None else [n],
        sigma_w=_parse_range(args.sigma_w, float) if args.sigma_w is not None else [sigma_w],
        scheme_config=scheme_config,
        schemes=_SCHEME_CHOICES[args.scheme],
        min_bits=args.min_bits,
        seed=args.seed,
        fairness=Fairness(args.fairness),
        threshold_mode=ThresholdMode(args.threshold_mode),
    )
    if args.out != "-":
        _check_writable(args.out)
    _preflight_note(spec)
    result = run_sweep(spec, workers=args.workers)
    for failure in result.failures:
        print(
            f"warning: {failure.scheme.value} at {failure.value}: {failure.error}",
            file=sys.stderr,
        )
    if not result.records:
        print("error: every sweep cell failed", file=sys.stderr)
        return 1
    emit(result.records, format=args.format, path=args.out)
    return 0


def _check_writable(path: str) -> None:
    """Fail as emit would, before any cell runs, if path cannot be written.
    An existing file keeps its bytes, and a file made by the check is removed."""
    existed = os.path.exists(path)
    try:
        with open(path, "a"):
            pass
    except OSError as e:
        raise OSError(f"cannot write {path}: {e}") from e
    if not existed:
        os.remove(path)


def _preflight_note(spec: SweepSpec) -> None:
    """Warn (stderr) for each simulated scheme whose margins, with the exact
    chi-square spread, are unsatisfied at the samples per symbol of its
    smallest swept block and the sweep's largest channel noise.  Raise
    ValueError first if the largest swept block leaves float range."""
    n_worst, n_largest, sigma_w = min(spec.n), max(spec.n), max(spec.sigma_w)
    for scheme in spec.schemes:
        sample_variance_spread(1.0, spec.n_symbol(scheme, n_largest))  # raises beyond float range
    subs = derive_subchannels(spec.scheme_config)
    for scheme in spec.schemes:
        n_symbol = spec.n_symbol(scheme, n_worst)
        try:
            bank = threshold_bank(scheme, *subs, sigma_w=sigma_w)
        except (ConfigError, DegenerateLevelsError):
            continue  # the sweep itself will surface this per cell
        report = build_report(bank, spec.scheme_config, n_symbol)
        if not report.satisfied:
            ratios = [p.ratio for p in report.pairs] + ([report.mean.ratio] if report.mean else [])
            worst = min((r for r in ratios if not math.isnan(r)), default=math.nan)
            print(
                f"note: {scheme.value} distinguishability margins unsatisfied at "
                f"{n_symbol} samples per symbol (corrected formula): min ratio {worst:.3g}",
                file=sys.stderr,
            )


def cmd_check(args) -> int:
    scheme_config, _, n_default = _load(args)
    n = args.n if args.n is not None else n_default
    report = build_report(
        threshold_bank(Scheme.CGQNM, *derive_subchannels(scheme_config)),
        scheme_config, n,
        SpreadFormula(args.variance_formula),
        margin_factor=args.margin_factor,
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, allow_nan=False))
        return 0
    ok = lambda flag: "satisfied" if flag else "NOT satisfied"  # noqa: E731
    mean = report.mean
    print(f"mean condition (margin factor {report.margin_factor:g}):")
    print(f"  min adjacent gap    {mean.lhs_gap:.6g} V")
    print(f"  m_H0 form           {mean.lhs_literal:.6g} V")
    print(f"  6*sigma_max         {mean.rhs:.6g} V")
    print(f"  ratio               {mean.ratio:.4g}  [{ok(mean.satisfied)}]")
    print(f"variance condition ({report.formula_mode.value} formula, N={report.n}):")
    for i, p in enumerate(report.pairs, 1):
        print(
            f"  pair {i}: gap {p.gap:.6g}  spread {p.spread:.6g}  "
            f"ratio {p.ratio:.4g}  [{ok(p.satisfied)}]"
        )
    print(f"overall: {ok(report.satisfied)}")
    for w in report.warnings:
        print(f"warning: {w}")
    return 0


def cmd_derive(args) -> int:
    scheme_config, _, _ = _load(args)
    subs = derive_subchannels(scheme_config)
    # the paper-mode banks at sigma_w = 0, whose thresholds are the midpoints
    banks = {s.value: threshold_bank(s, *subs, mode=ThresholdMode.MIDPOINT) for s in Scheme}
    thresholds = lambda bank: {"mean_thresholds": list(bank.mean_thresholds),  # noqa: E731
                               "var_thresholds": list(bank.effective_var_thresholds)}
    composite, subchannels = banks[Scheme.CGQNM.value], asdict(scheme_config)
    payload = {
        **subchannels, "means": list(composite.means), "variances": list(composite.variances),
        **thresholds(composite),
        "banks": {name: thresholds(bank) for name, bank in banks.items()},
    }
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    joined = lambda values: "  ".join(f"{v:.6g}" for v in values)  # noqa: E731
    for name in subchannels:
        print(f"{name}: " + "  ".join(f"{key}={v:.6g}" for key, v in payload[name].items()))
    for label, key in (("composite means", "means"), ("composite variances", "variances"),
                       ("mean thresholds", "mean_thresholds"),
                       ("var thresholds", "var_thresholds")):
        print(f"{label:21}" + joined(payload[key]))
    for name in ("gqnm", "kljn"):
        mean, var = (joined(values) for values in payload["banks"][name].values())
        print(f"{name} thresholds: mean {mean or '-'}  var {var}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="noisemod", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a Monte Carlo BEP sweep")
    sim.add_argument("--scheme", choices=sorted(_SCHEME_CHOICES), default="all")
    sim.add_argument("--config", help="JSON config file (defaults built in)")
    sim.add_argument("--n", help="samples per bit/symbol: INT or A:B:STEP")
    sim.add_argument("--sigma-w", dest="sigma_w", help="channel noise sd: FLOAT or A:B:STEP; "
                     "write a value starting with '-' as --sigma-w=VALUE")
    sim.add_argument("--min-bits", dest="min_bits", type=int, default=100_000)
    sim.add_argument("--seed", type=int, default=1)
    sim.add_argument("--fairness", choices=[f.value for f in Fairness], default="per-bit")
    sim.add_argument(
        "--threshold-mode", dest="threshold_mode",
        choices=[m.value for m in ThresholdMode], default="noise-adjusted",
    )
    sim.add_argument("--out", default="-", help="output path, '-' for stdout")
    sim.add_argument("--format", choices=["csv", "json"], default="csv")
    sim.add_argument("--workers", type=int, default=1)
    sim.set_defaults(func=cmd_simulate)

    chk = sub.add_parser("check", help="report distinguishability margins")
    chk.add_argument("--config")
    chk.add_argument("--n", type=int)
    chk.add_argument(
        "--variance-formula", dest="variance_formula",
        choices=[f.value for f in SpreadFormula], default="corrected",
    )
    chk.add_argument("--margin-factor", dest="margin_factor", type=float, default=1.0)
    chk.add_argument("--json", action="store_true")
    chk.set_defaults(func=cmd_check)

    der = sub.add_parser("derive", help="print derived constants and thresholds")
    der.add_argument("--config")
    der.add_argument("--json", action="store_true")
    der.set_defaults(func=cmd_derive)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (ConfigError, DegenerateLevelsError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
