"""Monte Carlo bit-error-probability engine, sweeps, and result emission.

A sweep is a grid of cells (scheme x swept value).  Every cell owns an
independent noise stream derived from the master seed and a stable hash
of its coordinates, so results are byte-identical however many workers
run the grid.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
import os
import sys
import threading
import time
from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from .modem import NoiseSource, Scheme, ThresholdBank, ThresholdMode, threshold_bank
from .params import SchemeConfig, check_sigma_w, derive_subchannels

# Symbols per chunk; bounds the chunk's statistic arrays (1 MB) whatever N is.
CHUNK_SYMBOLS = 1 << 16

# Least work, in symbols, for which run_sweep starts a worker thread: 2^18
# symbols take 6-12 ms at 25-45 ns a symbol (one core of a 2 vCPU Xeon),
# against 75-110 us to start and join a thread.  A 175k-symbol sweep put on
# two threads ran slower than on one in 5 of 6 rounds of 60 sweeps.  A sweep
# with fewer than two such shares runs on the calling thread alone.
SYMBOLS_PER_WORKER = 1 << 18

# log(2^-128): a cell draws no mean deviations when every state's chance of
# crossing each threshold next to its mean level is bounded below this, and
# nothing at all when every variance level's is too (see _must_draw).
LOG_NEGLIGIBLE = -128.0 * math.log(2.0)

WILSON_Z = 1.96  # two-sided 95%


class SweepVariable(Enum):
    SAMPLES_N = "n"
    SIGMA_W = "sigma_w"


class Fairness(Enum):
    """How the per-symbol sample count is derived from the swept/fixed N.

    PER_BIT treats N as samples per bit, so a symbol gets N * bits-per-
    symbol samples (all schemes share the sampling rate); PER_SYMBOL uses
    N samples per symbol regardless of scheme.
    """

    PER_BIT = "per-bit"
    PER_SYMBOL = "per-symbol"


@dataclass(frozen=True)
class BepEstimate:
    """Bit-error estimate for one point, with a Wilson 95% interval."""

    errors: int
    bits: int
    bep: float
    ci_low: float
    ci_high: float


def wilson_interval(errors: int, bits: int) -> tuple[float, float]:
    """Wilson score interval at z = WILSON_Z for a binomial proportion (sane at 0 errors)."""
    if bits <= 0:
        raise ValueError("bits must be positive")
    p = errors / bits
    z2 = WILSON_Z * WILSON_Z
    denom = 1.0 + z2 / bits
    center = (p + z2 / (2.0 * bits)) / denom
    half = (WILSON_Z / denom) * math.sqrt(p * (1.0 - p) / bits + z2 / (4.0 * bits * bits))
    # the interval always contains p analytically; rounding can break that
    # at the 0/1 boundary, so widen to p before clamping
    return max(0.0, min(center - half, p)), min(1.0, max(center + half, p))


def _symbol_states(gen, n_sym, bank):
    """Symbols sent in each state of a chunk, as counts[variance index, mean index]:
    uniform random bits make them Multinomial(n_sym, [1/L] * L) over the bank's
    L states.  The chunk is laid out state by state, mean index fastest."""
    states = len(bank.variances) * len(bank.means)
    return gen.multinomial(n_sym, [1.0 / states] * states).reshape(-1, len(bank.means))


def _region_errors(values, thresholds, sent):
    """Bit errors of values all sent as level index `sent`.  A value's region
    index counts the ascending thresholds at or below it, so a tie goes up."""
    above = [values.size, *(int(np.count_nonzero(values >= t)) for t in thresholds), 0]
    return sum((above[r] - above[r + 1]) * (r ^ sent).bit_count() for r in range(len(above) - 1))


def _detect_bits(counts, mean_dev, var_hat, mean_th, var_th):
    """Bit errors of threshold detection over a chunk laid out state by state.

    mean_dev holds deviations from the sent mean, so state (m, v) compares
    them with mean_th[m], the mean thresholds less mean level m (None: no
    mean bits).  Each symbol bit belongs to one level index, so errors add.
    """
    errors = start = 0
    for v, row in enumerate(counts):
        stop = start + int(row.sum())
        errors += _region_errors(var_hat[start:stop], var_th, v)
        if mean_dev is not None:
            for m, count in enumerate(row):
                errors += _region_errors(mean_dev[start:start + count], mean_th[m], m)
                start += count
        start = stop
    return errors


def compute_moments(gen, counts, n, sigma_w, variances, out):
    """Block mean deviation and 1/N sample variance for one chunk of symbols.

    For n Gaussian samples of variance s2 = v + sigma_w^2 the block mean
    deviation is Normal(0, s2/n) and n * var_hat / s2 is independently
    chi-square(n - 1): Z^2 for a standard normal Z at n = 2, and
    2 * Gamma((n - 1)/2) otherwise.  The normals, then the chi-square draws,
    give exactly that joint law.  The chunk holds counts[k] symbols of
    variance level variances[k] in turn; the draws are made and scaled in
    place in out = (mean_dev, var_hat), and no normals for None.
    """
    mean_dev, var_hat = out
    if mean_dev is not None:
        gen.standard_normal(out=mean_dev)
    if n == 2:
        np.square(gen.standard_normal(out=var_hat), out=var_hat)
        chi_scale = 1.0
    else:
        gen.standard_gamma((n - 1) / 2.0, out=var_hat)
        chi_scale = 2.0
    bounds = np.cumsum(counts).tolist()
    for start, stop, v in zip([0, *bounds], bounds, variances):
        s2n = (v + sigma_w * sigma_w) / n
        if mean_dev is not None:
            mean_dev[start:stop] *= math.sqrt(s2n)
        var_hat[start:stop] *= chi_scale * s2n
    return mean_dev, var_hat


def _log_crossing_bounds(levels, thresholds, log_tail):
    """Log of a bound on the chance of each crossing by which a level's
    statistic can leave its region: level i's adjacent thresholds in use,
    thresholds[i - 1] below and thresholds[i] above (a farther one is crossed
    only through them), in level order.  log_tail(level, t, upper) bounds the
    log chance of crossing t."""
    return (log_tail(level, thresholds[j], j == i) for i, level in enumerate(levels)
            for j in (i - 1, i) if 0 <= j < len(thresholds))


def _log_normal_tail(d, var):
    """Chernoff bound of the normal tail: a Normal(0, var) variate crosses an
    edge at distance d with chance at most exp(-d^2 / (2 var))."""
    return -(d * d) / (2.0 * var)


def _log_chi2_tail(x, k, upper):
    """Chernoff bound of chi-square(k): it crosses an edge at x times its mean
    with chance at most exp(-(k/2)(x - 1 - ln x)) when the edge lies beyond
    the mean (x > 1 above it, x < 1 below it), and at most 1 otherwise."""
    if not (x > 1.0 if upper else x < 1.0):
        return 0.0
    d = x - 1.0  # exact for x >= 0.5, so log1p keeps x - 1 - ln x exact near 1
    return -0.5 * k * (d - (math.log1p(d) if x >= 0.5 else math.log(x)))


def _must_draw(bank, n):
    """The 2^-128 rule: (means, anything), whether some state's block mean,
    and whether some statistic at all, can cross one threshold next to its
    level with chance 2^-128 or more at n samples per symbol (mean crossings
    first, then variance ones).  Variance level v's mean deviation is
    Normal(0, s2n) and its sample variance s2n times a chi-square(n - 1)
    variate, with s2n = (v + sigma_w^2) / n."""
    k = n - 1
    s2n = [(v + bank.sigma_w * bank.sigma_w) / n for v in bank.variances]
    means = any(bound >= LOG_NEGLIGIBLE for var in s2n for bound in _log_crossing_bounds(
        bank.means, bank.mean_thresholds, lambda m, t, _: _log_normal_tail(t - m, var)))
    return means, means or any(bound >= LOG_NEGLIGIBLE for bound in _log_crossing_bounds(
        s2n, bank.effective_var_thresholds,
        lambda var, t, upper: _log_chi2_tail(t / (var * k), k, upper)))


def run_point(
    bank: ThresholdBank,
    n: int,
    min_bits: int,
    rng: NoiseSource,
) -> BepEstimate:
    """Estimate the BEP of the receiver `bank` at n samples per symbol.

    The bank carries the level sets, the thresholds in use and the
    channel noise sigma_w they were set for (see ThresholdBank).  Uniform
    random bits, log2 of the bank's state count per symbol (see
    ThresholdBank), select symbol states, each symbol's block of n Gaussian
    samples plus that channel noise is reduced to its sufficient
    statistics (see compute_moments) and detected, and errors accumulate
    over all bit positions until at least min_bits bits are counted.  The
    symbols of a chunk are exchangeable, so each chunk of CHUNK_SYMBOLS is
    drawn state by state: the state counts, the mean deviations, then the
    chi-square draws.  The 2^-128 rule (see _must_draw) is read once per
    cell: the cell draws no mean deviations, and counts no mean errors,
    when no state's mean can cross a threshold next to its level with
    chance 2^-128 or more (a scheme with one mean level has no mean
    threshold), and when no statistic can, no bit can err: the cell draws
    nothing, not even the state counts, and reports 0 errors over the bits
    it would have drawn.  A drawing cell allocates its (2, min(CHUNK_SYMBOLS,
    symbols)) chunk arrays once; a certain cell allocates none.  A
    NoiseSource key fixes the estimate.
    """
    if min_bits < 1:
        raise ValueError("min_bits must be >= 1")
    if (n := operator.index(n)) < 2:
        raise ValueError("n >= 2 required")
    mean_th = [tuple(t - m for t in bank.mean_thresholds) for m in bank.means]
    var_th = bank.effective_var_thresholds
    draw_means, draw_any = _must_draw(bank, n)
    bps = (len(bank.means) * len(bank.variances)).bit_length() - 1  # states = 2^bps
    total_symbols = -(-min_bits // bps)
    bits_counted = total_symbols * bps
    errors = 0
    if draw_any:
        gen = rng.generator
        stats = np.empty((2, min(CHUNK_SYMBOLS, total_symbols)))
        for done in range(0, total_symbols, CHUNK_SYMBOLS):
            n_sym = min(CHUNK_SYMBOLS, total_symbols - done)
            counts = _symbol_states(gen, n_sym, bank)
            out = (stats[0, :n_sym] if draw_means else None, stats[1, :n_sym])
            mean_dev, var_hat = compute_moments(
                gen, counts.sum(axis=1), n, bank.sigma_w, bank.variances, out)
            errors += _detect_bits(counts, mean_dev, var_hat, mean_th, var_th)
    low, high = wilson_interval(errors, bits_counted)
    return BepEstimate(errors, bits_counted, errors / bits_counted, low, high)


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: its (N, sigma_w) grid and how its cells run.  n and
    sigma_w each hold one value or, swept, several strictly ascending ones;
    at most one is swept.  Every N must be an integer >= 2, and every
    sigma_w pass check_sigma_w, whose float (-0.0 read as 0.0) the spec
    keeps."""

    n: tuple[int, ...]
    sigma_w: tuple[float, ...]
    scheme_config: SchemeConfig
    schemes: tuple[Scheme, ...] = (Scheme.KLJN, Scheme.GQNM, Scheme.CGQNM)
    min_bits: int = 100_000
    seed: int = 1
    fairness: Fairness = Fairness.PER_BIT
    threshold_mode: ThresholdMode = ThresholdMode.NOISE_ADJUSTED

    def __post_init__(self):
        if len(self.n) > 1 and len(self.sigma_w) > 1:
            raise ValueError("sweep one variable at a time: n and sigma_w both hold several values")
        object.__setattr__(self, "n", tuple(map(operator.index, self.n)))
        object.__setattr__(self, "sigma_w", tuple(map(check_sigma_w, self.sigma_w)))
        for values in (self.n, self.sigma_w):
            if not values:
                raise ValueError("sweep values must be non-empty")
            if any(b <= a for a, b in zip(values, values[1:])):
                raise ValueError(f"sweep values must be strictly ascending: {values!r}")
        if self.min_bits < 1000:
            raise ValueError(f"min_bits >= 1000 required, got {self.min_bits}")
        if not self.schemes:
            raise ValueError("at least one scheme required")
        if min(self.n) < 2:
            raise ValueError(f"n >= 2 required, got {min(self.n)}")
        if self.seed < 0:
            raise ValueError(f"seed >= 0 required, got {self.seed}")

    @property
    def variable(self) -> SweepVariable:
        """sigma_w when it holds several values, N otherwise."""
        return SweepVariable.SIGMA_W if len(self.sigma_w) > 1 else SweepVariable.SAMPLES_N

    @property
    def values(self) -> tuple:
        """The swept variable's values."""
        return self.sigma_w if self.variable is SweepVariable.SIGMA_W else self.n

    def point(self, index: int) -> tuple[int, float]:
        """(N, sigma_w) of the cells at swept value `index`: the swept
        tuple's value there and the fixed tuple's one value."""
        return tuple(v[index] if len(v) > 1 else v[0] for v in (self.n, self.sigma_w))

    def n_symbol(self, scheme: Scheme, n: int) -> int:
        """Samples per symbol of `scheme` at swept or fixed N (see Fairness)."""
        return n * scheme.bits_per_symbol if self.fairness is Fairness.PER_BIT else n


@dataclass(frozen=True)
class RunRecord:
    """One sweep cell's outcome plus enough metadata to reproduce it."""

    scheme: Scheme
    variable: SweepVariable
    value: float | int
    n: int
    sigma_w: float
    estimate: BepEstimate
    seed: int
    fingerprint: str
    wall_s: float


@dataclass(frozen=True)
class CellFailure:
    scheme: Scheme
    value: float | int
    error: str


@dataclass(frozen=True)
class SweepResult:
    records: tuple[RunRecord, ...]
    failures: tuple[CellFailure, ...]


def stable_stream_id(*parts) -> int:
    """64-bit stream id from a stable hash of the given parts."""
    digest = hashlib.sha256("\x1f".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _fingerprint(spec: SweepSpec, scheme: Scheme, index: int, n_symbol: int,
                 sigma_w: float, stream_id: int) -> str:
    payload = {
        "scheme": scheme.value,
        "variable": spec.variable.value,
        "index": index,
        "value": float(spec.values[index]),
        "n_symbol": n_symbol,
        "sigma_w": sigma_w,
        "min_bits": spec.min_bits,
        "seed": spec.seed,
        "stream_id": stream_id,
        "fairness": spec.fairness.value,
        "threshold_mode": spec.threshold_mode.value,
        "sampler": "suffstat-meanskip-z2",
        "config": {name: list(sub.values()) for name, sub in asdict(spec.scheme_config).items()},
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _run_cell(spec: SweepSpec, scheme: Scheme, index: int) -> RunRecord:
    n_point, sigma_w = spec.point(index)
    n_symbol = spec.n_symbol(scheme, n_point)
    stream_id = stable_stream_id(scheme.value, index)
    rng = NoiseSource(spec.seed, stream_id)
    t0 = time.perf_counter()
    bank = threshold_bank(scheme, *derive_subchannels(spec.scheme_config),
                          mode=spec.threshold_mode, sigma_w=sigma_w)
    est = run_point(bank, n_symbol, spec.min_bits, rng)
    wall = time.perf_counter() - t0
    return RunRecord(
        scheme=scheme,
        variable=spec.variable,
        value=spec.values[index],
        n=n_point,
        sigma_w=sigma_w,
        estimate=est,
        seed=spec.seed,
        fingerprint=_fingerprint(spec, scheme, index, n_symbol, sigma_w, stream_id),
        wall_s=wall,
    )


def _pool_size(spec: SweepSpec, cells, workers: int) -> int:
    """Threads for a sweep, the calling one included: at most `workers` and
    the CPUs this process may run on, one per cell, and one per
    SYMBOLS_PER_WORKER symbols (a cell's cost is its symbol count)."""
    symbols = sum(-(-spec.min_bits // scheme.bits_per_symbol) for scheme, _ in cells)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(workers, cpus or 1, len(cells), symbols // SYMBOLS_PER_WORKER))


def run_sweep(spec: SweepSpec, workers: int = 1) -> SweepResult:
    """Run every (scheme x value) cell of a sweep on up to `workers` threads.

    The calling thread and _pool_size - 1 daemon helpers take cells in grid
    order from one shared iterator; numpy's fills release the GIL, so the
    threads draw in parallel.  A cell's Exception is recorded as its
    CellFailure and the remaining cells still run.  Records come back in
    grid order, and their contents are independent of the worker count,
    since every cell owns its noise stream.  A BaseException (Ctrl-C) in
    the calling thread stops the helpers from taking new cells and is
    re-raised at once, without waiting for cells in flight; one in a helper
    is re-raised after the helpers are joined.
    """
    if workers < 1:
        raise ValueError(f"workers >= 1 required, got {workers}")
    cells = [(scheme, i) for scheme in spec.schemes for i in range(len(spec.values))]
    outcomes = [None] * len(cells)
    pending = enumerate(cells)
    lock = threading.Lock()
    halted = []  # BaseExceptions that stop the sweep

    def take():
        with lock:
            return None if halted else next(pending, None)

    def halt(e):
        with lock:
            halted.append(e)

    def work():
        while (item := take()) is not None:
            index, (scheme, i) = item
            try:
                outcomes[index] = _run_cell(spec, scheme, i)
            except Exception as e:  # noqa: BLE001 - cell isolation by contract
                outcomes[index] = CellFailure(scheme, spec.values[i], f"{type(e).__name__}: {e}")

    def helper():
        try:
            work()
        except BaseException as e:  # re-raised by the calling thread after the join
            halt(e)

    helpers = [threading.Thread(target=helper, daemon=True)
               for _ in range(_pool_size(spec, cells, workers) - 1)]
    try:
        for thread in helpers:
            thread.start()
        work()
    except BaseException as e:
        halt(e)
        raise
    for thread in helpers:
        thread.join()
    if halted:
        raise halted[0]
    failures = tuple(o for o in outcomes if isinstance(o, CellFailure))
    return SweepResult(tuple(o for o in outcomes if not isinstance(o, CellFailure)), failures)


def _fmt(value) -> str:
    # 17 significant digits round-trips every float64 exactly.
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _record_cells(r: RunRecord) -> dict:
    """A record's output cells; the keys, in order, are the CSV header."""
    return {
        "scheme": r.scheme.value,
        "variable": r.variable.value,
        "value": r.value,
        "N": r.n,
        "sigma_w": r.sigma_w,
        "bits": r.estimate.bits,
        "errors": r.estimate.errors,
        "bep": r.estimate.bep,
        "ci_low": r.estimate.ci_low,
        "ci_high": r.estimate.ci_high,
        "seed": r.seed,
        "fingerprint": r.fingerprint,
    }


def emit(records, format: str = "csv", path: str = "-") -> None:
    """Write run records as CSV or JSON; path '-' writes to stdout."""
    rows = [_record_cells(r) for r in records]
    if not rows:
        raise ValueError("no records to emit")
    if format not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {format!r}")
    if format == "csv":
        lines = [",".join(rows[0]), *(",".join(map(_fmt, row.values())) for row in rows)]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(rows, indent=2) + "\n"
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as e:
        raise OSError(f"cannot write {path}: {e}") from e
