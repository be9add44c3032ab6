"""Closed-form bit-error oracle for one sweep cell.

A symbol's block mean and 1/N block variance are independent: the mean
is Normal(m, s^2/n) and n * var_hat / s^2 is chi-square(n - 1), with
s^2 = v + sigma_w^2 for the state (m, v) and n samples per symbol.  The
probability of each (mean region, variance region) pair follows from
the detector thresholds, and the Hamming distance between the sent bits
and the bits the paper's region map gives for that pair is the symbol's
error count.  Averaging over uniformly random bit patterns yields the
first two moments of the per-symbol error count, so a cell's error total
over S symbols has mean S*E[h] and variance S*(E[h^2] - E[h]^2).

Only the package's public calls are used: the subchannels, the state of
each bit pattern (`select_state`) and the thresholds (`threshold_bank`).
"""

from __future__ import annotations

import itertools
import math

from scipy import stats

from noisemod import Scheme, SymbolBits, select_state, threshold_bank

# A cell fails when its error count is further than this many standard
# deviations from the closed form.  At 5 the chance of a false failure is
# about 6e-7 per cell (normal approximation), while a BEP shift of 3.4 %
# is caught on every benchmark cell with at least 18k expected errors
# (13 % on the 1.4k-error noise-free CGQNM cell).
Z_BOUND = 5.0


def _region_probs(dist, thresholds) -> list[float]:
    """Probability of each region between ascending thresholds.

    A region's probability is taken as a difference of CDFs below the
    median and of survival functions above it, so small tails keep their
    precision.
    """
    edges = [-math.inf, *thresholds, math.inf]
    cdf = [float(dist.cdf(t)) for t in edges]
    sf = [float(dist.sf(t)) for t in edges]
    return [
        cdf[i + 1] - cdf[i] if cdf[i] < 0.5 else sf[i] - sf[i + 1]
        for i in range(len(edges) - 1)
    ]


def _detected_bits(scheme: Scheme, mean_region: int, var_region: int) -> tuple[int, ...]:
    """The paper's region-to-bit map, ascending regions 0..3 -> bits (lo, hi)."""
    if scheme is Scheme.CGQNM:
        return (mean_region & 1, var_region & 1, mean_region >> 1, var_region >> 1)
    if scheme is Scheme.GQNM:
        return (mean_region, var_region)
    return (var_region,)


def error_moments(scheme: Scheme, sub0, sub1, n_symbol: int, sigma_w: float) -> tuple[float, float]:
    """E[h] and E[h^2] of the per-symbol bit-error count h."""
    bank = threshold_bank(scheme, sub0, sub1, sigma_w=sigma_w)
    mean_th = tuple(bank.mean_thresholds)
    var_th = tuple(bank.effective_var_thresholds)
    patterns = list(itertools.product((0, 1), repeat=scheme.bits_per_symbol))
    e1 = e2 = 0.0
    for bits in patterns:
        m, v = select_state(SymbolBits(scheme, bits), sub0, sub1)
        s2 = v + sigma_w * sigma_w
        p_mean = _region_probs(stats.norm(m, math.sqrt(s2 / n_symbol)), mean_th)
        p_var = _region_probs(stats.chi2(n_symbol - 1, scale=s2 / n_symbol), var_th)
        for (mr, pm), (vr, pv) in itertools.product(enumerate(p_mean), enumerate(p_var)):
            h = sum(a != b for a, b in zip(bits, _detected_bits(scheme, mr, vr)))
            e1 += pm * pv * h
            e2 += pm * pv * h * h
    return e1 / len(patterns), e2 / len(patterns)


def z_score(errors: int, symbols: int, e1: float, e2: float) -> float:
    """Standardized distance of an observed error total from the closed form."""
    mean = symbols * e1
    sd = math.sqrt(max(symbols * (e2 - e1 * e1), 0.0))
    if sd == 0.0:
        return 0.0 if errors == mean else math.inf
    return (errors - mean) / sd
