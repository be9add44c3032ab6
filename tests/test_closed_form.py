"""run_point against a closed form of the BEP computed from the bank alone.

Given a symbol's state (mean level m, variance level v) and s2 = v + sigma_w^2,
its block mean is Normal(m, s2/n) and n * var_hat / s2 is independently
chi-square(n - 1).  A symbol of level indices (i, j) whose statistics land in
regions (r, q) errs popcount(r ^ i) + popcount(q ^ j) bits, whatever the
scheme's bit layout, so the closed form reads only the bank's public fields.
"""

import math

import pytest

from noisemod import (
    NoiseSource,
    Scheme,
    ThresholdBank,
    ThresholdMode,
    derive_subchannels,
    load_config,
    run_point,
    threshold_bank,
)
from test_analysis import REPO_ROOT

stats = pytest.importorskip("scipy.stats")


def _region_moments(dist, thresholds, sent):
    """E[h] and E[h^2] of the bits h by which a statistic of law `dist`, sent
    as level index `sent`, errs; region r holds the values between
    thresholds[r - 1] and thresholds[r]."""
    cdf = [0.0, *(float(dist.cdf(t)) for t in thresholds), 1.0]
    errs = [((r ^ sent).bit_count(), hi - lo) for r, (lo, hi) in enumerate(zip(cdf, cdf[1:]))]
    return sum(p * h for h, p in errs), sum(p * h * h for h, p in errs)


def error_moments(bank, n):
    """E[h] and E[h^2] of a symbol's bit errors h, over equally likely states."""
    e1 = e2 = 0.0
    for j, v in enumerate(bank.variances):
        s2n = (v + bank.sigma_w ** 2) / n
        v1, v2 = _region_moments(stats.chi2(n - 1, scale=s2n), bank.effective_var_thresholds, j)
        for i, m in enumerate(bank.means):
            m1, m2 = _region_moments(stats.norm(m, math.sqrt(s2n)), bank.mean_thresholds, i)
            e1 += m1 + v1
            e2 += m2 + 2.0 * m1 * v1 + v2
    states = len(bank.means) * len(bank.variances)
    return e1 / states, e2 / states


def _paper_bank(scheme):
    subs = derive_subchannels(load_config(REPO_ROOT / "configs" / "paper_literal.json")[0])
    return threshold_bank(scheme, *subs, mode=ThresholdMode.MIDPOINT, sigma_w=2e-5)


BANKS = {
    "paper-gqnm": lambda: _paper_bank(Scheme.GQNM),
    "paper-cgqnm": lambda: _paper_bank(Scheme.CGQNM),
    # KLJN levels 1 and 3, whose midpoint is 2
    "hand-kljn": lambda: ThresholdBank((0.0,), (1.0, 3.0), (), (1.6,), 0.0),
    # two mean levels close enough that the cell draws its mean deviations
    "hand-gqnm": lambda: ThresholdBank((0.0, 1.0), (1.0, 3.0), (0.4,), (1.6,), 0.5),
}


@pytest.mark.parametrize("name", list(BANKS))
def test_run_point_matches_closed_form(name):
    bank, n = BANKS[name](), 8
    est = run_point(bank, n, 1_000_000, NoiseSource(5, 11))
    e1, e2 = error_moments(bank, n)
    symbols = est.bits // ((len(bank.means) * len(bank.variances)).bit_length() - 1)
    z = (est.errors - symbols * e1) / math.sqrt(symbols * (e2 - e1 * e1))
    assert e1 > 0.01
    assert abs(z) <= 5.0
