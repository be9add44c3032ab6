"""Distinguishability margins of a scheme's level sets.

Adjacent mean levels must sit far apart relative to the widest component
spread, and adjacent variance levels far apart relative to the spread of
the block variance estimator, for midpoint detection to work.  These
checks quantify both margins for any level sets, or for the levels a
threshold bank receives, so a configuration can be vetted before it is
simulated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import pairwise

from .modem import ThresholdBank
from .params import SchemeConfig


class SpreadFormula(Enum):
    """Formula for the variance of the block variance estimator.

    CHI_SQUARE is the exact result for the 1/N-divisor estimator,
    2*sigma^4*(N-1)/N^2 (N times the estimate over sigma^2 is chi-square
    with N-1 degrees of freedom).  FOURTH_MOMENT evaluates the alternative
    gamma-ratio expression sigma^2 * E{e^4} / N^4 - sigma^4 verbatim; it
    mixes units and can go negative, and is reported as-is.
    """

    FOURTH_MOMENT = "paper"
    CHI_SQUARE = "corrected"


def chi_square_moment(k: float, m: int) -> float:
    """Raw moment E{X^m} of X ~ chi-square with k degrees of freedom.

    Computed as the rising product prod_{j<m}(k + 2j), which stays finite
    where a quotient of two gamma evaluations would overflow.
    """
    if not k > 0:
        raise ValueError(f"degrees of freedom must be positive, got {k!r}")
    if m != int(m) or m < 0:
        raise ValueError(f"moment order must be a non-negative integer, got {m!r}")
    out = 1.0
    for j in range(int(m)):
        out *= k + 2.0 * j
    return out


def sample_variance_spread(
    sigma2: float, n: int, formula: SpreadFormula = SpreadFormula.CHI_SQUARE
) -> float:
    """Variance of the 1/N-divisor sample variance of an n-sample block.

    FOURTH_MOMENT may return a negative value; it is never clamped.
    """
    if n < 2:
        raise ValueError(f"n >= 2 required, got {n}")
    if not sigma2 > 0.0:
        raise ValueError(f"sigma2 must be positive, got {sigma2!r}")
    try:
        if formula is SpreadFormula.CHI_SQUARE:
            return 2.0 * sigma2 * sigma2 * (n - 1) / (n * n)
        # gamma((n-1)/2 + 4) / gamma((n-1)/2) == chi_square_moment(n-1, 4) / 16
        m4 = chi_square_moment(float(n - 1), 4)
        return sigma2 * m4 / float(n) ** 4 - sigma2 * sigma2
    except OverflowError:  # an integer N whose powers leave the float range
        raise ValueError(f"N={n} samples per symbol is too large for float arithmetic") from None


def _ratio(lhs: float, rhs: float) -> float:
    if math.isnan(rhs):
        return math.nan
    if rhs > 0.0:
        return lhs / rhs
    return math.inf if lhs > 0.0 else 0.0


@dataclass(frozen=True)
class MeanConditionResult:
    """Margin of the mean-level detector.

    lhs_gap is the smallest adjacent mean gap; lhs_literal the coarser
    m_H0 form of the same quantity; rhs is six standard deviations of the
    largest variance level.
    """

    lhs_gap: float
    lhs_literal: float
    rhs: float
    ratio: float
    satisfied: bool


def check_mean_condition(
    means: tuple[float, ...],
    variances: tuple[float, ...],
    config: SchemeConfig,
    margin_factor: float = 1.0,
) -> MeanConditionResult:
    """Check that adjacent mean levels separate beyond the component spread
    of the largest (last) variance level."""
    lhs = min(b - a for a, b in pairwise(means))
    rhs = 6.0 * math.sqrt(variances[-1])
    ratio = _ratio(lhs, rhs)
    return MeanConditionResult(lhs_gap=lhs, lhs_literal=config.sub0.m_H, rhs=rhs, ratio=ratio,
                               satisfied=bool(ratio >= margin_factor))


@dataclass(frozen=True)
class VariancePairCheck:
    """Margin of one adjacent variance-level pair at block length n."""

    level_low: float
    level_high: float
    gap: float
    spread: float  # 3*(sd of estimator at low level) + 3*(sd at high level)
    ratio: float
    satisfied: bool


def check_variance_condition(
    variances: tuple[float, ...],
    n: int,
    formula: SpreadFormula = SpreadFormula.CHI_SQUARE,
    margin_factor: float = 1.0,
) -> list[VariancePairCheck]:
    """Check every adjacent variance pair, not only the closest one.

    Under the canonical scaling the composite's top pair has the bottom
    pair's gap but a larger estimator spread, so the top pair is the
    binding one; every pair is therefore reported.
    """
    sds = []
    for v in variances:
        est_var = sample_variance_spread(v, n, formula)
        sds.append(math.sqrt(est_var) if est_var >= 0.0 else math.nan)
    out = []
    for (low, high), (sd_low, sd_high) in zip(pairwise(variances), pairwise(sds)):
        gap = high - low
        spread = 3.0 * sd_low + 3.0 * sd_high
        ratio = _ratio(gap, spread)
        out.append(VariancePairCheck(level_low=low, level_high=high, gap=gap, spread=spread,
                                     ratio=ratio, satisfied=bool(ratio >= margin_factor)))
    return out


def _json_number(x: float) -> float | None:
    """x, or None (JSON null) where x is NaN or infinite."""
    return x if math.isfinite(x) else None


@dataclass(frozen=True)
class DistinguishabilityReport:
    """Mean- and variance-domain margins of one bank's levels at block length n.

    mean is None for a bank with one mean level (KLJN), which carries no
    mean bits; pairs holds one check per adjacent variance pair.
    """

    mean: MeanConditionResult | None
    pairs: tuple[VariancePairCheck, ...]
    formula_mode: SpreadFormula
    n: int
    margin_factor: float
    warnings: tuple[str, ...]

    @property
    def satisfied(self) -> bool:
        return (self.mean is None or self.mean.satisfied) and all(p.satisfied for p in self.pairs)

    def to_dict(self) -> dict:
        """JSON-ready fields; NaN and infinite values are written as None."""
        mean = self.mean
        return {
            "mean_lhs": _json_number(mean.lhs_gap) if mean else None,
            "mean_lhs_literal": _json_number(mean.lhs_literal) if mean else None,
            "mean_rhs": _json_number(mean.rhs) if mean else None,
            "mean_ratio": _json_number(mean.ratio) if mean else None,
            "mean_satisfied": mean.satisfied if mean else None,
            "var_gaps": [_json_number(p.gap) for p in self.pairs],
            "var_spreads": [_json_number(p.spread) for p in self.pairs],
            "var_ratios": [_json_number(p.ratio) for p in self.pairs],
            "var_satisfied": all(p.satisfied for p in self.pairs),
            "satisfied": self.satisfied,
            "formula_mode": self.formula_mode.value,
            "n": self.n,
            "margin_factor": self.margin_factor,
            "warnings": list(self.warnings),
        }


def build_report(
    bank: ThresholdBank,
    config: SchemeConfig,
    n: int,
    formula: SpreadFormula = SpreadFormula.CHI_SQUARE,
    margin_factor: float = 1.0,
) -> DistinguishabilityReport:
    """Evaluate both distinguishability conditions for one bank's levels.

    config supplies only the paper-literal m_H0 form of the mean gap.  Both
    margins are judged at the received variance levels v + sigma_w^2 of the
    bank's channel noise.
    """
    if not (math.isfinite(margin_factor) and margin_factor > 0.0):
        raise ValueError(f"margin factor must be finite and > 0, got {margin_factor!r}")
    noise = bank.sigma_w * bank.sigma_w
    variances = tuple(v + noise for v in bank.variances)
    mean = (check_mean_condition(bank.means, variances, config, margin_factor)
            if len(bank.means) > 1 else None)
    pairs = check_variance_condition(variances, n, formula, margin_factor)
    warnings = []
    if formula is SpreadFormula.FOURTH_MOMENT:
        warnings.append(
            "fourth-moment spread formula mixes units and can go negative; "
            "values reported verbatim"
        )
    for i, p in enumerate(pairs):
        if math.isnan(p.spread):
            warnings.append(f"estimator spread undefined for variance pair {i + 1} "
                            "(negative variance-of-estimator value)")
    return DistinguishabilityReport(mean, tuple(pairs), formula, n, margin_factor, tuple(warnings))
