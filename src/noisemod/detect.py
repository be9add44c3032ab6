"""Per-block estimators and midpoint threshold detectors."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .modem import Scheme, SchemeTable, SymbolBits, scheme_table
from .params import SubchannelParams


@dataclass(frozen=True)
class BlockEstimates:
    mean_hat: float
    var_hat: float


class ThresholdMode(Enum):
    """Whether variance thresholds compensate for the channel noise floor."""

    MIDPOINT = "paper"
    NOISE_ADJUSTED = "noise-adjusted"


@dataclass(frozen=True)
class ThresholdBank:
    """A scheme's detector thresholds at one channel noise level.

    The thresholds are the scheme table's midpoints.  In noise-adjusted
    mode the variance thresholds are shifted up by sigma_w2 before
    comparison (the mean is unaffected by zero-mean channel noise).
    """

    table: SchemeTable
    noise_adjust: ThresholdMode = ThresholdMode.NOISE_ADJUSTED
    sigma_w2: float = 0.0

    def __post_init__(self):
        if self.sigma_w2 < 0.0:
            raise ValueError("sigma_w2 must be >= 0")

    @property
    def mean_thresholds(self) -> tuple[float, ...]:
        return self.table.mean_thresholds

    @property
    def effective_var_thresholds(self) -> tuple[float, ...]:
        if self.noise_adjust is ThresholdMode.NOISE_ADJUSTED and self.sigma_w2 > 0.0:
            return tuple(t + self.sigma_w2 for t in self.table.var_thresholds)
        return self.table.var_thresholds


def threshold_bank(
    scheme: Scheme,
    sub0: SubchannelParams,
    sub1: SubchannelParams | None = None,
    *,
    mode: ThresholdMode = ThresholdMode.NOISE_ADJUSTED,
    sigma_w: float = 0.0,
) -> ThresholdBank:
    """Build the detector thresholds for a scheme from subchannel parameters."""
    return ThresholdBank(scheme_table(scheme, sub0, sub1), mode, sigma_w * sigma_w)


def estimate(samples) -> BlockEstimates:
    """Sample mean and 1/N-divisor sample variance of a block of samples."""
    x = np.asarray(samples, dtype=np.float64)
    if x.size < 2:
        raise ValueError("a sample block needs at least 2 samples")
    return BlockEstimates(float(x.mean()), float(x.var()))


def detect_bits(mean_hat: float, var_hat: float, bank: ThresholdBank) -> tuple[int, ...]:
    """The symbol bits of the regions a sample mean and variance fall in.

    A value equal to a threshold resolves to the upper region.
    """
    return bank.table.bits_of(
        bisect_right(bank.mean_thresholds, mean_hat),
        bisect_right(bank.effective_var_thresholds, var_hat),
    )


def detect_symbol(samples, bank: ThresholdBank) -> SymbolBits:
    """Detect one symbol's bits, in the layout of the bank's scheme, from its samples."""
    est = estimate(samples)
    return SymbolBits(bank.table.scheme, detect_bits(est.mean_hat, est.var_hat, bank))
