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
    """The detector thresholds in use for one scheme at one channel noise level.

    Build it with threshold_bank, the one place the noise adjustment is made.
    """

    table: SchemeTable
    mean_thresholds: tuple[float, ...]
    effective_var_thresholds: tuple[float, ...]


def threshold_bank(
    scheme: Scheme,
    sub0: SubchannelParams,
    sub1: SubchannelParams | None = None,
    *,
    mode: ThresholdMode = ThresholdMode.NOISE_ADJUSTED,
    sigma_w: float = 0.0,
) -> ThresholdBank:
    """Build the detector thresholds for a scheme from subchannel parameters.

    The thresholds are the scheme table's midpoints.  In noise-adjusted mode
    the variance thresholds are shifted up by sigma_w^2 (the mean is
    unaffected by zero-mean channel noise).
    """
    table = scheme_table(scheme, sub0, sub1)
    var_thresholds, shift = table.var_thresholds, sigma_w * sigma_w
    if mode is ThresholdMode.NOISE_ADJUSTED and shift > 0.0:
        var_thresholds = tuple(t + shift for t in var_thresholds)
    return ThresholdBank(table, table.mean_thresholds, var_thresholds)


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
