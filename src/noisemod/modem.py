"""Noise modems: modulators, the additive white Gaussian channel, and detectors.

Information bits select the mean and variance of a Gaussian state; a
symbol is a block of independent samples drawn from that state, and the
detector maps the block's sample mean and variance back to bits.  Each
scheme's states and midpoint thresholds live in one table (scheme_table),
its bit layout on the Scheme, and the thresholds in use in a threshold_bank.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .params import ChannelConfig, ConfigError, DegenerateLevelsError, SubchannelParams


class Scheme(Enum):
    """A scheme's CLI name and its layout = (mean_bits, var_bits): the symbol
    bits of the mean and of the variance level index, least significant
    first.  Index bit k picks subchannel k's low or high value."""

    KLJN = "kljn", (), (0,)
    GQNM = "gqnm", (0,), (1,)
    CGQNM = "cgqnm", (0, 2), (1, 3)

    def __new__(cls, value, mean_bits, var_bits):
        member = object.__new__(cls)
        member._value_ = value
        member.layout = (mean_bits, var_bits)
        return member

    @property
    def bits_per_symbol(self) -> int:
        return sum(map(len, self.layout))


@dataclass(frozen=True)
class SymbolBits:
    """One symbol's information bits, in the order of the scheme's layout.

    KLJN (b1,) — variance bit only; GQNM (b0, b1) — mean bit, variance
    bit; CGQNM (b00, b10, b01, b11) — subchannel-0 mean and variance bits
    followed by the subchannel-1 pair.
    """

    scheme: Scheme
    bits: tuple[int, ...]

    def __post_init__(self):
        want = self.scheme.bits_per_symbol
        if len(self.bits) != want:
            raise ValueError(f"{self.scheme.value} needs {want} bits, got {len(self.bits)}")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError(f"bits must be 0 or 1, got {self.bits!r}")


@dataclass
class NoiseSource:
    """Reproducible Gaussian stream keyed by (seed, stream_id).

    Two sources built with the same key produce identical streams, and
    distinct stream ids give statistically independent streams.  A source
    owns its generator state; never share one across concurrent tasks.
    """

    seed: int
    stream_id: int = 0
    _gen: np.random.Generator | None = field(default=None, repr=False, compare=False)

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
            self._gen = np.random.Generator(np.random.SFC64(ss))
        return self._gen


@dataclass(frozen=True)
class SchemeTable:
    """A scheme's level sets, its bit <-> level map and its detector thresholds.

    With (mean_bits, var_bits) = scheme.layout, symbol bit mean_bits[k] is
    bit k of the mean level index and var_bits[k] bit k of the variance
    level index (least significant first); every symbol bit belongs to
    exactly one of the two indices.  means and variances are ascending,
    and the thresholds are the midpoints between adjacent levels.
    """

    scheme: Scheme
    means: tuple[float, ...]
    variances: tuple[float, ...]
    mean_thresholds: tuple[float, ...]
    var_thresholds: tuple[float, ...]

    def indices(self, bits: tuple[int, ...]) -> tuple[int, int]:
        """(mean, variance) level indices of one symbol's bits."""
        return tuple(
            sum(bits[p] << k for k, p in enumerate(positions))
            for positions in self.scheme.layout
        )

    def bits_of(self, mean_index: int, var_index: int) -> tuple[int, ...]:
        """The symbol bits that select the given level indices."""
        bits = [0] * self.scheme.bits_per_symbol
        for positions, index in zip(self.scheme.layout, (mean_index, var_index)):
            for k, p in enumerate(positions):
                bits[p] = index >> k & 1
        return tuple(bits)


def _levels(pairs) -> tuple[float, ...]:
    """Level i sums, over subchannels k, the high value of pair k where bit
    k of i is set and the low value where it is clear."""
    return tuple(
        sum((high if i >> k & 1 else low for k, (low, high) in enumerate(pairs)), 0.0)
        for i in range(1 << len(pairs))
    )


def _midpoints(levels) -> tuple[float, ...]:
    return tuple((a + b) / 2.0 for a, b in zip(levels, levels[1:]))


@lru_cache(maxsize=256)
def scheme_table(
    scheme: Scheme,
    sub0: SubchannelParams,
    sub1: SubchannelParams | None = None,
) -> SchemeTable:
    """Build a scheme's table from its subchannels (see Scheme.layout).

    Each level index sums the first len(bits) of (sub0, sub1): the
    composite both, GQNM sub0 alone, and zero-mean KLJN sub0's variances.
    Raises ValueError if the layout needs a subchannel that is missing, and
    DegenerateLevelsError if two levels coincide or a level set does not
    ascend in index order (either way midpoint detection is meaningless).
    The inputs and the table are frozen, so equal arguments share one table.
    """
    mean_bits, var_bits = scheme.layout
    subs = (sub0, sub1)[:max(len(mean_bits), len(var_bits))]
    if any(sub is None for sub in subs):
        raise ValueError(f"{scheme.value} needs {len(subs)} subchannels")
    means = _levels([(s.m_L, s.m_H) for s in subs[:len(mean_bits)]])
    variances = _levels([(s.var_0, s.var_1) for s in subs[:len(var_bits)]])
    for label, levels in (("mean", means), ("variance", variances)):
        ordered = sorted(levels)
        for a, b in zip(ordered, ordered[1:]):
            if a == b:
                raise DegenerateLevelsError(f"coincident composite {label} levels at {a!r}")
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise DegenerateLevelsError(f"composite {label}s out of level order: {levels!r}")
    return SchemeTable(scheme, means, variances, _midpoints(means), _midpoints(variances))


def select_state(
    bits: SymbolBits,
    sub0: SubchannelParams,
    sub1: SubchannelParams | None = None,
) -> tuple[float, float]:
    """Map a symbol's bits to the (mean, variance) of its Gaussian state."""
    table = scheme_table(bits.scheme, sub0, sub1)
    mean_index, var_index = table.indices(bits.bits)
    return table.means[mean_index], table.variances[var_index]


def modulate(state: tuple[float, float], n: int, rng: NoiseSource) -> np.ndarray:
    """Draw one symbol block: n independent Normal(mean, variance) samples."""
    if n < 2:
        raise ValueError(f"n >= 2 required, got {n}")
    mean, var = state
    if var < 0.0:
        raise ValueError(f"variance must be >= 0, got {var!r}")
    return mean + math.sqrt(var) * rng.generator.standard_normal(n)


def awgn(samples: np.ndarray, sigma_w: float, rng: NoiseSource) -> np.ndarray:
    """Add independent zero-mean channel noise of standard deviation sigma_w.

    sigma_w == 0 returns the samples unchanged and consumes no draws.
    """
    if sigma_w < 0.0:
        raise ValueError(f"sigma_w must be >= 0, got {sigma_w!r}")
    if sigma_w == 0.0:
        return samples
    return samples + sigma_w * rng.generator.standard_normal(samples.size)


class ThresholdMode(Enum):
    """Whether variance thresholds compensate for the channel noise floor."""

    MIDPOINT = "paper"
    NOISE_ADJUSTED = "noise-adjusted"


@dataclass(frozen=True)
class ThresholdBank:
    """The detector thresholds in use for one scheme at one channel noise level,
    and that level: sigma_w (V), the noise the thresholds were set for and
    the noise harness.run_point adds to every sample.

    Build it with threshold_bank, the one place the noise adjustment is made.
    Each threshold tuple must fit its level set: one threshold between each
    two adjacent levels, all finite and non-decreasing (ConfigError
    otherwise).  Noise-adjusted thresholds may tie where sigma_w^2 swamps
    the gap between two midpoints.
    """

    table: SchemeTable
    mean_thresholds: tuple[float, ...]
    effective_var_thresholds: tuple[float, ...]
    sigma_w: float

    def __post_init__(self):
        ChannelConfig(self.sigma_w)  # ConfigError unless a valid channel noise level
        for name, levels in (("mean_thresholds", self.table.means),
                             ("effective_var_thresholds", self.table.variances)):
            thresholds = getattr(self, name)
            if (len(thresholds) != len(levels) - 1
                    or not all(map(math.isfinite, thresholds))
                    or any(b < a for a, b in zip(thresholds, thresholds[1:]))):
                raise ConfigError(f"{name} must be {len(levels) - 1} finite non-decreasing "
                                  f"thresholds for {len(levels)} levels, got {thresholds!r}")


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
    unaffected by zero-mean channel noise).  The bank carries sigma_w,
    which must pass ChannelConfig's checks (ConfigError otherwise).
    """
    table = scheme_table(scheme, sub0, sub1)
    var_thresholds, shift = table.var_thresholds, sigma_w * sigma_w
    if mode is ThresholdMode.NOISE_ADJUSTED and shift > 0.0:
        var_thresholds = tuple(t + shift for t in var_thresholds)
    return ThresholdBank(table, table.mean_thresholds, var_thresholds, sigma_w)


@dataclass(frozen=True)
class BlockEstimates:
    mean_hat: float
    var_hat: float


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
