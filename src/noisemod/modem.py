"""Noise modems: scheme bit layouts, level tables and detector thresholds.

Information bits select the mean and variance of a Gaussian state; a
symbol is a block of independent samples drawn from that state, and the
detector maps the block's sample mean and variance back to bits.  Each
scheme's bit layout lives on the Scheme, its states and midpoint
thresholds in one table (scheme_table), and the thresholds in use in a
threshold_bank, which harness.run_point runs.
"""

from __future__ import annotations

import math
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
    """A scheme's level sets and its midpoint detector thresholds.

    means and variances are ascending and indexed by level index (see
    Scheme.layout for the symbol bits that form each index), and the
    thresholds are the midpoints between adjacent levels.
    """

    means: tuple[float, ...]
    variances: tuple[float, ...]
    mean_thresholds: tuple[float, ...]
    var_thresholds: tuple[float, ...]


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
    return SchemeTable(means, variances, _midpoints(means), _midpoints(variances))


def select_state(
    bits: SymbolBits,
    sub0: SubchannelParams,
    sub1: SubchannelParams | None = None,
) -> tuple[float, float]:
    """Map a symbol's bits to the (mean, variance) of its Gaussian state."""
    table = scheme_table(bits.scheme, sub0, sub1)
    mean_index, var_index = (sum(bits.bits[p] << k for k, p in enumerate(positions))
                             for positions in bits.scheme.layout)
    return table.means[mean_index], table.variances[var_index]


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
    The table's states, len(means) * len(variances), must be 2^b for some
    b >= 1, so that uniform random bits select them: b is the bits per
    symbol harness.run_point counts.  Each threshold tuple must fit its
    level set: one threshold between each two adjacent levels, all finite
    and non-decreasing.  Either misfit raises ConfigError.  Noise-adjusted
    thresholds may tie where sigma_w^2 swamps the gap between two midpoints.
    """

    table: SchemeTable
    mean_thresholds: tuple[float, ...]
    effective_var_thresholds: tuple[float, ...]
    sigma_w: float

    def __post_init__(self):
        ChannelConfig(self.sigma_w)  # ConfigError unless a valid channel noise level
        states = len(self.table.means) * len(self.table.variances)
        if states < 2 or states & (states - 1):
            raise ConfigError(f"{len(self.table.means)} mean x {len(self.table.variances)} "
                              f"variance levels make {states} states, not 2^b for b >= 1")
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
