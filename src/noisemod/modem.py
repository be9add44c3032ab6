"""Noise modems: scheme bit layouts and threshold banks.

Information bits select the mean and variance of a Gaussian state; a
symbol is a block of independent samples drawn from that state, and the
detector maps the block's sample mean and variance back to bits.  Each
scheme's bit layout lives on the Scheme, and its receiver (level sets,
the thresholds in use and the channel noise they were set for) in one
ThresholdBank, built by threshold_bank and run by harness.run_point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .params import ConfigError, DegenerateLevelsError, SubchannelParams, check_sigma_w


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


class ThresholdMode(Enum):
    """Whether variance thresholds compensate for the channel noise floor."""

    MIDPOINT = "paper"
    NOISE_ADJUSTED = "noise-adjusted"


@dataclass(frozen=True)
class ThresholdBank:
    """The receiver of one cell: a scheme's level sets, the detector
    thresholds in use, and sigma_w (V), the noise the thresholds were set
    for and the noise harness.run_point adds to every sample.

    means and variances are indexed by level index (see Scheme.layout for
    the symbol bits that form each index).  threshold_bank builds a bank
    from subchannels; one built by hand is checked the same way:
    - sigma_w passes check_sigma_w;
    - the states, len(means) * len(variances), are 2^b for some b >= 1, so
      that uniform random bits select them: b is the bits per symbol
      harness.run_point counts;
    - each level set is finite and strictly ascending, and the variances
      are > 0;
    - each threshold tuple fits its level set: one threshold between each
      two adjacent levels, all finite and non-decreasing, and the variance
      thresholds > 0.
    Levels out of order or coincident raise DegenerateLevelsError (midpoint
    detection is meaningless there), any other misfit ConfigError.
    Noise-adjusted thresholds may tie where sigma_w^2 swamps the gap between
    two midpoints.
    """

    means: tuple[float, ...]
    variances: tuple[float, ...]
    mean_thresholds: tuple[float, ...]
    effective_var_thresholds: tuple[float, ...]
    sigma_w: float

    def __post_init__(self):
        check_sigma_w(self.sigma_w)
        states = len(self.means) * len(self.variances)
        if states < 2 or states & (states - 1):
            raise ConfigError(f"{len(self.means)} mean x {len(self.variances)} "
                              f"variance levels make {states} states, not 2^b for b >= 1")
        for label, levels, name, low in (
                ("mean", self.means, "mean_thresholds", -math.inf),
                ("variance", self.variances, "effective_var_thresholds", 0.0)):
            bound = "finite" if low < 0.0 else "finite and > 0"
            if not all(low < x < math.inf for x in levels):
                raise ConfigError(f"{label} levels must be {bound}, got {levels!r}")
            ordered = sorted(levels)
            for a, b in zip(ordered, ordered[1:]):
                if a == b:
                    raise DegenerateLevelsError(f"coincident composite {label} levels at {a!r}")
            if ordered != list(levels):
                raise DegenerateLevelsError(f"composite {label}s out of level order: {levels!r}")
            thresholds = getattr(self, name)
            if (len(thresholds) != len(levels) - 1
                    or not all(low < t < math.inf for t in thresholds)
                    or any(b < a for a, b in zip(thresholds, thresholds[1:]))):
                raise ConfigError(f"{name} must be {len(levels) - 1} non-decreasing thresholds, "
                                  f"each {bound}, for {len(levels)} levels, got {thresholds!r}")


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
def threshold_bank(
    scheme: Scheme,
    sub0: SubchannelParams,
    sub1: SubchannelParams | None = None,
    *,
    mode: ThresholdMode = ThresholdMode.NOISE_ADJUSTED,
    sigma_w: float = 0.0,
) -> ThresholdBank:
    """Build a scheme's bank from its subchannels (see Scheme.layout).

    Each level index sums the first len(bits) of (sub0, sub1): the
    composite both, GQNM sub0 alone, and zero-mean KLJN sub0's variances.
    The thresholds are the midpoints between adjacent levels; in
    noise-adjusted mode the variance thresholds are shifted up by
    sigma_w^2 (the mean is unaffected by zero-mean channel noise).  Raises
    ValueError if the layout needs a subchannel that is missing, and what
    ThresholdBank raises for levels, thresholds or a sigma_w it refuses.
    The inputs and the bank are frozen, so equal arguments share one bank.
    """
    mean_bits, var_bits = scheme.layout
    subs = (sub0, sub1)[:max(len(mean_bits), len(var_bits))]
    if any(sub is None for sub in subs):
        raise ValueError(f"{scheme.value} needs {len(subs)} subchannels")
    means = _levels([(s.m_L, s.m_H) for s in subs[:len(mean_bits)]])
    variances = _levels([(s.var_0, s.var_1) for s in subs[:len(var_bits)]])
    shift = sigma_w * sigma_w if mode is ThresholdMode.NOISE_ADJUSTED else 0.0
    return ThresholdBank(means, variances, _midpoints(means),
                         tuple(t + shift for t in _midpoints(variances)), sigma_w)


def select_state(
    bits: SymbolBits,
    sub0: SubchannelParams,
    sub1: SubchannelParams | None = None,
) -> tuple[float, float]:
    """Map a symbol's bits to the (mean, variance) of its Gaussian state."""
    bank = threshold_bank(bits.scheme, sub0, sub1)
    mean_index, var_index = (sum(bits.bits[p] << k for k, p in enumerate(positions))
                             for positions in bits.scheme.layout)
    return bank.means[mean_index], bank.variances[var_index]
