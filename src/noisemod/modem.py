"""Noise modulators and the additive white Gaussian channel.

Information bits select the mean and variance of a Gaussian state; a
symbol is a block of independent samples drawn from that state.  Each
scheme's states, bit layout and detector thresholds live in one table
(scheme_table).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .params import DegenerateLevelsError, SubchannelParams


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

    Symbol bit mean_bits[k] is bit k of the mean level index and
    var_bits[k] bit k of the variance level index (least significant
    first); every symbol bit belongs to exactly one of the two indices.
    means and variances are ascending, and the thresholds are the
    midpoints between adjacent levels.
    """

    scheme: Scheme
    means: tuple[float, ...]
    variances: tuple[float, ...]
    mean_bits: tuple[int, ...]
    var_bits: tuple[int, ...]
    mean_thresholds: tuple[float, ...]
    var_thresholds: tuple[float, ...]

    def indices(self, bits: tuple[int, ...]) -> tuple[int, int]:
        """(mean, variance) level indices of one symbol's bits."""
        return tuple(
            sum(bits[p] << k for k, p in enumerate(positions))
            for positions in (self.mean_bits, self.var_bits)
        )

    def bits_of(self, mean_index: int, var_index: int) -> tuple[int, ...]:
        """The symbol bits that select the given level indices."""
        bits = [0] * self.scheme.bits_per_symbol
        for positions, index in ((self.mean_bits, mean_index), (self.var_bits, var_index)):
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
    return SchemeTable(
        scheme, means, variances, mean_bits, var_bits, _midpoints(means), _midpoints(variances)
    )


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
