"""Scheme configuration: the composite's two subchannels.

A composite modulator is the sum of two GQNM subchannels.  They are given
either directly or through six scale factors (SchemeConfig.derived), which
apply the scaling rules

    m_H0 = alpha * m_L0        var_10 = eta * var_00
    m_L1 = beta * m_L0         var_01 = gamma * var_00
    m_H1 = alpha * m_L1        var_11 = gamma * var_10

Either way the config holds only the two subchannels, and everything
downstream (level sets, detector thresholds; see modem.threshold_bank)
is computed from them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields


class ConfigError(ValueError):
    """A configuration value violates one of its constraints."""


class DegenerateLevelsError(ValueError):
    """Composite levels coincide or are out of order; thresholds undefined."""


def _require_finite(name, value):
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class SubchannelParams:
    """Bias voltages (V) and noise variances (V^2) of one subchannel."""

    m_L: float
    m_H: float
    var_0: float
    var_1: float

    def __post_init__(self):
        for f in fields(self):
            _require_finite(f.name, getattr(self, f.name))
        if not self.m_L < self.m_H:
            raise ConfigError(
                f"subchannel requires m_L < m_H, got m_L={self.m_L!r}, m_H={self.m_H!r}"
            )
        if not 0.0 < self.var_0 < self.var_1:
            raise ConfigError(
                "subchannel requires 0 < var_0 < var_1, got "
                f"var_0={self.var_0!r}, var_1={self.var_1!r}"
            )


@dataclass(frozen=True)
class SchemeConfig:
    """The composite scheme's two subchannels.

    `derived` builds them from the six scale factors; a pair that does not
    follow the scaling rules is given directly as SchemeConfig(sub0, sub1).
    """

    sub0: SubchannelParams
    sub1: SubchannelParams

    def __post_init__(self):
        if not all(isinstance(sub, SubchannelParams) for sub in derive_subchannels(self)):
            names = " and ".join(f.name for f in fields(self))
            raise ConfigError(f"a scheme config requires SubchannelParams for {names}")

    @classmethod
    def derived(cls, m_L0, alpha, beta, var_00, eta, gamma) -> "SchemeConfig":
        m_L0, alpha, beta, var_00, eta, gamma = map(float, (m_L0, alpha, beta, var_00, eta, gamma))
        for name, value, bound in (
            ("m_L0", m_L0, 0.0),
            ("var_00", var_00, 0.0),
            ("alpha", alpha, 1.0),
            ("beta", beta, 1.0),
            ("eta", eta, 1.0),
            ("gamma", gamma, 1.0),
        ):
            _require_finite(name, value)
            if not value > bound:
                raise ConfigError(f"{name} > {bound:g} required, got {value!r}")
        if not alpha > beta:
            raise ConfigError(f"alpha > beta required, got alpha={alpha!r}, beta={beta!r}")
        if not gamma > eta:
            raise ConfigError(f"gamma > eta required, got gamma={gamma!r}, eta={eta!r}")
        m_L1 = beta * m_L0
        var_10 = eta * var_00
        return cls(
            SubchannelParams(m_L0, alpha * m_L0, var_00, var_10),
            SubchannelParams(m_L1, alpha * m_L1, gamma * var_00, gamma * var_10),
        )


def check_sigma_w(sigma_w) -> float:
    """The channel noise level sigma_w (standard deviation, V) as a float,
    with -0.0 read as 0.0.  Raises ConfigError unless it is finite, >= 0
    and has a finite square (the sampler adds sigma_w^2 to every level)."""
    _require_finite("sigma_w", sigma_w)
    if not sigma_w >= 0.0:
        raise ConfigError(f"sigma_w >= 0 required, got {sigma_w!r}")
    if not math.isfinite(sigma_w * sigma_w):
        raise ConfigError(f"sigma_w^2 must be finite, got sigma_w={sigma_w!r}")
    return float(sigma_w) + 0.0  # -0.0 + 0.0 is 0.0


def derive_subchannels(config: SchemeConfig) -> tuple[SubchannelParams, ...]:
    """The configuration's subchannels, in field order (sub0, sub1)."""
    return tuple(getattr(config, f.name) for f in fields(config))


# Default operating point (volts / volts^2): the reference parameter set
# used throughout the tests and as CLI fallback when no config is given.
DEFAULT_SCHEME = SchemeConfig.derived(
    m_L0=1e-3, alpha=20.0, beta=5.0, var_00=1e-10, eta=5.0, gamma=20.0
)
DEFAULT_SIGMA_W = 2e-5
DEFAULT_SAMPLES_PER_SYMBOL = 100

_SCALAR_KEYS = ("m_L0", "alpha", "beta", "var_00", "eta", "gamma")
_TOP_KEYS = {*_SCALAR_KEYS, "sigma_w", "samples_per_symbol", "explicit"}
_SUB_KEYS = tuple(f.name for f in fields(SubchannelParams))


def _number(value, label) -> float:
    """A JSON number as float; booleans (an int subclass) and strings are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{label} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer literal beyond the float range
        raise ConfigError(f"{label} must be finite, got an integer beyond float range") from None


def _parse_sub(block, label) -> SubchannelParams:
    if not isinstance(block, dict):
        raise ConfigError(f"explicit.{label} must be an object")
    unknown = set(block).difference(_SUB_KEYS)
    if unknown:
        raise ConfigError(f"unknown keys in explicit.{label}: {', '.join(sorted(unknown))}")
    missing = set(_SUB_KEYS).difference(block)
    if missing:
        raise ConfigError(f"explicit.{label} missing keys: {', '.join(sorted(missing))}")
    return SubchannelParams(**{
        key: _number(block[key], f"explicit.{label}.{key}") for key in _SUB_KEYS
    })


def load_config(path) -> tuple[SchemeConfig, float, int]:
    """Load a JSON config file.

    Returns (scheme config, sigma_w, samples per symbol).  The file
    either carries the six scale factors or an `explicit` block with every
    subchannel, and both load to the same config; `sigma_w` and
    `samples_per_symbol` are optional and fall back to the defaults above.
    Every error is a ConfigError whose message starts with the path.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ConfigError("top level must be an object")
        unknown = set(raw) - _TOP_KEYS
        if unknown:
            raise ConfigError(f"unknown keys: {', '.join(sorted(unknown))}")
        if "explicit" in raw:
            present = [k for k in _SCALAR_KEYS if k in raw]
            if present:
                raise ConfigError(
                    f"explicit block conflicts with scalar keys: {', '.join(present)}"
                )
            block, names = raw["explicit"], [f.name for f in fields(SchemeConfig)]
            if not isinstance(block, dict) or set(block) != set(names):
                raise ConfigError(f"explicit must contain exactly {' and '.join(names)}")
            scheme = SchemeConfig(*(_parse_sub(block[name], name) for name in names))
        else:
            missing = [k for k in _SCALAR_KEYS if k not in raw]
            if missing:
                raise ConfigError(f"missing keys: {', '.join(missing)}")
            scheme = SchemeConfig.derived(*(_number(raw[k], k) for k in _SCALAR_KEYS))
        sigma_w = check_sigma_w(_number(raw.get("sigma_w", DEFAULT_SIGMA_W), "sigma_w"))
        n = raw.get("samples_per_symbol", DEFAULT_SAMPLES_PER_SYMBOL)
        if not isinstance(n, int) or isinstance(n, bool) or n < 2:
            raise ConfigError(f"samples_per_symbol must be an integer >= 2, got {n!r}")
        return scheme, sigma_w, n
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise ConfigError(f"{path}: not valid JSON ({e})") from e
    except ConfigError as e:  # every message names the file once
        raise ConfigError(f"{path}: {e}") from None
