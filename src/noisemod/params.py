"""Scheme configuration and the subchannels derived from it.

A composite modulator is parameterized either by six scale factors
(derived mode) or by explicit per-subchannel values (explicit mode).
Derived mode applies the scaling rules

    m_H0 = alpha * m_L0        var_10 = eta * var_00
    m_L1 = beta * m_L0         var_01 = gamma * var_00
    m_H1 = alpha * m_L1        var_11 = gamma * var_10

and everything downstream (level sets, detector thresholds; see
modem.scheme_table) is computed from the resulting two subchannels.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum


class ConfigError(ValueError):
    """A configuration value violates one of its constraints."""


class DegenerateLevelsError(ValueError):
    """Composite levels coincide or are out of order; thresholds undefined."""


def _require_finite(name, value):
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")


class Mode(Enum):
    DERIVED = "derived"
    EXPLICIT = "explicit"


@dataclass(frozen=True)
class SubchannelParams:
    """Bias voltages (V) and noise variances (V^2) of one subchannel."""

    m_L: float
    m_H: float
    var_0: float
    var_1: float

    def __post_init__(self):
        for name in ("m_L", "m_H", "var_0", "var_1"):
            _require_finite(name, getattr(self, name))
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
    """Free parameters of the composite scheme, in one of two modes.

    Derived mode uses the six scalars; explicit mode carries both
    subchannel parameter sets verbatim (useful when the desired values do
    not follow the scaling rules).
    """

    mode: Mode = Mode.DERIVED
    m_L0: float | None = None
    alpha: float | None = None
    beta: float | None = None
    var_00: float | None = None
    eta: float | None = None
    gamma: float | None = None
    explicit_sub0: SubchannelParams | None = None
    explicit_sub1: SubchannelParams | None = None

    def __post_init__(self):
        if self.mode is Mode.DERIVED:
            self._validate_derived()
        else:
            if self.explicit_sub0 is None or self.explicit_sub1 is None:
                raise ConfigError("explicit mode requires both explicit_sub0 and explicit_sub1")

    def _validate_derived(self):
        scalars = {
            "m_L0": self.m_L0,
            "alpha": self.alpha,
            "beta": self.beta,
            "var_00": self.var_00,
            "eta": self.eta,
            "gamma": self.gamma,
        }
        missing = [k for k, v in scalars.items() if v is None]
        if missing:
            raise ConfigError(f"derived mode requires {', '.join(missing)}")
        for name, value, bound in (
            ("m_L0", self.m_L0, 0.0),
            ("var_00", self.var_00, 0.0),
            ("alpha", self.alpha, 1.0),
            ("beta", self.beta, 1.0),
            ("eta", self.eta, 1.0),
            ("gamma", self.gamma, 1.0),
        ):
            _require_finite(name, value)
            if not value > bound:
                raise ConfigError(f"{name} > {bound:g} required, got {value!r}")
        if not self.alpha > self.beta:
            raise ConfigError(f"alpha > beta required, got alpha={self.alpha!r}, beta={self.beta!r}")
        if not self.gamma > self.eta:
            raise ConfigError(f"gamma > eta required, got gamma={self.gamma!r}, eta={self.eta!r}")

    @classmethod
    def derived(cls, m_L0, alpha, beta, var_00, eta, gamma) -> "SchemeConfig":
        return cls(
            mode=Mode.DERIVED,
            m_L0=float(m_L0),
            alpha=float(alpha),
            beta=float(beta),
            var_00=float(var_00),
            eta=float(eta),
            gamma=float(gamma),
        )

    @classmethod
    def explicit(cls, sub0: SubchannelParams, sub1: SubchannelParams) -> "SchemeConfig":
        return cls(mode=Mode.EXPLICIT, explicit_sub0=sub0, explicit_sub1=sub1)


@dataclass(frozen=True)
class ChannelConfig:
    """Additive channel noise level (standard deviation, V)."""

    sigma_w: float

    def __post_init__(self):
        _require_finite("sigma_w", self.sigma_w)
        if not self.sigma_w >= 0.0:
            raise ConfigError(f"sigma_w >= 0 required, got {self.sigma_w!r}")


def derive_subchannels(config: SchemeConfig) -> tuple[SubchannelParams, SubchannelParams]:
    """Expand a configuration into its two subchannel parameter sets."""
    if config.mode is Mode.EXPLICIT:
        return config.explicit_sub0, config.explicit_sub1
    m_L0, var_00 = config.m_L0, config.var_00
    m_L1 = config.beta * m_L0
    var_10 = config.eta * var_00
    sub0 = SubchannelParams(m_L0, config.alpha * m_L0, var_00, var_10)
    sub1 = SubchannelParams(m_L1, config.alpha * m_L1, config.gamma * var_00, config.gamma * var_10)
    return sub0, sub1


# Default operating point (volts / volts^2): the reference parameter set
# used throughout the tests and as CLI fallback when no config is given.
DEFAULT_SCHEME = SchemeConfig.derived(
    m_L0=1e-3, alpha=20.0, beta=5.0, var_00=1e-10, eta=5.0, gamma=20.0
)
DEFAULT_CHANNEL = ChannelConfig(sigma_w=2e-5)
DEFAULT_SAMPLES_PER_SYMBOL = 100

_TOP_KEYS = {
    "m_L0", "alpha", "beta", "var_00", "eta", "gamma",
    "sigma_w", "samples_per_symbol", "explicit",
}
_SUB_KEYS = {"m_L", "m_H", "var_0", "var_1"}
_SCALAR_KEYS = ("m_L0", "alpha", "beta", "var_00", "eta", "gamma")


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
    unknown = set(block) - _SUB_KEYS
    if unknown:
        raise ConfigError(f"unknown keys in explicit.{label}: {', '.join(sorted(unknown))}")
    missing = _SUB_KEYS - set(block)
    if missing:
        raise ConfigError(f"explicit.{label} missing keys: {', '.join(sorted(missing))}")
    return SubchannelParams(**{
        key: _number(block[key], f"explicit.{label}.{key}") for key in _SUB_KEYS
    })


def load_config(path) -> tuple[SchemeConfig, ChannelConfig, int]:
    """Load a JSON config file.

    Returns (scheme config, channel config, samples per symbol).  The file
    either carries the six derived-mode scalars or an `explicit` block with
    both subchannels; `sigma_w` and `samples_per_symbol` are optional and
    fall back to the defaults above.
    """
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: not valid JSON ({e})") from e
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"{path}: unknown keys: {', '.join(sorted(unknown))}")
    if "explicit" in raw:
        present = [k for k in _SCALAR_KEYS if k in raw]
        if present:
            raise ConfigError(
                f"{path}: explicit block conflicts with scalar keys: {', '.join(present)}"
            )
        block = raw["explicit"]
        if not isinstance(block, dict) or set(block) != {"sub0", "sub1"}:
            raise ConfigError(f"{path}: explicit must contain exactly sub0 and sub1")
        scheme = SchemeConfig.explicit(
            _parse_sub(block["sub0"], "sub0"), _parse_sub(block["sub1"], "sub1")
        )
    else:
        missing = [k for k in _SCALAR_KEYS if k not in raw]
        if missing:
            raise ConfigError(f"{path}: missing keys: {', '.join(missing)}")
        scheme = SchemeConfig.derived(*(_number(raw[k], f"{path}: {k}") for k in _SCALAR_KEYS))
    sigma_w = raw.get("sigma_w", DEFAULT_CHANNEL.sigma_w)
    channel = ChannelConfig(_number(sigma_w, f"{path}: sigma_w"))
    n = raw.get("samples_per_symbol", DEFAULT_SAMPLES_PER_SYMBOL)
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise ConfigError(f"{path}: samples_per_symbol must be an integer >= 2, got {n!r}")
    return scheme, channel, n
