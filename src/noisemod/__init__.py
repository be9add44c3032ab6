"""Noise-modulation link simulation.

Three schemes share one link model: bits pick a Gaussian (mean, variance)
state, a symbol is a block of samples from that state plus channel noise,
and midpoint threshold detectors on the block's sample mean/variance
recover the bits.  The modem module holds each scheme's bit layout and
its receiver, a ThresholdBank of level sets and detector thresholds; the
harness module's run_point draws the blocks' sufficient statistics and
counts the bit errors.  KLJN carries
1 bit on the variance, GQNM 2 bits on (mean, variance), and the composite
scheme sums two GQNM outputs for 4 bits over 4x4 levels.
"""

from .analysis import (
    DistinguishabilityReport,
    MeanConditionResult,
    SpreadFormula,
    VariancePairCheck,
    build_report,
    check_mean_condition,
    check_variance_condition,
    chi_square_moment,
    sample_variance_spread,
)
from .harness import (
    BepEstimate,
    Fairness,
    RunRecord,
    SweepResult,
    SweepSpec,
    SweepVariable,
    emit,
    run_point,
    run_sweep,
    stable_stream_id,
    wilson_interval,
)
from .modem import (
    NoiseSource,
    Scheme,
    SymbolBits,
    ThresholdBank,
    ThresholdMode,
    select_state,
    threshold_bank,
)
from .params import (
    ChannelConfig,
    ConfigError,
    DEFAULT_CHANNEL,
    DEFAULT_SAMPLES_PER_SYMBOL,
    DEFAULT_SCHEME,
    DegenerateLevelsError,
    SchemeConfig,
    SubchannelParams,
    derive_subchannels,
    load_config,
)

__version__ = "0.1.0"

__all__ = [
    "BepEstimate",
    "ChannelConfig",
    "ConfigError",
    "DEFAULT_CHANNEL",
    "DEFAULT_SAMPLES_PER_SYMBOL",
    "DEFAULT_SCHEME",
    "DegenerateLevelsError",
    "DistinguishabilityReport",
    "Fairness",
    "MeanConditionResult",
    "NoiseSource",
    "RunRecord",
    "Scheme",
    "SchemeConfig",
    "SpreadFormula",
    "SubchannelParams",
    "SweepResult",
    "SweepSpec",
    "SweepVariable",
    "SymbolBits",
    "ThresholdBank",
    "ThresholdMode",
    "VariancePairCheck",
    "build_report",
    "check_mean_condition",
    "check_variance_condition",
    "chi_square_moment",
    "derive_subchannels",
    "emit",
    "load_config",
    "run_point",
    "run_sweep",
    "sample_variance_spread",
    "select_state",
    "stable_stream_id",
    "threshold_bank",
    "wilson_interval",
]
