"""Configuration validation and composite level-set tests."""

import dataclasses
import json
import math
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noisemod import (
    ConfigError,
    DEFAULT_SCHEME,
    DegenerateLevelsError,
    Scheme,
    SchemeConfig,
    SubchannelParams,
    check_sigma_w,
    derive_subchannels,
    load_config,
    threshold_bank,
)
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def oracle_constants(sub0, sub1):
    """Independent sum/sort/midpoint reference for the composite bank at sigma_w = 0."""
    means = [
        sub0.m_L + sub1.m_L,
        sub0.m_H + sub1.m_L,
        sub0.m_L + sub1.m_H,
        sub0.m_H + sub1.m_H,
    ]
    variances = sorted([
        sub0.var_0 + sub1.var_0,
        sub0.var_1 + sub1.var_0,
        sub0.var_0 + sub1.var_1,
        sub0.var_1 + sub1.var_1,
    ])
    mids = lambda xs: [(a + b) / 2.0 for a, b in zip(xs, xs[1:])]  # noqa: E731
    return means, variances, mids(means), mids(variances)


class TestDeriveSubchannels:
    def test_reference_values(self):
        sub0, sub1 = derive_subchannels(DEFAULT_SCHEME)
        assert (sub0.m_L, sub0.m_H, sub0.var_0, sub0.var_1) == (1e-3, 2e-2, 1e-10, 5e-10)
        assert (sub1.m_L, sub1.m_H, sub1.var_0, sub1.var_1) == (5e-3, 1e-1, 2e-9, 1e-8)

    def test_small_integer_arithmetic(self):
        cfg = SchemeConfig.derived(m_L0=1.0, alpha=2.0, beta=1.5, var_00=1.0, eta=2.0, gamma=4.0)
        sub0, sub1 = derive_subchannels(cfg)
        assert (sub0.m_L, sub0.m_H, sub0.var_0, sub0.var_1) == (1.0, 2.0, 1.0, 2.0)
        assert (sub1.m_L, sub1.m_H, sub1.var_0, sub1.var_1) == (1.5, 3.0, 4.0, 8.0)

    def test_explicit_mode_passthrough(self):
        sub0 = SubchannelParams(1.0, 2.0, 1.0, 2.0)
        sub1 = SubchannelParams(0.5, 3.0, 4.0, 8.0)
        got0, got1 = derive_subchannels(SchemeConfig(sub0, sub1))
        assert got0 is sub0 and got1 is sub1

    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            (dict(alpha=0.5), "alpha"),
            (dict(beta=1.0), "beta"),
            (dict(alpha=4.0, beta=5.0), "alpha > beta"),
            (dict(eta=0.9), "eta"),
            (dict(gamma=1.0), "gamma"),
            (dict(gamma=5.0, eta=6.0), "gamma > eta"),
            (dict(m_L0=0.0), "m_L0"),
            (dict(var_00=-1e-10), "var_00"),
        ],
    )
    def test_invalid_configs_name_the_constraint(self, kwargs, fragment):
        base = dict(m_L0=1e-3, alpha=20.0, beta=5.0, var_00=1e-10, eta=5.0, gamma=20.0)
        base.update(kwargs)
        with pytest.raises(ConfigError, match=fragment):
            SchemeConfig.derived(**base)

    def test_subchannel_invariants(self):
        with pytest.raises(ConfigError, match="m_L < m_H"):
            SubchannelParams(2.0, 1.0, 1.0, 2.0)
        with pytest.raises(ConfigError, match="var_0 < var_1"):
            SubchannelParams(1.0, 2.0, 2.0, 2.0)
        with pytest.raises(ConfigError, match="var_0"):
            SubchannelParams(1.0, 2.0, 0.0, 2.0)

    @pytest.mark.parametrize("field", ["m_L", "m_H", "var_0", "var_1"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_subchannel_values_rejected(self, field, value):
        values = dict(m_L=1.0, m_H=2.0, var_0=1.0, var_1=2.0)
        values[field] = value
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            SubchannelParams(**values)

    @pytest.mark.parametrize("name", ["m_L0", "alpha", "beta", "var_00", "eta", "gamma"])
    def test_non_finite_derived_scalars_rejected(self, name):
        base = dict(m_L0=1e-3, alpha=20.0, beta=5.0, var_00=1e-10, eta=5.0, gamma=20.0)
        base[name] = math.inf
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            SchemeConfig.derived(**base)

    def test_explicit_mode_requires_both_subchannels(self):
        sub0 = SubchannelParams(1, 2, 1, 2)
        with pytest.raises(TypeError, match="sub1"):
            SchemeConfig(sub0)
        with pytest.raises(ConfigError, match="sub0 and sub1"):
            SchemeConfig(sub0, None)


class TestDeriveConstants:
    def test_reference_values_match_oracle_exactly(self, canonical_subs):
        sub0, sub1 = canonical_subs
        got = threshold_bank(Scheme.CGQNM, sub0, sub1)
        means, variances, mth, vth = oracle_constants(sub0, sub1)
        assert list(got.means) == means
        assert list(got.variances) == variances
        assert list(got.mean_thresholds) == mth
        assert list(got.effective_var_thresholds) == vth

    def test_reference_values_match_decimal_literals(self, canonical_subs):
        got = threshold_bank(Scheme.CGQNM, *canonical_subs)
        # decimal parsing differs from the float sums by at most 1 ulp
        np.testing.assert_allclose(got.means, [6e-3, 2.5e-2, 1.01e-1, 1.2e-1], rtol=5e-16)
        np.testing.assert_allclose(got.variances, [2.1e-9, 2.5e-9, 1.01e-8, 1.05e-8], rtol=5e-16)
        np.testing.assert_allclose(got.mean_thresholds, [1.55e-2, 6.3e-2, 1.105e-1], rtol=5e-16)
        np.testing.assert_allclose(got.effective_var_thresholds, [2.3e-9, 6.3e-9, 1.03e-8],
                                   rtol=5e-16)

    def test_symmetric_subchannels_are_degenerate(self):
        sub = SubchannelParams(1.0, 2.0, 1.0, 2.0)
        with pytest.raises(DegenerateLevelsError, match="mean"):
            threshold_bank(Scheme.CGQNM, sub, sub)

    def test_hand_arithmetic(self):
        sub0 = SubchannelParams(0.0, 1.0, 1.0, 2.0)
        sub1 = SubchannelParams(0.0, 2.0, 3.0, 7.0)
        got = threshold_bank(Scheme.CGQNM, sub0, sub1)
        assert got.means == (0.0, 1.0, 2.0, 3.0)
        assert got.variances == (4.0, 5.0, 8.0, 9.0)
        assert got.mean_thresholds == (0.5, 1.5, 2.5)
        assert got.effective_var_thresholds == (4.5, 6.5, 8.5)

    def test_out_of_order_means_rejected(self):
        # subchannel-0 swing larger than subchannel-1's: level order breaks
        sub0 = SubchannelParams(0.0, 10.0, 1.0, 2.0)
        sub1 = SubchannelParams(0.0, 1.0, 3.0, 7.0)
        with pytest.raises(DegenerateLevelsError, match="order"):
            threshold_bank(Scheme.CGQNM, sub0, sub1)

    def test_out_of_order_variances_rejected(self):
        # subchannel-0 variance swing larger than subchannel-1's: the sums
        # leave level order, and the detector's region-to-bit map with them
        sub0 = SubchannelParams(1e-3, 2e-2, 1e-10, 30e-10)
        sub1 = SubchannelParams(5e-2, 1e-1, 10e-10, 20e-10)
        with pytest.raises(DegenerateLevelsError, match="variances out of level order"):
            threshold_bank(Scheme.CGQNM, sub0, sub1)

    def test_coincident_variances_rejected(self):
        sub0 = SubchannelParams(0.0, 1.0, 1.0, 2.0)
        sub1 = SubchannelParams(0.0, 3.0, 2.0, 3.0)
        with pytest.raises(DegenerateLevelsError, match="variance"):
            threshold_bank(Scheme.CGQNM, sub0, sub1)

    def test_pure_function(self, canonical_subs):
        a = threshold_bank(Scheme.CGQNM, *canonical_subs)
        b = threshold_bank(Scheme.CGQNM, *canonical_subs)
        assert a == b


def _random_valid_config(rng):
    """Random valid scale factors and the config derived from them."""
    m_L0 = 10.0 ** rng.uniform(-4, 0)
    var_00 = 10.0 ** rng.uniform(-12, 0)
    beta = rng.uniform(1.05, 10.0)
    alpha = beta * rng.uniform(1.05, 10.0)
    eta = rng.uniform(1.05, 10.0)
    gamma = eta * rng.uniform(1.05, 10.0)
    scalars = dict(m_L0=m_L0, alpha=alpha, beta=beta, var_00=var_00, eta=eta, gamma=gamma)
    return scalars, SchemeConfig.derived(**scalars)


class TestDerivedModeProperties:
    def test_levels_increase_and_identities_hold(self):
        rng = np.random.default_rng(8112026)
        for _ in range(300):
            s, cfg = _random_valid_config(rng)
            got = threshold_bank(Scheme.CGQNM, *derive_subchannels(cfg))
            assert all(b > a for a, b in zip(got.means, got.means[1:]))
            assert all(b > a for a, b in zip(got.variances, got.variances[1:]))
            m1, m2, m3, m4 = got.means
            np.testing.assert_allclose(m2 - m1, m4 - m3, rtol=1e-9)
            np.testing.assert_allclose(m2 - m1, (s["alpha"] - 1) * s["m_L0"], rtol=1e-9)
            np.testing.assert_allclose(
                m3 - m2, (s["alpha"] - 1) * (s["beta"] - 1) * s["m_L0"], rtol=1e-9
            )

    def test_thresholds_strictly_between_levels(self):
        rng = np.random.default_rng(20260811)
        for _ in range(300):
            got = threshold_bank(Scheme.CGQNM, *derive_subchannels(_random_valid_config(rng)[1]))
            for levels, thresholds in (
                (got.means, got.mean_thresholds),
                (got.variances, got.effective_var_thresholds),
            ):
                for lo, hi, th in zip(levels, levels[1:], thresholds):
                    assert lo < th < hi


class TestCheckSigmaW:
    def test_zero_noise_allowed(self):
        assert check_sigma_w(0.0) == 0.0

    def test_negative_noise_rejected(self):
        with pytest.raises(ConfigError, match="sigma_w"):
            check_sigma_w(-1e-6)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_noise_rejected(self, value):
        with pytest.raises(ConfigError, match="sigma_w must be finite"):
            check_sigma_w(value)

    @pytest.mark.parametrize("value", [1e155, 1e200, 1.7e308])
    def test_overflowing_noise_power_rejected(self, value):
        # the sampler adds sigma_w^2 to every level, so an infinite square
        # would flatten every level into one
        with pytest.raises(ConfigError, match=r"sigma_w\^2 must be finite"):
            check_sigma_w(value)

    def test_largest_finite_noise_power_allowed(self):
        assert check_sigma_w(1e154) == 1e154


class TestLoadConfig:
    def test_derived_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "m_L0": 1e-3, "alpha": 20, "beta": 5, "var_00": 1e-10,
            "eta": 5, "gamma": 20, "sigma_w": 2e-5, "samples_per_symbol": 100,
        }))
        scheme, sigma_w, n = load_config(path)
        assert scheme == DEFAULT_SCHEME
        assert sigma_w == 2e-5
        assert n == 100

    def test_defaults_for_optional_keys(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "m_L0": 1e-3, "alpha": 20, "beta": 5, "var_00": 1e-10, "eta": 5, "gamma": 20,
        }))
        _, sigma_w, n = load_config(path)
        assert sigma_w == 2e-5
        assert n == 100

    def test_explicit_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "sigma_w": 0.0,
            "explicit": {
                "sub0": {"m_L": 1e-3, "m_H": 2e-2, "var_0": 1e-10, "var_1": 2e-10},
                "sub1": {"m_L": 5e-3, "m_H": 1e-1, "var_0": 5e-10, "var_1": 1e-8},
            },
        }))
        scheme, sigma_w, _ = load_config(path)
        assert scheme.sub1.var_1 == 1e-8
        assert sigma_w == 0.0

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"m_L0": 1e-3, "alhpa": 20}))
        with pytest.raises(ConfigError, match="alhpa"):
            load_config(path)

    def test_missing_scalars_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"m_L0": 1e-3}))
        with pytest.raises(ConfigError, match="alpha"):
            load_config(path)

    def test_explicit_conflicts_with_scalars(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "alpha": 20,
            "explicit": {
                "sub0": {"m_L": 1e-3, "m_H": 2e-2, "var_0": 1e-10, "var_1": 2e-10},
                "sub1": {"m_L": 5e-3, "m_H": 1e-1, "var_0": 5e-10, "var_1": 1e-8},
            },
        }))
        with pytest.raises(ConfigError, match="conflicts"):
            load_config(path)

    def test_bad_samples_per_symbol(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "m_L0": 1e-3, "alpha": 20, "beta": 5, "var_00": 1e-10,
            "eta": 5, "gamma": 20, "samples_per_symbol": 1,
        }))
        with pytest.raises(ConfigError, match="samples_per_symbol"):
            load_config(path)

    def test_infinite_explicit_level_rejected(self, tmp_path):
        # json reads the bare token Infinity as float("inf")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "explicit": {
                "sub0": {"m_L": 1e-3, "m_H": math.inf, "var_0": 1e-10, "var_1": 2e-10},
                "sub1": {"m_L": 5e-3, "m_H": 1e-1, "var_0": 5e-10, "var_1": 1e-8},
            },
        }))
        assert "Infinity" in path.read_text()
        with pytest.raises(ConfigError, match="m_H must be finite"):
            load_config(path)

    @pytest.mark.parametrize("key, value", [
        ("m_L0", True), ("gamma", False), ("sigma_w", True), ("alpha", "20"), ("beta", None),
    ])
    def test_non_number_scalars_rejected(self, tmp_path, key, value):
        raw = {"m_L0": 1e-3, "alpha": 20, "beta": 5, "var_00": 1e-10, "eta": 5, "gamma": 20}
        raw[key] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match=f"{key} must be a number"):
            load_config(path)

    def test_integer_beyond_float_range_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            '{"m_L0": 1' + "0" * 400 + ', "alpha": 20, "beta": 5, "var_00": 1e-10, '
            '"eta": 5, "gamma": 20}'
        )
        with pytest.raises(ConfigError, match="m_L0 must be finite"):
            load_config(path)

    def test_boolean_explicit_value_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "explicit": {
                "sub0": {"m_L": 1e-3, "m_H": 2e-2, "var_0": 1e-10, "var_1": True},
                "sub1": {"m_L": 5e-3, "m_H": 1e-1, "var_0": 5e-10, "var_1": 1e-8},
            },
        }))
        with pytest.raises(ConfigError, match="explicit.sub0.var_1 must be a number"):
            load_config(path)

    @pytest.mark.parametrize("raw", [
        {"m_L0": True, "alpha": 20, "beta": 5, "var_00": 1e-10, "eta": 5, "gamma": 20},
        {"explicit": {
            "sub0": {"m_L": 1e-3, "m_H": math.inf, "var_0": 1e-10, "var_1": 2e-10},
            "sub1": {"m_L": 5e-3, "m_H": 1e-1, "var_0": 5e-10, "var_1": 1e-8},
        }},
    ], ids=["boolean", "infinite"])
    def test_bad_values_exit_one_through_cli(self, tmp_path, capsys, raw):
        from noisemod.cli import main

        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        code = main(["simulate", "--scheme", "gqnm", "--min-bits", "1000", "--config", str(path)])
        assert code == 1
        assert capsys.readouterr().out == ""

    def test_shipped_configs_parse(self):
        scheme, sigma_w, n = load_config(REPO_ROOT / "configs" / "canonical.json")
        assert scheme == DEFAULT_SCHEME and n == 100
        scheme, sigma_w, n = load_config(REPO_ROOT / "configs" / "paper_literal.json")
        assert scheme == SchemeConfig(
            SubchannelParams(1e-3, 2e-2, 1e-10, 1.99996164e-10),
            SubchannelParams(5e-3, 1e-1, 5.000143210000001e-10, 1e-8),
        )
        assert sigma_w == 2e-5


@st.composite
def derived_scalars(draw):
    """Valid scale factors, each ratio at least 1.05 so no composite level coincides."""
    factor = st.floats(1.05, 10.0)
    beta, eta = draw(factor), draw(factor)
    return dict(
        m_L0=10.0 ** draw(st.floats(-4.0, 0.0)),
        alpha=beta * draw(factor),
        beta=beta,
        var_00=10.0 ** draw(st.floats(-12.0, -6.0)),
        eta=eta,
        gamma=eta * draw(factor),
    )


class TestConfigContract:
    @settings(derandomize=True, database=None, max_examples=25, deadline=None)
    @given(scalars=derived_scalars())
    def test_derived_file_and_explicit_twin_are_one_config(self, scalars):
        """A scalar file and the explicit block it derives load equal and run identical cells."""
        from noisemod.cli import main

        subs = derive_subchannels(SchemeConfig.derived(**scalars))
        twin = {"explicit": {
            name: dataclasses.asdict(sub) for name, sub in zip(("sub0", "sub1"), subs)
        }}
        schemes, csvs = [], []
        with tempfile.TemporaryDirectory() as tmp:
            for name, raw in (("derived", scalars), ("explicit", twin)):
                path, out = f"{tmp}/{name}.json", f"{tmp}/{name}.csv"
                with open(path, "w") as fh:
                    json.dump(raw, fh)
                schemes.append(load_config(path)[0])
                argv = ["simulate", "--scheme", "cgqnm", "--n", "8", "--min-bits", "1000",
                        "--config", path, "--out", out]
                assert main(argv) == 0
                with open(out, "rb") as fh:
                    csvs.append(fh.read())
        assert schemes[0] == schemes[1] == SchemeConfig(*subs)
        assert csvs[0] == csvs[1]
