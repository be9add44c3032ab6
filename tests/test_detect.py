"""Estimator and threshold-detector tests, including round trips."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noisemod import (
    ConfigError,
    DegenerateLevelsError,
    NoiseSource,
    Scheme,
    SymbolBits,
    ThresholdBank,
    ThresholdMode,
    detect_bits,
    detect_symbol,
    estimate,
    modulate,
    scheme_table,
    select_state,
    threshold_bank,
)
from test_analysis import explicit_configs


def detect_mean_bits(mean_hat, bank):
    """(b00, b01): the composite mean bits of a one-row detection."""
    b00, _, b01, _ = detect_bits(mean_hat, 0.0, bank)
    return b00, b01


def detect_var_bits(var_hat, bank):
    """(b10, b11): the composite variance bits of a one-row detection."""
    _, b10, _, b11 = detect_bits(0.0, var_hat, bank)
    return b10, b11


class TestEstimate:
    def test_hand_arithmetic(self):
        est = estimate([1.0, 2.0, 3.0])
        assert est.mean_hat == 2.0
        assert est.var_hat == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_two_samples(self):
        est = estimate([0.0, 2.0])
        assert est == type(est)(1.0, 1.0)

    def test_constant_block(self):
        est = estimate([7.0] * 64)
        assert est.mean_hat == 7.0 and est.var_hat == 0.0

    def test_single_sample_rejected(self):
        with pytest.raises(ValueError, match="at least 2 samples"):
            estimate([1.0])


@pytest.fixture
def cg_bank(canonical_subs):
    return threshold_bank(Scheme.CGQNM, *canonical_subs, sigma_w=0.0)


class TestMeanBits:
    def test_region_two(self, cg_bank):
        assert detect_mean_bits(5e-2, cg_bank) == (1, 0)

    def test_above_all(self, cg_bank):
        assert detect_mean_bits(0.2, cg_bank) == (1, 1)

    def test_below_all(self, cg_bank):
        assert detect_mean_bits(-10.0, cg_bank) == (0, 0)

    def test_tie_goes_to_upper_region(self, cg_bank):
        assert detect_mean_bits(cg_bank.mean_thresholds[0], cg_bank) == (1, 0)
        assert detect_mean_bits(cg_bank.mean_thresholds[2], cg_bank) == (1, 1)

    def test_region_changes_exactly_three_times(self, cg_bank):
        grid = np.linspace(-0.01, 0.2, 20_001)
        regions = [detect_mean_bits(v, cg_bank) for v in grid]
        changes = sum(a != b for a, b in zip(regions, regions[1:]))
        assert changes == 3

    def test_gqnm_bank_gives_one_mean_bit(self, canonical_subs):
        # the bank's table, not the caller, fixes how many bits come back
        sub0 = canonical_subs[0]
        bank = threshold_bank(Scheme.GQNM, sub0)
        assert detect_bits(sub0.m_H, 0.0, bank) == (1, 0)
        assert detect_bits(sub0.m_L, sub0.var_1, bank) == (0, 1)


class TestVarBits:
    def test_region_two(self, cg_bank):
        assert detect_var_bits(5e-9, cg_bank) == (1, 0)

    def test_zero_variance(self, cg_bank):
        assert detect_var_bits(0.0, cg_bank) == (0, 0)

    def test_above_all(self, cg_bank):
        assert detect_var_bits(2e-8, cg_bank) == (1, 1)

    def test_noise_adjusted_shift(self, canonical_subs):
        plain = threshold_bank(
            Scheme.CGQNM, *canonical_subs, mode=ThresholdMode.MIDPOINT, sigma_w=2e-5
        )
        shifted = threshold_bank(
            Scheme.CGQNM, *canonical_subs, mode=ThresholdMode.NOISE_ADJUSTED, sigma_w=2e-5
        )
        # between the base threshold (2.3e-9) and the shifted one (2.7e-9)
        assert detect_var_bits(2.4e-9, plain) == (1, 0)
        assert detect_var_bits(2.4e-9, shifted) == (0, 0)


class TestBankNoise:
    @pytest.mark.parametrize("sigma_w", [-2e-5, float("nan"), float("inf"), 1e200])
    def test_bad_sigma_w_rejected(self, canonical_subs, sigma_w):
        # the bank is the BEP engine's only noise input, so it checks sigma_w
        # as ChannelConfig does: finite, >= 0 and of finite square
        with pytest.raises(ConfigError, match="sigma_w"):
            threshold_bank(Scheme.KLJN, canonical_subs[0], sigma_w=sigma_w)
        bank = threshold_bank(Scheme.KLJN, canonical_subs[0])
        with pytest.raises(ConfigError, match="sigma_w"):  # a bank built by hand too
            ThresholdBank(bank.table, bank.mean_thresholds, bank.effective_var_thresholds,
                          sigma_w)

    @pytest.mark.parametrize("sigma_w, thresholds", [(0.0, (3e-10,)),
                                                     (2e-5, (7.000000000000001e-10,))])
    def test_valid_sigma_w_kept(self, canonical_subs, sigma_w, thresholds):
        bank = threshold_bank(Scheme.KLJN, canonical_subs[0], sigma_w=sigma_w)
        assert bank.effective_var_thresholds == thresholds
        assert bank.sigma_w == sigma_w


class TestDetectSymbol:
    def test_composite_round_trip_single_state(self, canonical_subs, cg_bank):
        # state (third mean level, second variance level) <-> bits (0,1,1,0)
        bits = SymbolBits(Scheme.CGQNM, (0, 1, 1, 0))
        state = select_state(bits, *canonical_subs)
        block = modulate(state, 10_000, NoiseSource(31))
        assert detect_symbol(block, cg_bank) == bits

    def test_kljn_constant_block(self, canonical_subs):
        bank = threshold_bank(Scheme.KLJN, canonical_subs[0])
        block = np.zeros(100)
        assert detect_symbol(block, bank).bits == (0,)

    def test_gqnm_mean_high_var_zero(self, canonical_subs):
        sub0 = canonical_subs[0]
        bank = threshold_bank(Scheme.GQNM, sub0)
        block = np.full(100, sub0.m_H)
        assert detect_symbol(block, bank).bits == (1, 0)

    def test_exact_recovery_from_true_moments(self, canonical_subs, cg_bank):
        for pattern in itertools.product((0, 1), repeat=4):
            bits = SymbolBits(Scheme.CGQNM, pattern)
            mean, var = select_state(bits, *canonical_subs)
            b00, b01 = detect_mean_bits(mean, cg_bank)
            b10, b11 = detect_var_bits(var, cg_bank)
            assert (b00, b10, b01, b11) == pattern

    def test_round_trip_all_patterns_large_blocks(self, canonical_subs, cg_bank):
        # noiseless channel, blocks long enough that symbol errors are ~1e-5
        rng = NoiseSource(33)
        blocks_per_pattern = 100
        n = 100_000
        errors = 0
        total = 0
        for pattern in itertools.product((0, 1), repeat=4):
            bits = SymbolBits(Scheme.CGQNM, pattern)
            state = select_state(bits, *canonical_subs)
            for _ in range(blocks_per_pattern):
                block = modulate(state, n, rng)
                errors += detect_symbol(block, cg_bank) != bits
                total += 1
        assert errors / total <= 1e-3

    def test_estimator_statistics(self, canonical_subs):
        # mean/variance of the block estimators over many blocks
        m_f, var_f = 6e-3, 2.1e-9
        n, reps = 100, 10_000
        gen = NoiseSource(34).generator
        x = m_f + np.sqrt(var_f) * gen.standard_normal((reps, n))
        mean_hats = x.mean(axis=1)
        var_hats = x.var(axis=1)
        assert abs(mean_hats.mean() - m_f) < 5.0 * np.sqrt(var_f / (n * reps))
        assert var_hats.mean() == pytest.approx((n - 1) / n * var_f, rel=1e-2)


class TestThresholdProperty:
    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(config=explicit_configs(), sigma_w=st.floats(0.0, 1e-3),
           mode=st.sampled_from(list(ThresholdMode)))
    def test_thresholds_are_the_midpoints_plus_noise(self, config, sigma_w, mode):
        """Mean thresholds are the table's midpoints; noise-adjusted variance
        thresholds are the midpoints plus sigma_w^2 (when that is > 0)."""
        for scheme in Scheme:
            try:
                table = scheme_table(scheme, config.sub0, config.sub1)
            except DegenerateLevelsError:
                continue
            bank = threshold_bank(scheme, config.sub0, config.sub1, mode=mode, sigma_w=sigma_w)
            assert bank.table == table
            assert bank.mean_thresholds == table.mean_thresholds
            shift = sigma_w * sigma_w
            if mode is ThresholdMode.NOISE_ADJUSTED and shift > 0.0:
                expected = tuple(t + shift for t in table.var_thresholds)
            else:
                expected = table.var_thresholds
            assert bank.effective_var_thresholds == expected
