"""Scheme layouts, state selection and bank-building tests."""

import itertools
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings

import noisemod
from noisemod import (
    DegenerateLevelsError,
    Scheme,
    SymbolBits,
    ThresholdMode,
    select_state,
    threshold_bank,
)
from reference import detect
from test_analysis import explicit_configs


class TestSymbolBits:
    @pytest.mark.parametrize(
        "scheme, nbits", [(Scheme.KLJN, 1), (Scheme.GQNM, 2), (Scheme.CGQNM, 4)]
    )
    def test_arity(self, scheme, nbits):
        SymbolBits(scheme, (0,) * nbits)
        with pytest.raises(ValueError):
            SymbolBits(scheme, (0,) * (nbits + 1))

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            SymbolBits(Scheme.KLJN, (2,))


class TestSelectState:
    def test_composite_all_zero_bits(self, canonical_subs):
        bits = SymbolBits(Scheme.CGQNM, (0, 0, 0, 0))
        assert select_state(bits, *canonical_subs) == (6e-3, 2.1e-9)

    def test_composite_mixed_bits(self, canonical_subs):
        # (b00, b10, b01, b11) = (1, 0, 1, 1): highest mean, var_00 + var_11
        bits = SymbolBits(Scheme.CGQNM, (1, 0, 1, 1))
        mean, var = select_state(bits, *canonical_subs)
        assert mean == pytest.approx(1.2e-1, rel=1e-15)
        assert var == pytest.approx(1.01e-8, rel=1e-15)

    def test_kljn_zero_mean(self, canonical_subs):
        sub0, _ = canonical_subs
        assert select_state(SymbolBits(Scheme.KLJN, (0,)), sub0) == (0.0, 1e-10)
        assert select_state(SymbolBits(Scheme.KLJN, (1,)), sub0) == (0.0, 5e-10)

    def test_gqnm_uses_subchannel_zero(self, canonical_subs):
        sub0, _ = canonical_subs
        assert select_state(SymbolBits(Scheme.GQNM, (1, 0)), sub0) == (2e-2, 1e-10)
        assert select_state(SymbolBits(Scheme.GQNM, (0, 1)), sub0) == (1e-3, 5e-10)

    def test_composite_needs_second_subchannel(self, canonical_subs):
        with pytest.raises(ValueError):
            select_state(SymbolBits(Scheme.CGQNM, (0, 0, 0, 0)), canonical_subs[0])

    def test_sixteen_states_cover_level_grid(self, canonical_subs):
        sub0, sub1 = canonical_subs
        mean_levels = [
            sub0.m_L + sub1.m_L, sub0.m_H + sub1.m_L,
            sub0.m_L + sub1.m_H, sub0.m_H + sub1.m_H,
        ]
        var_levels = [
            sub0.var_0 + sub1.var_0, sub0.var_1 + sub1.var_0,
            sub0.var_0 + sub1.var_1, sub0.var_1 + sub1.var_1,
        ]
        seen = set()
        for pattern in itertools.product((0, 1), repeat=4):
            b00, b10, b01, b11 = pattern
            state = select_state(SymbolBits(Scheme.CGQNM, pattern), sub0, sub1)
            assert state == (mean_levels[b00 + 2 * b01], var_levels[b10 + 2 * b11])
            seen.add(state)
        assert len(seen) == 16


class TestSchemeBank:
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_bit_positions_are_a_permutation(self, scheme):
        assert sorted(sum(scheme.layout, ())) == list(range(scheme.bits_per_symbol))

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_states_and_detection_invert_each_other(self, canonical_subs, scheme):
        # select_state sums a pattern's bits into level indices, and the
        # reference detector splits the detected indices back into bits
        bank = threshold_bank(scheme, *canonical_subs)
        for pattern in itertools.product((0, 1), repeat=scheme.bits_per_symbol):
            state = select_state(SymbolBits(scheme, pattern), *canonical_subs)
            assert detect(scheme, bank, moments=state) == pattern

    def test_layouts(self):
        assert [(s.value, s.layout, s.bits_per_symbol) for s in Scheme] == [
            ("kljn", ((), (0,)), 1), ("gqnm", ((0,), (1,)), 2), ("cgqnm", ((0, 2), (1, 3)), 4),
        ]
        for scheme in Scheme:
            assert Scheme(scheme.value) is scheme

    def test_missing_subchannel_names_the_scheme(self, canonical_subs):
        with pytest.raises(ValueError, match="cgqnm needs 2 subchannels"):
            threshold_bank(Scheme.CGQNM, canonical_subs[0])
        # one subchannel is all GQNM and KLJN read
        assert threshold_bank(Scheme.GQNM, canonical_subs[0]) == threshold_bank(
            Scheme.GQNM, *canonical_subs)

    def test_one_bank_per_key(self, canonical_subs):
        # equal (scheme, sub0, sub1, mode, sigma_w) share one frozen bank, so
        # neither a sweep cell nor the per-symbol path rebuilds it
        sub0, sub1 = canonical_subs
        threshold_bank.cache_clear()
        for pattern in itertools.product((0, 1), repeat=4):
            # equal copies, so the key is compared by value
            select_state(SymbolBits(Scheme.CGQNM, pattern), replace(sub0), replace(sub1))
        assert threshold_bank.cache_info().misses == 1
        key = dict(mode=ThresholdMode.MIDPOINT, sigma_w=2e-5)
        assert threshold_bank(Scheme.CGQNM, sub0, sub1, **key) is threshold_bank(
            Scheme.CGQNM, replace(sub0), replace(sub1), **key)
        assert threshold_bank.cache_info().misses == 2

    def test_level_counts(self, canonical_subs):
        for scheme, levels in ((Scheme.KLJN, (1, 2)), (Scheme.GQNM, (2, 2)),
                               (Scheme.CGQNM, (4, 4))):
            bank = threshold_bank(scheme, *canonical_subs)
            assert (len(bank.means), len(bank.variances)) == levels
            assert len(bank.mean_thresholds) == levels[0] - 1
            assert len(bank.effective_var_thresholds) == levels[1] - 1
            # run_point counts bits from a bank's level counts, the sweep
            # (SweepSpec.n_symbol, _pool_size) from Scheme.bits_per_symbol
            states = len(bank.means) * len(bank.variances)
            assert math.log2(states) == scheme.bits_per_symbol


def _index_sums(pairs):
    """Level i of (low, high) pairs: the sum over pair k of its high value
    where bit k of i is set and its low value where it is clear."""
    levels = {}
    for choice in itertools.product((0, 1), repeat=len(pairs)):
        index = sum(bit << k for k, bit in enumerate(choice))
        levels[index] = sum(pair[bit] for pair, bit in zip(pairs, choice))
    return tuple(levels[i] for i in range(len(levels)))


# Subchannels summed by each scheme's (mean, variance) level index.
SUBCHANNELS_SUMMED = {Scheme.KLJN: (0, 1), Scheme.GQNM: (1, 1), Scheme.CGQNM: (2, 2)}


class TestSchemeBankProperty:
    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(config=explicit_configs())
    def test_bank_built_exactly_for_ordered_levels(self, config):
        """A bank is built exactly when both index-sum level sets strictly
        ascend in index order, and holds those levels."""
        subs = (config.sub0, config.sub1)
        for scheme, (n_mean, n_var) in SUBCHANNELS_SUMMED.items():
            means = _index_sums([(s.m_L, s.m_H) for s in subs[:n_mean]])
            variances = _index_sums([(s.var_0, s.var_1) for s in subs[:n_var]])
            ordered = all(a < b for levels in (means, variances)
                          for a, b in zip(levels, levels[1:]))
            if ordered:
                bank = threshold_bank(scheme, *subs)
                assert (bank.means, bank.variances) == (means, variances)
            else:
                with pytest.raises(DegenerateLevelsError):
                    threshold_bank(scheme, *subs)


class TestPublicNamespace:
    def test_every_exported_name_resolves_once(self):
        assert len(set(noisemod.__all__)) == len(noisemod.__all__)
        for name in noisemod.__all__:
            assert hasattr(noisemod, name), name
        star = {}
        exec("from noisemod import *", star)
        assert set(noisemod.__all__) <= star.keys()

    @pytest.mark.parametrize("name", ["BlockEstimates", "awgn", "detect_bits", "detect_symbol",
                                      "estimate", "modulate"])
    def test_per_sample_link_is_gone(self, name):
        # the engine is the package's one link model; the per-sample link
        # the tests compare it with lives in tests/reference.py
        assert name not in noisemod.__all__
        assert not hasattr(noisemod, name)
        assert not hasattr(noisemod.modem, name)

    @pytest.mark.parametrize("name", ["SchemeTable", "scheme_table"])
    def test_level_table_is_gone(self, name):
        # a ThresholdBank holds the levels too, so no second record describes them
        assert name not in noisemod.__all__
        assert not hasattr(noisemod, name)
        assert not hasattr(noisemod.modem, name)
