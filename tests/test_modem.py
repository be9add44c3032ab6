"""Modulator state selection, sample generation, and channel tests."""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings

from noisemod import (
    DegenerateLevelsError,
    NoiseSource,
    Scheme,
    SymbolBits,
    awgn,
    modulate,
    scheme_table,
    select_state,
)
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


class TestSchemeTable:
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_bit_positions_are_a_permutation(self, canonical_subs, scheme):
        table = scheme_table(scheme, *canonical_subs)
        assert sorted(sum(table.scheme.layout, ())) == list(range(scheme.bits_per_symbol))

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_indices_and_bits_invert_each_other(self, canonical_subs, scheme):
        table = scheme_table(scheme, *canonical_subs)
        patterns = list(itertools.product((0, 1), repeat=scheme.bits_per_symbol))
        for pattern in patterns:
            assert table.bits_of(*table.indices(pattern)) == pattern

    def test_layouts(self, canonical_subs):
        assert [(s.value, s.layout, s.bits_per_symbol) for s in Scheme] == [
            ("kljn", ((), (0,)), 1), ("gqnm", ((0,), (1,)), 2), ("cgqnm", ((0, 2), (1, 3)), 4),
        ]
        for scheme in Scheme:
            assert Scheme(scheme.value) is scheme
            table = scheme_table(scheme, *canonical_subs)
            assert table.scheme is scheme

    def test_missing_subchannel_names_the_scheme(self, canonical_subs):
        with pytest.raises(ValueError, match="cgqnm needs 2 subchannels"):
            scheme_table(Scheme.CGQNM, canonical_subs[0])
        # one subchannel is all GQNM and KLJN read
        assert scheme_table(Scheme.GQNM, canonical_subs[0]) == scheme_table(
            Scheme.GQNM, *canonical_subs)

    def test_one_table_per_key(self, canonical_subs):
        # equal (scheme, sub0, sub1) share one frozen table, so the per-symbol
        # path does not rebuild it for each symbol
        sub0, sub1 = canonical_subs
        scheme_table.cache_clear()
        for pattern in itertools.product((0, 1), repeat=4):
            # equal copies, so the key is compared by value
            select_state(SymbolBits(Scheme.CGQNM, pattern), replace(sub0), replace(sub1))
        assert scheme_table.cache_info().misses == 1
        assert scheme_table(Scheme.CGQNM, sub0, sub1) is scheme_table(Scheme.CGQNM, sub0, sub1)

    def test_level_counts(self, canonical_subs):
        for scheme, levels in ((Scheme.KLJN, (1, 2)), (Scheme.GQNM, (2, 2)),
                               (Scheme.CGQNM, (4, 4))):
            table = scheme_table(scheme, *canonical_subs)
            assert (len(table.means), len(table.variances)) == levels
            assert len(table.mean_thresholds) == levels[0] - 1
            assert len(table.var_thresholds) == levels[1] - 1


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


class TestSchemeTableProperty:
    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(config=explicit_configs())
    def test_table_built_exactly_for_ordered_levels(self, config):
        """A table is built exactly when both index-sum level sets strictly
        ascend in index order, and holds those levels."""
        subs = (config.sub0, config.sub1)
        for scheme, (n_mean, n_var) in SUBCHANNELS_SUMMED.items():
            means = _index_sums([(s.m_L, s.m_H) for s in subs[:n_mean]])
            variances = _index_sums([(s.var_0, s.var_1) for s in subs[:n_var]])
            ordered = all(a < b for levels in (means, variances)
                          for a, b in zip(levels, levels[1:]))
            if ordered:
                table = scheme_table(scheme, *subs)
                assert (table.means, table.variances) == (means, variances)
            else:
                with pytest.raises(DegenerateLevelsError):
                    scheme_table(scheme, *subs)


class TestModulate:
    def test_zero_variance_is_constant(self):
        block = modulate((7.0, 0.0), 5, NoiseSource(1))
        assert np.all(block == 7.0)

    def test_law_of_large_numbers(self):
        x = modulate((6e-3, 2.1e-9), 1_000_000, NoiseSource(3))
        assert abs(x.mean() - 6e-3) < 5.0 * np.sqrt(2.1e-9 / 1e6)
        assert x.var() == pytest.approx(2.1e-9, rel=1e-2)

    def test_deterministic_given_key(self):
        a = modulate((1.0, 4.0), 64, NoiseSource(7, 5))
        b = modulate((1.0, 4.0), 64, NoiseSource(7, 5))
        assert np.array_equal(a, b)

    def test_streams_differ_across_ids(self):
        a = modulate((0.0, 1.0), 64, NoiseSource(7, 5))
        b = modulate((0.0, 1.0), 64, NoiseSource(7, 6))
        assert not np.array_equal(a, b)

    def test_short_block_rejected(self):
        with pytest.raises(ValueError):
            modulate((0.0, 1.0), 1, NoiseSource(1))
        with pytest.raises(ValueError, match="variance must be >= 0"):
            modulate((0.0, -1.0), 4, NoiseSource(1))

    def test_normality_sanity(self):
        x = modulate((0.0, 1.0), 1_000_000, NoiseSource(11))
        kurtosis = np.mean(x**4) / np.mean(x**2) ** 2
        assert 2.9 < kurtosis < 3.1


class TestAwgn:
    def _block(self, n, mean=0.0, var=0.0):
        return modulate((mean, var), n, NoiseSource(21))

    def test_zero_noise_is_identity(self):
        block = self._block(100, mean=1.5, var=2.0)
        out = awgn(block, 0.0, NoiseSource(22))
        assert np.array_equal(out, block)

    def test_noise_statistics(self):
        out = awgn(self._block(1_000_000), 2e-5, NoiseSource(23))
        assert out.var() == pytest.approx(4e-10, rel=1e-2)

    def test_deterministic(self):
        block = self._block(64, var=1.0)
        a = awgn(block, 0.5, NoiseSource(9, 1))
        b = awgn(block, 0.5, NoiseSource(9, 1))
        assert np.array_equal(a, b)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            awgn(self._block(10), -1.0, NoiseSource(1))
