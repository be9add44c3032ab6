"""Chi-square moments, estimator spreads, and distinguishability checks."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noisemod import (
    DEFAULT_SCHEME,
    DegenerateLevelsError,
    Scheme,
    SchemeConfig,
    SchemeTable,
    SpreadFormula,
    SubchannelParams,
    build_report,
    check_mean_condition,
    check_variance_condition,
    chi_square_moment,
    derive_subchannels,
    sample_variance_spread,
    scheme_table,
)
from noisemod.harness import compute_moments


class TestChiSquareMoment:
    def test_first_moment_is_k(self):
        assert chi_square_moment(5, 1) == 5.0

    def test_second_moment_identity(self):
        assert chi_square_moment(3, 2) == 15.0

    def test_fourth_moment(self):
        # 2^4 * Gamma(5)/Gamma(1) = 16 * 24
        assert chi_square_moment(2, 4) == 384.0

    def test_low_order_identities_over_k(self):
        for k in range(1, 101):
            assert chi_square_moment(k, 0) == 1.0
            assert chi_square_moment(k, 1) == float(k)
            assert chi_square_moment(k, 2) == float(k * (k + 2))

    def test_large_k_no_overflow(self):
        # a Gamma-quotient evaluation overflows near k ~ 350
        val = chi_square_moment(10_000, 4)
        assert val == pytest.approx(10_000 * 10_002 * 10_004 * 10_006, rel=1e-12)

    def test_monte_carlo_cross_check(self):
        rng = np.random.default_rng(404)
        draws = rng.chisquare(2, size=10_000_000)
        assert np.mean(draws**4) == pytest.approx(384.0, rel=2e-2)

    @pytest.mark.parametrize("k", [0, -1, -0.5])
    def test_nonpositive_dof_rejected(self, k):
        with pytest.raises(ValueError):
            chi_square_moment(k, 1)

    @pytest.mark.parametrize("m", [-1, 1.5])
    def test_bad_order_rejected(self, m):
        with pytest.raises(ValueError):
            chi_square_moment(5, m)


class TestSampleVarianceSpread:
    def test_exact_small_case(self):
        assert sample_variance_spread(1.0, 2) == 0.5

    def test_reference_value(self):
        got = sample_variance_spread(2.1e-9, 100)
        assert got == 2.0 * 2.1e-9 * 2.1e-9 * 99 / 100**2
        assert got == pytest.approx(8.7318e-20, rel=1e-4)
        assert math.sqrt(got) == pytest.approx(2.955e-10, rel=1e-3)

    def test_fourth_moment_formula_verbatim(self):
        got = sample_variance_spread(1.0, 3, SpreadFormula.FOURTH_MOMENT)
        assert got == pytest.approx(384.0 / 81.0 - 1.0, rel=1e-12)

    def test_fourth_moment_can_go_negative(self):
        got = sample_variance_spread(2.0, 100, SpreadFormula.FOURTH_MOMENT)
        assert got < 0.0  # reported verbatim, never clamped

    def test_input_validation(self):
        with pytest.raises(ValueError):
            sample_variance_spread(0.0, 10)
        with pytest.raises(ValueError):
            sample_variance_spread(1.0, 1)

    @pytest.mark.parametrize("n", [10, 100])
    @pytest.mark.parametrize("sigma2", [1.0, 2.1e-9])
    def test_monte_carlo_agreement(self, n, sigma2):
        # variance of the block variance estimator over 1e6 blocks
        gen = np.random.default_rng(515 + n)
        reps = 1_000_000
        chunk = 100_000
        var_hats = []
        counts = np.array([chunk])
        for _ in range(reps // chunk):
            _, var_hat = compute_moments(gen, counts, n, 0.0, [sigma2], np.empty((2, chunk)))
            var_hats.append(var_hat)
        mc = float(np.var(np.concatenate(var_hats)))
        assert mc == pytest.approx(sample_variance_spread(sigma2, n), rel=3e-2)


def hand_table(means, variances, mean_thresholds, var_thresholds):
    """A composite table with hand-built (possibly degenerate) level sets."""
    return SchemeTable(means, variances, mean_thresholds, var_thresholds)


@pytest.fixture
def canonical_constants():
    return scheme_table(Scheme.CGQNM, *derive_subchannels(DEFAULT_SCHEME))


class TestMeanCondition:
    def test_reference_margins(self, canonical_constants):
        res = check_mean_condition(canonical_constants, DEFAULT_SCHEME)
        assert res.lhs_gap == pytest.approx(1.9e-2, rel=1e-12)
        assert res.lhs_literal == pytest.approx(2e-2, rel=1e-15)
        assert res.rhs == 6.0 * math.sqrt(canonical_constants.variances[-1])
        assert res.rhs == pytest.approx(6.148e-4, rel=1e-3)
        assert res.ratio == pytest.approx(30.90, abs=0.05)
        assert res.satisfied

    def test_all_equal_means_unsatisfied(self):
        constants = hand_table((1.0, 1.0, 1.0, 1.0), (1.0, 2.0, 3.0, 4.0),
                               (1.0, 1.0, 1.0), (1.5, 2.5, 3.5))
        res = check_mean_condition(constants, DEFAULT_SCHEME)
        assert res.ratio == 0.0
        assert not res.satisfied

    def test_vanishing_spread_always_satisfied(self):
        constants = hand_table((0.0, 1.0, 2.0, 3.0), (0.0, 0.0, 0.0, 0.0),
                               (0.5, 1.5, 2.5), (0.0, 0.0, 0.0))
        res = check_mean_condition(constants, DEFAULT_SCHEME)
        assert res.ratio == math.inf
        assert res.satisfied

    def test_margin_factor(self, canonical_constants):
        assert not check_mean_condition(canonical_constants, DEFAULT_SCHEME, 100.0).satisfied


class TestVarianceCondition:
    def test_reference_margins_at_n100(self, canonical_constants):
        pairs = check_variance_condition(canonical_constants, 100)
        v = canonical_constants.variances
        first = pairs[0]
        assert first.gap == pytest.approx(4e-10, rel=1e-9)
        expected_spread = 3.0 * (
            math.sqrt(sample_variance_spread(v[0], 100))
            + math.sqrt(sample_variance_spread(v[1], 100))
        )
        assert first.spread == expected_spread
        assert first.spread == pytest.approx(1.942e-9, rel=1e-3)
        assert first.ratio == pytest.approx(0.206, abs=5e-3)
        assert not first.satisfied
        # equal gaps but wider spreads make the top pair the binding one
        assert pairs[2].ratio < pairs[0].ratio
        assert pairs[1].satisfied

    def test_zero_gap_unsatisfied(self):
        constants = hand_table((0.0, 1.0, 2.0, 3.0), (1.0, 1.0, 2.0, 3.0),
                               (0.5, 1.5, 2.5), (1.0, 1.5, 2.5))
        pairs = check_variance_condition(constants, 100)
        assert pairs[0].ratio == 0.0
        assert not pairs[0].satisfied

    def test_spread_shrinks_with_n(self, canonical_constants):
        loose = check_variance_condition(canonical_constants, 100)
        tight = check_variance_condition(canonical_constants, 1_000_000)
        for a, b in zip(tight, loose):
            assert a.spread < b.spread
        assert all(p.satisfied for p in tight)

    def test_monotone_in_n(self, canonical_constants):
        grid = [10, 30, 100, 300, 1000, 10_000, 100_000]
        previous = None
        for n in grid:
            pairs = check_variance_condition(canonical_constants, n)
            ratios = [p.ratio for p in pairs]
            if previous is not None:
                assert all(r >= q for r, q in zip(ratios, previous))
            previous = ratios

    def test_scale_invariance(self, canonical_constants):
        base = check_variance_condition(canonical_constants, 100)
        c = 1e6
        scaled_constants = dataclasses.replace(
            canonical_constants,
            variances=tuple(v * c for v in canonical_constants.variances),
            var_thresholds=tuple(t * c for t in canonical_constants.var_thresholds),
        )
        scaled = check_variance_condition(scaled_constants, 100)
        np.testing.assert_allclose(
            [p.ratio for p in scaled], [p.ratio for p in base], rtol=1e-12
        )


class TestReport:
    def test_canonical_report(self, canonical_constants):
        report = build_report(canonical_constants, DEFAULT_SCHEME, 100)
        assert report.mean.satisfied
        assert not all(p.satisfied for p in report.pairs)  # surfaced, not resolved
        assert report.mean.ratio == pytest.approx(30.90, abs=0.05)
        assert len(report.pairs) == 3
        assert not report.satisfied
        assert report.warnings == ()

    def test_fourth_moment_mode_flags_warning(self, canonical_constants):
        report = build_report(
            canonical_constants, DEFAULT_SCHEME, 100, SpreadFormula.FOURTH_MOMENT
        )
        assert report.formula_mode is SpreadFormula.FOURTH_MOMENT
        assert any("verbatim" in w for w in report.warnings)

    def test_negative_spread_reported_as_nan(self):
        cfg = SchemeConfig.derived(m_L0=1.0, alpha=20.0, beta=5.0, var_00=1.0, eta=5.0, gamma=20.0)
        table = scheme_table(Scheme.CGQNM, cfg.sub0, cfg.sub1)
        report = build_report(table, cfg, 100, SpreadFormula.FOURTH_MOMENT)
        assert any(math.isnan(p.spread) for p in report.pairs)
        assert not all(p.satisfied for p in report.pairs)
        assert any("undefined" in w for w in report.warnings)

    @pytest.mark.parametrize("margin_factor", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_margin_factor_rejected(self, canonical_constants, margin_factor):
        with pytest.raises(ValueError, match="margin factor must be finite and > 0"):
            build_report(canonical_constants, DEFAULT_SCHEME, 100, margin_factor=margin_factor)

    def test_to_dict_round_trips_enums(self, canonical_constants):
        d = build_report(canonical_constants, DEFAULT_SCHEME, 100).to_dict()
        assert d["formula_mode"] == "corrected"
        assert isinstance(d["var_ratios"], list)


@st.composite
def explicit_configs(draw):
    """Two explicit subchannels with arbitrary valid values; the composite
    levels of many of them coincide or fall out of order."""
    def sub():
        m_L = draw(st.floats(-1.0, 1.0))
        var_0 = 10.0 ** draw(st.floats(-12.0, 0.0))
        return SubchannelParams(m_L, m_L + draw(st.floats(1e-6, 1.0)),
                                var_0, var_0 * draw(st.floats(1.001, 100.0)))
    return SchemeConfig(sub(), sub())


class TestReportProperty:
    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(config=explicit_configs(), n=st.integers(2, 10_000),
           formula=st.sampled_from(list(SpreadFormula)), margin=st.floats(0.1, 10.0))
    def test_report_follows_its_table(self, config, n, formula, margin):
        """One variance pair per adjacent level pair, a mean check exactly when
        the table has mean bits, and satisfied as the conjunction of the parts."""
        for scheme in Scheme:
            try:
                table = scheme_table(scheme, config.sub0, config.sub1)
            except DegenerateLevelsError:
                continue
            report = build_report(table, config, n, formula, margin)
            v = table.variances
            assert len(report.pairs) == len(v) - 1
            assert [p.gap for p in report.pairs] == [b - a for a, b in zip(v, v[1:])]
            assert [(p.level_low, p.level_high) for p in report.pairs] == list(zip(v, v[1:]))
            assert (report.mean is None) == (len(table.means) == 1)
            parts = [p.satisfied for p in report.pairs]
            if report.mean is not None:
                parts.append(report.mean.satisfied)
            assert report.satisfied == all(parts)
