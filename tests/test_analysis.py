"""Chi-square moments, estimator spreads, and distinguishability checks."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noisemod import (
    DEFAULT_SCHEME,
    DegenerateLevelsError,
    Scheme,
    SchemeConfig,
    SpreadFormula,
    SubchannelParams,
    build_report,
    check_mean_condition,
    check_variance_condition,
    chi_square_moment,
    derive_subchannels,
    load_config,
    sample_variance_spread,
    threshold_bank,
)
from noisemod.harness import compute_moments

REPO_ROOT = Path(__file__).resolve().parents[1]


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

    @pytest.mark.parametrize("n", [40.5, 4.0, 2.5])
    def test_non_integer_n_rejected(self, n):
        with pytest.raises(TypeError):
            sample_variance_spread(1.0, n)

    def test_numpy_integer_n_accepted(self):
        assert sample_variance_spread(1.0, np.int64(2)) == 0.5
        # int64 would wrap n * n; the spread is taken on Python ints
        assert sample_variance_spread(1.0, np.int64(2**40)) == sample_variance_spread(1.0, 2**40)

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


@pytest.fixture
def canonical_bank():
    return threshold_bank(Scheme.CGQNM, *derive_subchannels(DEFAULT_SCHEME))


class TestMeanCondition:
    def test_reference_margins(self, canonical_bank):
        res = check_mean_condition(canonical_bank.means, canonical_bank.variances, DEFAULT_SCHEME)
        assert res.lhs_gap == pytest.approx(1.9e-2, rel=1e-12)
        assert res.lhs_literal == pytest.approx(2e-2, rel=1e-15)
        assert res.rhs == 6.0 * math.sqrt(canonical_bank.variances[-1])
        assert res.rhs == pytest.approx(6.148e-4, rel=1e-3)
        assert res.ratio == pytest.approx(30.90, abs=0.05)
        assert res.satisfied

    def test_all_equal_means_unsatisfied(self):
        # hand-built level sets that no bank accepts still reach the check
        res = check_mean_condition((1.0, 1.0, 1.0, 1.0), (1.0, 2.0, 3.0, 4.0), DEFAULT_SCHEME)
        assert res.ratio == 0.0
        assert not res.satisfied

    def test_vanishing_spread_always_satisfied(self):
        res = check_mean_condition((0.0, 1.0, 2.0, 3.0), (0.0, 0.0, 0.0, 0.0), DEFAULT_SCHEME)
        assert res.ratio == math.inf
        assert res.satisfied

    def test_margin_factor(self, canonical_bank):
        bank = canonical_bank
        assert not check_mean_condition(bank.means, bank.variances, DEFAULT_SCHEME,
                                        100.0).satisfied


class TestVarianceCondition:
    def test_reference_margins_at_n100(self, canonical_bank):
        pairs = check_variance_condition(canonical_bank.variances, 100)
        v = canonical_bank.variances
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
        pairs = check_variance_condition((1.0, 1.0, 2.0, 3.0), 100)
        assert pairs[0].ratio == 0.0
        assert not pairs[0].satisfied

    def test_spread_shrinks_with_n(self, canonical_bank):
        loose = check_variance_condition(canonical_bank.variances, 100)
        tight = check_variance_condition(canonical_bank.variances, 1_000_000)
        for a, b in zip(tight, loose):
            assert a.spread < b.spread
        assert all(p.satisfied for p in tight)

    def test_monotone_in_n(self, canonical_bank):
        grid = [10, 30, 100, 300, 1000, 10_000, 100_000]
        previous = None
        for n in grid:
            pairs = check_variance_condition(canonical_bank.variances, n)
            ratios = [p.ratio for p in pairs]
            if previous is not None:
                assert all(r >= q for r, q in zip(ratios, previous))
            previous = ratios

    def test_scale_invariance(self, canonical_bank):
        base = check_variance_condition(canonical_bank.variances, 100)
        scaled = check_variance_condition(tuple(v * 1e6 for v in canonical_bank.variances), 100)
        np.testing.assert_allclose(
            [p.ratio for p in scaled], [p.ratio for p in base], rtol=1e-12
        )


class TestReport:
    def test_canonical_report(self, canonical_bank):
        report = build_report(canonical_bank, DEFAULT_SCHEME, 100)
        assert report.mean.satisfied
        assert not all(p.satisfied for p in report.pairs)  # surfaced, not resolved
        assert report.mean.ratio == pytest.approx(30.90, abs=0.05)
        assert len(report.pairs) == 3
        assert not report.satisfied
        assert report.warnings == ()

    def test_fourth_moment_mode_flags_warning(self, canonical_bank):
        report = build_report(canonical_bank, DEFAULT_SCHEME, 100, SpreadFormula.FOURTH_MOMENT)
        assert report.formula_mode is SpreadFormula.FOURTH_MOMENT
        assert any("verbatim" in w for w in report.warnings)

    def test_negative_spread_reported_as_nan(self):
        cfg = SchemeConfig.derived(m_L0=1.0, alpha=20.0, beta=5.0, var_00=1.0, eta=5.0, gamma=20.0)
        bank = threshold_bank(Scheme.CGQNM, cfg.sub0, cfg.sub1)
        report = build_report(bank, cfg, 100, SpreadFormula.FOURTH_MOMENT)
        assert any(math.isnan(p.spread) for p in report.pairs)
        assert not all(p.satisfied for p in report.pairs)
        assert any("undefined" in w for w in report.warnings)

    def test_margins_judged_at_received_levels(self, canonical_subs):
        # the bank's channel noise adds sigma_w^2 to every variance level
        bank = threshold_bank(Scheme.CGQNM, *canonical_subs, sigma_w=2e-5)
        received = [v + 2e-5 * 2e-5 for v in bank.variances]
        report = build_report(bank, DEFAULT_SCHEME, 100)
        assert [(p.level_low, p.level_high) for p in report.pairs] == list(
            zip(received, received[1:]))
        assert report.mean.rhs == 6.0 * math.sqrt(received[-1])

    @pytest.mark.parametrize("margin_factor", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_margin_factor_rejected(self, canonical_bank, margin_factor):
        with pytest.raises(ValueError, match="margin factor must be finite and > 0"):
            build_report(canonical_bank, DEFAULT_SCHEME, 100, margin_factor=margin_factor)

    def test_to_dict_round_trips_enums(self, canonical_bank):
        d = build_report(canonical_bank, DEFAULT_SCHEME, 100).to_dict()
        assert d["formula_mode"] == "corrected"
        assert isinstance(d["var_ratios"], list)


@st.composite
def explicit_configs(draw):
    """Two explicit subchannels with valid values.  The composite levels
    ascend exactly when sub1's mean and variance gaps exceed sub0's, so most
    draws scale sub1's gaps from sub0's by factors in (1, 100]; about one in
    six draws sub1 freely, and many of those coincide or fall out of order."""
    def sub():
        m_L = draw(st.floats(-1.0, 1.0))
        var_0 = 10.0 ** draw(st.floats(-12.0, 0.0))
        return SubchannelParams(m_L, m_L + draw(st.floats(1e-6, 1.0)),
                                var_0, var_0 * draw(st.floats(1.001, 100.0)))

    def scaled(base):
        factor = st.floats(1.0, 100.0, exclude_min=True)
        m_L = draw(st.floats(-1.0, 1.0))
        var_0 = base.var_0 * 10.0 ** draw(st.floats(-3.0, 3.0))
        return SubchannelParams(m_L, m_L + draw(factor) * (base.m_H - base.m_L),
                                var_0, var_0 + draw(factor) * (base.var_1 - base.var_0))

    sub0 = sub()
    return SchemeConfig(sub0, scaled(sub0) if draw(st.integers(0, 9)) else sub())


@st.composite
def derived_factors(draw):
    """Six scale factors that SchemeConfig.derived accepts, by keyword.  eta
    spans (1, 101] around the ceiling's extremum 1 + sqrt 2, and gamma sits
    a factor in (1, 101] above it, down to a millionth above eta."""
    above_one = lambda low, high: 1.0 + 10.0 ** draw(st.floats(low, high))  # noqa: E731
    alpha = above_one(-3.0, 2.0)
    eta = above_one(-3.0, 2.0)
    return dict(
        m_L0=10.0 ** draw(st.floats(-6.0, 0.0)),
        alpha=alpha,
        beta=1.0 + (alpha - 1.0) * draw(st.floats(0.01, 0.99)),
        var_00=10.0 ** draw(st.floats(-12.0, 0.0)),
        eta=eta,
        gamma=eta * above_one(-6.0, 2.0),
    )


class TestExplicitConfigs:
    def test_most_build_a_composite_bank(self):
        # the property tests below see the composite on most of their examples
        built = []

        @settings(derandomize=True, database=None, max_examples=100, deadline=None)
        @given(config=explicit_configs())
        def draw(config):
            built.append(_cgqnm_bank(config) is not None)

        draw()
        assert len(built) == 100 and 60 <= sum(built) < 100, sum(built)


class TestReportProperty:
    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(config=explicit_configs(), n=st.integers(2, 10_000),
           formula=st.sampled_from(list(SpreadFormula)), margin=st.floats(0.1, 10.0))
    def test_report_follows_its_bank(self, config, n, formula, margin):
        """One variance pair per adjacent level pair, a mean check exactly when
        the bank has mean bits, and satisfied as the conjunction of the parts."""
        for scheme in Scheme:
            try:
                bank = threshold_bank(scheme, config.sub0, config.sub1)
            except DegenerateLevelsError:
                continue
            report = build_report(bank, config, n, formula, margin)
            v = bank.variances
            assert len(report.pairs) == len(v) - 1
            assert [p.gap for p in report.pairs] == [b - a for a, b in zip(v, v[1:])]
            assert [(p.level_low, p.level_high) for p in report.pairs] == list(zip(v, v[1:]))
            assert (report.mean is None) == (len(bank.means) == 1)
            parts = [p.satisfied for p in report.pairs]
            if report.mean is not None:
                parts.append(report.mean.satisfied)
            assert report.satisfied == all(parts)


PHI = (1.0 + math.sqrt(5.0)) / 2.0
# The ceiling of the derived form (SchemeConfig.derived), approached as gamma
# falls to eta = 1 + sqrt 2.
DERIVED_CEILING = (1.0 + math.sqrt(2.0)) / 2.0


def _cgqnm_bank(config):
    """The config's composite bank, or None where its levels do not ascend."""
    try:
        return threshold_bank(Scheme.CGQNM, config.sub0, config.sub1)
    except DegenerateLevelsError:
        return None


def _smallest_variance_ratio(bank):
    v = bank.variances
    return min(b / a for a, b in zip(v, v[1:]))


class TestVarianceRatioCeiling:
    """README's ceiling: the composite's adjacent variance levels a+c < b+c <
    a+d < b+d can never all sit a ratio of phi or more apart."""

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(config=explicit_configs().filter(lambda config: _cgqnm_bank(config) is not None))
    def test_below_the_golden_ratio(self, config):
        assert _smallest_variance_ratio(_cgqnm_bank(config)) < PHI

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(factors=derived_factors())
    def test_derived_form_below_its_ceiling(self, factors):
        """Under the scaling rules the variances are v(1+g) < v(e+g) < v(1+ge)
        < ve(1+g) for eta e and gamma g; the top ratio e(1+g)/(1+ge) falls as
        g rises above e, so it stays below e(1+e)/(1+e^2) <= (1 + sqrt 2)/2."""
        eta = factors["eta"]
        ratio = _smallest_variance_ratio(_cgqnm_bank(SchemeConfig.derived(**factors)))
        assert ratio < eta * (1.0 + eta) / (1.0 + eta * eta) * (1.0 + 1e-12)
        assert ratio < DERIVED_CEILING * (1.0 + 1e-12)

    @pytest.mark.parametrize("name, ratio", [("canonical", 105 / 101),
                                             ("paper_literal", 1.0099)])
    def test_shipped_configs(self, name, ratio):
        config = load_config(REPO_ROOT / "configs" / f"{name}.json")[0]
        bank = threshold_bank(Scheme.CGQNM, *derive_subchannels(config))
        assert _smallest_variance_ratio(bank) == pytest.approx(ratio, abs=5e-5)
        assert _smallest_variance_ratio(bank) == bank.variances[3] / bank.variances[2]
