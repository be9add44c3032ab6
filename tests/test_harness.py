"""BEP engine, sweep determinism, and emission tests."""

import contextlib
import io
import itertools
import json
import math
import os
import threading
from bisect import bisect_right
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from noisemod import (
    ConfigError,
    DEFAULT_SCHEME,
    DegenerateLevelsError,
    Fairness,
    NoiseSource,
    Scheme,
    SchemeConfig,
    SubchannelParams,
    SweepSpec,
    SweepVariable,
    SymbolBits,
    ThresholdMode,
    derive_subchannels,
    emit,
    load_config,
    run_point,
    run_sweep,
    select_state,
    stable_stream_id,
    threshold_bank,
    wilson_interval,
)
from noisemod.harness import (
    LOG_NEGLIGIBLE,
    BepEstimate,
    CellFailure,
    _detect_bits,
    _log_chi2_tail,
    _log_crossing_bounds,
    _log_normal_tail,
    _must_draw,
    _symbol_states,
    compute_moments,
)

from reference import detect, layout_bits, received
from test_analysis import explicit_configs

REPO_ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((REPO_ROOT / "configs").glob("*.json"))

# Mean levels 0, 5e-5, 2e-4 and 2.5e-4 with the canonical variances: at 8
# samples per symbol and sigma_w = 2e-5 a GQNM mean sits ~2.4 block spreads
# from its threshold, so its mean can err and every cell draws normals.
NEAR_THRESHOLD = SchemeConfig(
    SubchannelParams(m_L=0.0, m_H=5e-5, var_0=1e-10, var_1=5e-10),
    SubchannelParams(m_L=0.0, m_H=2e-4, var_0=2e-9, var_1=1e-8),
)


def _bank(scheme, config, sigma_w, mode=ThresholdMode.NOISE_ADJUSTED):
    """The receiver a sweep cell builds for `scheme` on `config` at sigma_w."""
    return threshold_bank(scheme, *derive_subchannels(config), mode=mode, sigma_w=sigma_w)


class TestWilson:
    def test_zero_errors_reference(self):
        low, high = wilson_interval(0, 10_000)
        assert low == 0.0
        assert high == pytest.approx(0.00038401247776654115, rel=1e-12)

    def test_brackets_point_estimate(self):
        low, high = wilson_interval(5, 100)
        assert low < 0.05 < high

    def test_all_errors(self):
        low, high = wilson_interval(100, 100)
        assert high == 1.0 and low < 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            wilson_interval(0, 0)


class TestRunPoint:
    def test_noiseless_round_trip(self):
        est = run_point(_bank(Scheme.CGQNM, DEFAULT_SCHEME, 0.0), 40_000, 40_000, NoiseSource(51))
        assert est.bits >= 40_000
        assert est.bep <= 1e-3
        assert est.errors <= est.bits
        assert est.ci_low <= est.bep <= est.ci_high

    def test_kljn_noiseless_is_error_free(self):
        est = run_point(_bank(Scheme.KLJN, DEFAULT_SCHEME, 0.0), 10_000, 10_000, NoiseSource(52))
        assert est.errors == 0 and est.bep == 0.0

    def test_degenerate_config_propagates(self):
        sub = SubchannelParams(1.0, 2.0, 1.0, 2.0)
        cfg = SchemeConfig(sub, sub)
        with pytest.raises(DegenerateLevelsError):
            run_point(_bank(Scheme.CGQNM, cfg, 0.0), 100, 1000, NoiseSource(1))

    def test_bad_bit_or_sample_count_rejected(self):
        with pytest.raises(ValueError, match="min_bits must be >= 1"):
            run_point(_bank(Scheme.GQNM, DEFAULT_SCHEME, 0.0), 100, 0, NoiseSource(1))
        with pytest.raises(ValueError, match="n >= 2 required"):
            run_point(_bank(Scheme.GQNM, DEFAULT_SCHEME, 0.0), 1, 1000, NoiseSource(1))

    @pytest.mark.parametrize("n", [40.5, 4.0, 2.5])
    def test_non_integer_n_rejected(self, n):
        # a block holds a whole number of samples: 40.5 would draw chi-square(39.5)
        with pytest.raises(TypeError):
            run_point(_bank(Scheme.KLJN, DEFAULT_SCHEME, 2e-5), n, 1000, NoiseSource(1))

    def test_numpy_integer_n_accepted(self):
        bank = _bank(Scheme.KLJN, DEFAULT_SCHEME, 2e-5)
        assert (run_point(bank, np.int64(40), 5000, NoiseSource(7))
                == run_point(bank, 40, 5000, NoiseSource(7)))

    def test_same_key_same_estimate(self):
        args = (_bank(Scheme.GQNM, DEFAULT_SCHEME, 2e-5), 100, 5000)
        a = run_point(*args, NoiseSource(7, 9))
        b = run_point(*args, NoiseSource(7, 9))
        assert a == b

    def test_chunk_array_contents_do_not_change_results(self, monkeypatch):
        args = (_bank(Scheme.CGQNM, DEFAULT_SCHEME, 2e-5), 50, 8000)
        own = run_point(*args, NoiseSource(3, 4))
        shapes, empty = [], np.empty

        def stale(shape, *a, **kw):  # fresh arrays full of NaN stand in for stale contents
            shapes.append(shape)
            return np.full_like(empty(shape, *a, **kw), np.nan)

        monkeypatch.setattr(np, "empty", stale)
        assert run_point(*args, NoiseSource(3, 4)) == own
        assert shapes == [(2, 2000)]  # 8000 bits of 4 per symbol: one chunk, allocated once

    def test_chunking_does_not_change_results(self, monkeypatch):
        args = (_bank(Scheme.CGQNM, DEFAULT_SCHEME, 2e-5), 50, 8000)
        whole = run_point(*args, NoiseSource(3, 4))
        import noisemod.harness as hn
        monkeypatch.setattr(hn, "CHUNK_SYMBOLS", 64)
        chunked = run_point(*args, NoiseSource(3, 4))
        # different chunk boundaries consume the stream differently, but the
        # estimate must stay statistically identical and deterministic
        assert chunked.bits == whole.bits
        assert abs(chunked.bep - whole.bep) < 6 * (whole.ci_high - whole.ci_low)

    @pytest.mark.parametrize("scheme, n", [(Scheme.KLJN, 2000), (Scheme.GQNM, 4000)])
    def test_certain_cell_draws_nothing(self, monkeypatch, scheme, n):
        # noise-free canonical KLJN and GQNM at 2000 samples per bit: no mean
        # or variance can leave its region with chance 2^-128, so the cell
        # reports 0 errors without creating its generator or chunk arrays
        def refused(*args, **kwargs):
            raise AssertionError("a certain cell allocated chunk arrays")

        monkeypatch.setattr(np, "empty", refused)
        rng = NoiseSource(1)
        est = run_point(_bank(scheme, DEFAULT_SCHEME, 0.0), n, 100_000, rng)
        assert est == BepEstimate(0, 100_000, 0.0, *wilson_interval(0, 100_000))
        assert rng._gen is None

    def test_uncertain_cell_draws(self):
        # canonical CGQNM's top variance levels, 101e-10 and 105e-10, can err
        rng = NoiseSource(1)
        est = run_point(_bank(Scheme.CGQNM, DEFAULT_SCHEME, 0.0), 8000, 100_000, rng)
        assert est.errors > 0 and rng._gen is not None

    # 1000 symbols at n = 8 and sigma_w = 2e-5 from NoiseSource(2024, 3), in
    # 64-symbol chunks (15 full and a short one of 40): the estimates of the
    # state-by-state sampler, which every rewrite of the chunk loop must keep.
    # No mean of the default config can err, so GQNM and CGQNM draw no normals.
    PINNED = {
        Scheme.KLJN: BepEstimate(296, 1000, 0.296, 0.26853048540606317, 0.32503088921718415),
        Scheme.GQNM: BepEstimate(312, 2000, 0.156, 0.1407582213108657, 0.17256075559828718),
        Scheme.CGQNM: BepEstimate(642, 4000, 0.1605, 0.14945094608082504, 0.17220053983210415),
    }
    # The same on NEAR_THRESHOLD, whose cells draw normals as every cell did
    # before the 2^-128 rule: the estimates of the "suffstat-bystate" sampler.
    PINNED_NEAR_THRESHOLD = {
        Scheme.GQNM: BepEstimate(328, 2000, 0.164, 0.14841888040129414, 0.1808694226262506),
        Scheme.CGQNM: BepEstimate(811, 4000, 0.20275, 0.19057832784935125, 0.21549208212890558),
    }

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_pinned_estimate_with_short_last_chunk(self, monkeypatch, scheme):
        import noisemod.harness as hn

        monkeypatch.setattr(hn, "CHUNK_SYMBOLS", 64)
        est = run_point(
            _bank(scheme, DEFAULT_SCHEME, 2e-5), 8, 1000 * scheme.bits_per_symbol,
            NoiseSource(2024, 3),
        )
        assert est == self.PINNED[scheme]
        assert type(est.errors) is int

    @pytest.mark.parametrize("scheme", [Scheme.GQNM, Scheme.CGQNM])
    def test_pinned_estimate_where_means_can_err(self, monkeypatch, scheme):
        import noisemod.harness as hn

        monkeypatch.setattr(hn, "CHUNK_SYMBOLS", 64)
        est = run_point(
            _bank(scheme, NEAR_THRESHOLD, 2e-5), 8, 1000 * scheme.bits_per_symbol,
            NoiseSource(2024, 3),
        )
        assert est == self.PINNED_NEAR_THRESHOLD[scheme]

    @pytest.mark.parametrize("sigma_w", [0.0, 2e-5])
    @pytest.mark.parametrize("n", [2, 7])
    def test_moments_match_per_symbol_formula(self, n, sigma_w):
        # one level per symbol: the level sets must give the very bits of
        # the formula applied to each symbol's own variance
        k = 1000
        variances = np.linspace(1e-10, 1e-8, k)
        gen = NoiseSource(31, n).generator
        scale = (variances + sigma_w * sigma_w) / n
        want_dev = np.sqrt(scale) * gen.standard_normal(k)
        if n == 2:  # chi-square(1) is a squared standard normal
            want_var = scale * gen.standard_normal(k) ** 2
        else:
            want_var = 2.0 * scale * gen.standard_gamma((n - 1) / 2.0, k)
        dev, var_hat = compute_moments(
            NoiseSource(31, n).generator, np.ones(k, np.intp), n, sigma_w, variances,
            np.empty((2, k)),
        )
        assert np.array_equal(dev, want_dev) and np.array_equal(var_hat, want_var)

    @pytest.mark.parametrize("config_path", CONFIGS, ids=lambda p: p.stem)
    @pytest.mark.parametrize("sigma_w", [0.0, 2e-5])
    @pytest.mark.parametrize("n", [2, 8])
    def test_moments_draw_the_rules_law(self, config_path, n, sigma_w):
        # with every variate 1.0 the kernel returns its scales: each level's
        # must be the very s2n = (v + sigma_w^2) / n that run_point's 2^-128
        # rule bounds and the benchmark oracle checks
        class Ones:
            def standard_normal(self, out):
                out.fill(1.0)
                return out

            def standard_gamma(self, shape, out):
                out.fill(1.0)
                return out

        subs = derive_subchannels(load_config(config_path)[0])
        for scheme in Scheme:
            variances = threshold_bank(scheme, *subs).variances
            k = len(variances)
            dev, var_hat = compute_moments(Ones(), np.ones(k, np.intp), n, sigma_w, variances,
                                           np.empty((2, k)))
            s2n = [(v + sigma_w * sigma_w) / n for v in variances]
            assert var_hat.tolist() == [s * (1.0 if n == 2 else 2.0) for s in s2n]
            assert dev.tolist() == [math.sqrt(s) for s in s2n]

    def test_matches_blockwise_reference_path(self):
        # replay one chunk's stream (state counts, normals where a mean can
        # err, gammas) and detect each symbol of the state-by-state layout
        # with the reference detector; a mean that is not drawn is its level
        n_sym, n, sigma_w = 64, 50, 2e-5
        configs = ((DEFAULT_SCHEME, False), (NEAR_THRESHOLD, True))
        for (config, draws_means), scheme in itertools.product(configs, Scheme):
            bank = threshold_bank(scheme, *derive_subchannels(config), sigma_w=sigma_w)
            var_th = bank.effective_var_thresholds
            n_mean, n_var = len(bank.means), len(bank.variances)
            gen = NoiseSource(77, 5).generator
            counts = gen.multinomial(n_sym, [1.0 / (n_mean * n_var)] * (n_mean * n_var))
            states = [(s % n_mean, s // n_mean) for s, c in enumerate(counts) for _ in range(c)]
            drawn = draws_means and n_mean > 1
            out = (np.empty(n_sym) if drawn else None, np.empty(n_sym))
            mean_dev, var_hat = compute_moments(
                gen, counts.reshape(n_var, n_mean).sum(axis=1), n, sigma_w,
                bank.variances, out,
            )
            manual_errors = 0
            for k, (i, j) in enumerate(states):
                mean_hat = bank.means[i] + (mean_dev[k] if drawn else 0.0)
                got = detect(scheme, bank, moments=(mean_hat, var_hat[k]))
                if scheme is Scheme.GQNM:
                    assert got == (bisect_right(bank.mean_thresholds, mean_hat),
                                   bisect_right(var_th, var_hat[k]))
                elif scheme is Scheme.KLJN:
                    assert got == (bisect_right(var_th, var_hat[k]),)
                manual_errors += sum(a != b for a, b in zip(got, layout_bits(scheme, i, j)))
            est = run_point(bank, n, scheme.bits_per_symbol * n_sym, NoiseSource(77, 5))
            assert est.errors == manual_errors

    def test_vectorized_detection_matches_region_table(self, canonical_subs):
        bank = threshold_bank(Scheme.CGQNM, *canonical_subs)
        mth = np.asarray(bank.mean_thresholds)
        vth = np.asarray(bank.effective_var_thresholds)
        means = np.array([-1.0, 2e-2, 7e-2, 0.2, 1.55e-2])
        variances = np.array([0.0, 2.4e-9, 7e-9, 2e-8, 2.3e-9])
        expected_mean_bits = [(0, 0), (1, 0), (0, 1), (1, 1), (1, 0)]
        expected_var_bits = [(0, 0), (1, 0), (0, 1), (1, 1), (1, 0)]
        # unshifted thresholds for every sent mean level, so the values are
        # compared as they are, exact ties included
        unshifted = [mth] * 4
        # the error count against every sent state is the Hamming distance
        # between its bits and the expected detected bits (b00, b10, b01, b11)
        for i in range(5):
            (b00, b01), (b10, b11) = expected_mean_bits[i], expected_var_bits[i]
            for sent_m, sent_v in itertools.product(range(4), repeat=2):
                sent = (sent_m & 1, sent_v & 1, sent_m >> 1, sent_v >> 1)
                hamming = sum(a != b for a, b in zip(sent, (b00, b10, b01, b11)))
                counts = np.zeros((4, 4), dtype=np.intp)
                counts[sent_v, sent_m] = 1
                errors = _detect_bits(
                    counts, means[i:i + 1], variances[i:i + 1], unshifted, vth,
                )
                assert errors == hamming
        # all rows at once: every row sent as level pair (0, 0)
        counts = np.zeros((4, 4), dtype=np.intp)
        counts[0, 0] = 5
        assert _detect_bits(counts, means, variances, unshifted, vth) == sum(
            sum(m) + sum(v) for m, v in zip(expected_mean_bits, expected_var_bits)
        )
        assert counts.sum() == counts[0, 0] == 5  # the counts are read, never written


@st.composite
def detection_cases(draw):
    """A derived config, scheme, sigma_w and threshold mode, with one (mean
    deviation, variance) pair per state spread over every detection region."""
    factor = st.floats(1.05, 10.0)
    beta, eta = draw(factor), draw(factor)
    var_00 = 10.0 ** draw(st.floats(-12.0, -6.0))
    config = SchemeConfig.derived(
        m_L0=10.0 ** draw(st.floats(-4.0, 0.0)), alpha=beta * draw(factor), beta=beta,
        var_00=var_00, eta=eta, gamma=eta * draw(factor),
    )
    sigma_w = draw(st.floats(0.0, 3.0)) * math.sqrt(var_00)
    unit = st.lists(st.floats(-1.0, 1.0), min_size=16, max_size=16)
    return (draw(st.sampled_from(list(Scheme))), config, sigma_w,
            draw(st.sampled_from(list(ThresholdMode))), draw(unit), draw(unit))


class TestDetectionProperty:
    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(case=detection_cases())
    def test_state_layout_matches_scalar_detector(self, case):
        """_detect_bits on one symbol per state counts the Hamming distances of
        the reference detector on mean + deviation."""
        scheme, config, sigma_w, mode, u, w = case
        bank = threshold_bank(scheme, *derive_subchannels(config), mode=mode, sigma_w=sigma_w)
        means, n_mean, n_var = bank.means, len(bank.means), len(bank.variances)
        span = max(means[-1] - means[0], abs(means[0]))
        top = 2.0 * (bank.variances[-1] + sigma_w * sigma_w)
        dev = np.array([1.5 * span * x for x in u[:n_mean * n_var]])
        var_hat = np.array([top * abs(x) for x in w[:n_mean * n_var]])
        want = 0
        for s in range(n_mean * n_var):
            i, j = s % n_mean, s // n_mean
            mean_hat = means[i] + dev[s]
            # m + dev >= t and dev >= t - m may round apart within an ulp
            assume(all(abs(mean_hat - t) > 8 * math.ulp(max(abs(t), abs(means[i]), abs(dev[s])))
                       for t in bank.mean_thresholds))
            got = detect(scheme, bank, moments=(mean_hat, var_hat[s]))
            want += sum(a != b for a, b in zip(got, layout_bits(scheme, i, j)))
        mean_th = [tuple(t - m for t in bank.mean_thresholds) for m in means]
        counts = np.ones((n_var, n_mean), dtype=np.intp)
        got = _detect_bits(counts, dev if n_mean > 1 else None, var_hat, mean_th,
                           bank.effective_var_thresholds)
        assert got == want


def _crossings(levels, thresholds):
    """(level index, threshold, upper) of each threshold next to each level,
    in level order, the lower one first: the ways a statistic leaves its region."""
    for i in range(len(levels)):
        if i > 0:
            yield i, thresholds[i - 1], False
        if i < len(thresholds):
            yield i, thresholds[i], True


class TestMeanErrorBound:
    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(config=explicit_configs(), n=st.integers(2, 4000), sigma_w=st.floats(0.0, 1e-3))
    def test_skipped_means_cannot_err(self, config, n, sigma_w):
        """Where run_point's rule drops a cell's normals, every state's exact
        chance of crossing each threshold next to its mean level is within
        that crossing's bound and below 2^-128."""
        norm = pytest.importorskip("scipy.stats").norm
        for scheme in Scheme:
            try:
                bank = threshold_bank(scheme, *derive_subchannels(config), sigma_w=sigma_w)
            except DegenerateLevelsError:
                continue
            s2n = [(v + sigma_w * sigma_w) / n for v in bank.variances]
            if _must_draw(bank, n)[0]:
                continue  # the cell draws normals
            for var in s2n:
                bounds = _log_crossing_bounds(bank.means, bank.mean_thresholds,
                                              lambda m, t, _: _log_normal_tail(t - m, var))
                crossings = _crossings(bank.means, bank.mean_thresholds)
                for (m, t, upper), bound in zip(crossings, bounds, strict=True):
                    z = (t - bank.means[m]) / math.sqrt(var)
                    exact = norm.logsf(z) if upper else norm.logcdf(z)
                    assert exact <= bound < LOG_NEGLIGIBLE


def _var_bounds(scheme, config, n, sigma_w, mode=ThresholdMode.NOISE_ADJUSTED):
    """run_point's bank and s2n for one cell, and each variance crossing
    (level index, threshold, upper) with its log bound."""
    bank = threshold_bank(scheme, *derive_subchannels(config), mode=mode, sigma_w=sigma_w)
    s2n = [(v + sigma_w * sigma_w) / n for v in bank.variances]
    var_th = bank.effective_var_thresholds
    bounds = _log_crossing_bounds(s2n, var_th, lambda var, t, upper:
                                  _log_chi2_tail(t / (var * (n - 1)), n - 1, upper))
    return bank, s2n, list(zip(_crossings(s2n, var_th), bounds, strict=True))


class TestVarErrorBound:
    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(config=explicit_configs(), n=st.integers(2, 10**6), sigma_w=st.floats(0.0, 1e-3),
           mode=st.sampled_from(list(ThresholdMode)))
    def test_negligible_bounds_hold(self, config, n, sigma_w, mode):
        """Where a crossing's bound is below 2^-128, its exact chance is within
        the bound, and where the cell draws nothing, every crossing's is."""
        chi2 = pytest.importorskip("scipy.stats").chi2
        for scheme in Scheme:
            try:
                bank, s2n, bounds = _var_bounds(scheme, config, n, sigma_w, mode)
            except DegenerateLevelsError:
                continue
            certain = not _must_draw(bank, n)[1]
            for (v, t, upper), bound in bounds:
                if bound >= LOG_NEGLIGIBLE:
                    assert not certain
                    continue
                exact = (chi2.logsf if upper else chi2.logcdf)(t, n - 1, scale=s2n[v])
                assert exact <= bound

    def test_canonical_composite_is_not_certain(self):
        # 2000 samples per bit, noise-free: the levels 101e-10 and 105e-10
        # sit too close for their sample variances to be certain; both
        # crossings of the threshold between them reach 2^-128
        bank, _, bounds = _var_bounds(Scheme.CGQNM, DEFAULT_SCHEME, 8000, 0.0)
        top = bank.effective_var_thresholds[2]
        assert [(c, bound >= LOG_NEGLIGIBLE) for c, bound in bounds[4:]] == [
            ((2, top, True), True), ((3, top, False), True)]

    def test_certain_variances_still_draw_means_that_can_err(self):
        # variance levels 100x apart are certain at 4000 samples, but the
        # means sit ~2 block spreads of the high level from their threshold
        config = SchemeConfig(SubchannelParams(0.0, 6e-6, 1e-10, 1e-8), DEFAULT_SCHEME.sub1)
        bank, _, bounds = _var_bounds(Scheme.GQNM, config, 4000, 0.0)
        assert all(bound < LOG_NEGLIGIBLE for _, bound in bounds)
        assert _must_draw(bank, 4000) == (True, True)
        assert run_point(bank, 4000, 20_000, NoiseSource(5)).errors > 0

    def test_mean_past_its_threshold_gets_bound_one(self):
        # paper thresholds ignore sigma_w^2, which lifts level 0's mean
        # (1e-10 + 4e-10, less a 1/n share) past its threshold 3e-10
        bank, s2n, bounds = _var_bounds(Scheme.KLJN, DEFAULT_SCHEME, 2000, 2e-5,
                                        ThresholdMode.MIDPOINT)
        assert s2n[0] * 1999 > 3e-10
        assert bounds[0] == ((0, bank.effective_var_thresholds[0], True), 0.0)


class TestRulePromise:
    def test_skipped_cell_prints_its_drawn_row(self):
        """Where the 2^-128 rule skips a cell, its estimate is the one that
        the cell's draws give."""
        import noisemod.harness as hn

        certain = []

        @settings(derandomize=True, database=None, max_examples=100, deadline=None)
        @given(config=explicit_configs(), n=st.integers(2, 10**6), sigma_w=st.floats(0.0, 1e-3),
               mode=st.sampled_from(list(ThresholdMode)))
        def check(config, n, sigma_w, mode):
            for scheme in Scheme:
                try:
                    bank = _bank(scheme, config, sigma_w, mode)
                except DegenerateLevelsError:
                    continue
                if _must_draw(bank, n) != (False, False):
                    continue
                certain.append(scheme)
                skipped = run_point(bank, n, 4000, NoiseSource(n))
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(hn, "_must_draw", lambda bank, n: (True, True))
                    drawn = run_point(bank, n, 4000, NoiseSource(n))
                assert skipped == drawn

        check()
        # 41 of the derandomized cells skip: 20 KLJN, 18 GQNM and 3 CGQNM
        assert len(certain) >= 30 and set(certain) == set(Scheme), len(certain)


def _readme_certain_n():
    """README's 2^-128 table, {(config stem, sigma_w): {scheme: N}}: the least
    samples per bit at which a shipped config's noise-adjusted cell draws nothing."""
    rows = {}
    for line in (REPO_ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 4 and cells[0].startswith(("canonical,", "paper_literal,")):
            name, sigma_w, _ = (part.strip() for part in cells[0].split(","))
            rows[name, float(sigma_w)] = {
                scheme: int(cell.replace(",", "")) for scheme, cell in zip(Scheme, cells[1:])
            }
    return rows


CERTAIN_N = _readme_certain_n()


def _draws(scheme, config, sigma_w, n_per_bit, mode=ThresholdMode.NOISE_ADJUSTED):
    """Whether a 1000-bit cell at n_per_bit samples per bit creates its generator."""
    rng = NoiseSource(1)
    bank = _bank(scheme, config, sigma_w, mode)
    run_point(bank, n_per_bit * scheme.bits_per_symbol, 1000, rng)
    return rng._gen is not None


class TestReadmeCertainTable:
    """README's 2^-128 table holds at its boundaries: at each entry's N per
    bit the cell draws nothing, and at N - 1 it draws."""

    def test_table_is_read_whole(self):
        assert sorted(CERTAIN_N) == [("canonical", 0.0), ("canonical", 2e-5),
                                     ("paper_literal", 0.0), ("paper_literal", 2e-5)]
        assert all(list(row) == list(Scheme) for row in CERTAIN_N.values())

    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("name, sigma_w", sorted(CERTAIN_N))
    def test_rule_fires_from_the_table_n(self, name, sigma_w, scheme):
        config = load_config(REPO_ROOT / "configs" / f"{name}.json")[0]
        n = CERTAIN_N[name, sigma_w][scheme]
        assert not _draws(scheme, config, sigma_w, n)
        assert _draws(scheme, config, sigma_w, n - 1)
        if sigma_w == 0.0:  # "either" mode: without noise the thresholds are the same
            assert not _draws(scheme, config, sigma_w, n, ThresholdMode.MIDPOINT)

    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("name", ["canonical", "paper_literal"])
    def test_paper_thresholds_never_fire_with_noise(self, name, scheme):
        # sigma_w^2 lifts the low levels' means past unshifted thresholds
        config = load_config(REPO_ROOT / "configs" / f"{name}.json")[0]
        n = CERTAIN_N[name, 2e-5][scheme]
        assert _draws(scheme, config, 2e-5, n, ThresholdMode.MIDPOINT)


def _readme_python_blocks():
    """README's python code blocks, as (line of the opening fence, source)."""
    lines = (REPO_ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    blocks, start = [], None
    for number, line in enumerate(lines, 1):
        if start is None and line.strip() == "```python":
            start = number
        elif start is not None and line.strip() == "```":
            blocks.append((start, "\n".join(lines[start:number - 1])))
            start = None
    return blocks


README_BLOCKS = _readme_python_blocks()


class TestReadmeExamples:
    def test_blocks_are_found(self):
        # "Library use", the hand-built bank, the block-level pieces and the sweep
        assert len(README_BLOCKS) == 4

    @pytest.mark.parametrize("fence, source", README_BLOCKS,
                             ids=[f"README.md#{k}" for k in range(1, len(README_BLOCKS) + 1)])
    def test_block_runs(self, fence, source):
        # padded so that a traceback's line numbers are README's own
        code = compile("\n" * fence + source, "README.md", "exec")
        with contextlib.redirect_stdout(io.StringIO()):
            exec(code, {})


class TestSamplerAgreement:
    """The closed-form moment draw against real samples (tests/reference.py)."""

    @pytest.mark.parametrize("sigma_w", [0.0, 2e-5])
    @pytest.mark.parametrize("n", [2, 8, 100])
    def test_moments_match_per_sample_path(self, canonical_subs, n, sigma_w):
        k = 20_000
        bits = SymbolBits(Scheme.CGQNM, (0, 0, 0, 0))
        mean, var = select_state(bits, *canonical_subs)
        rng = NoiseSource(808, n)
        blocks = [received((mean, var), n, sigma_w, rng.generator) for _ in range(k)]
        dev, var_hat = compute_moments(
            NoiseSource(809, n).generator, np.array([k]), n, sigma_w, [var],
            np.empty((2, k)),
        )
        s2 = var + sigma_w**2
        # (per-sample draws, sampler draws, law variance, law excess kurtosis):
        # mean_hat is Normal(m, s2/n); n * var_hat / s2 is chi-square(n - 1)
        for a, b, v, excess in (
            (np.array([b.mean() for b in blocks]), mean + dev, s2 / n, 0.0),
            (np.array([b.var() for b in blocks]), var_hat, 2 * (n - 1) * s2**2 / n**2,
             12.0 / (n - 1)),
        ):
            assert abs(a.mean() - b.mean()) < 4 * math.sqrt(2 * v / k)
            assert abs(a.var() - b.var()) < 4 * math.sqrt(2 * v * v * (2 + excess) / k)

    @pytest.mark.parametrize("scheme, config, n", [
        *((scheme, DEFAULT_SCHEME, 8) for scheme in Scheme),
        *((scheme, DEFAULT_SCHEME, 2) for scheme in Scheme),
        (Scheme.GQNM, NEAR_THRESHOLD, 8),
        (Scheme.CGQNM, NEAR_THRESHOLD, 8),
    ], ids=[*map(str, Scheme), *(f"{scheme}-n2" for scheme in Scheme),
            "Scheme.GQNM-near-threshold", "Scheme.CGQNM-near-threshold"])
    def test_bep_matches_per_sample_path(self, scheme, config, n):
        sigma_w, k = 2e-5, 20_000
        bps = scheme.bits_per_symbol
        sub0, sub1 = derive_subchannels(config)
        bank = threshold_bank(scheme, sub0, sub1, sigma_w=sigma_w)
        # select_state draws nothing, so each bit pattern's state is looked up once
        states = {bits: select_state(SymbolBits(scheme, bits), sub0, sub1)
                  for bits in itertools.product((0, 1), repeat=bps)}
        rng = NoiseSource(818)
        errors = 0
        for row in rng.generator.integers(0, 2, size=(k, bps)):
            bits = tuple(int(b) for b in row)
            got = detect(scheme, bank, received(states[bits], n, sigma_w, rng.generator))
            errors += sum(a != b for a, b in zip(got, bits))
        low, high = wilson_interval(errors, bps * k)
        est = run_point(bank, n, bps * k, NoiseSource(819))
        assert est.ci_low <= high and low <= est.ci_high

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_state_counts_are_uniform_multinomial(self, scheme):
        # pooled counts against uniform, and each chunk's Pearson statistic,
        # whose sum over chunks has mean chunks * (L - 1) under the multinomial
        # (equal shares would give 0, a biased draw far more)
        chunks, n_sym = 2000, 48
        bank = threshold_bank(scheme, *derive_subchannels(DEFAULT_SCHEME))
        gen = NoiseSource(828).generator
        counts = np.array([_symbol_states(gen, n_sym, bank).ravel() for _ in range(chunks)])
        states = counts.shape[1]
        assert states == 1 << scheme.bits_per_symbol
        assert (counts.sum(axis=1) == n_sym).all()

        def pearson(observed, total):
            expected = total / states
            return float(((observed - expected) ** 2 / expected).sum(axis=-1).sum())

        # chi-square(L - 1) critical values at p = 1e-3
        critical = {2: 10.83, 4: 16.27, 16: 37.70}[states]
        assert pearson(counts.sum(axis=0), chunks * n_sym) < critical
        dof = chunks * (states - 1)
        assert abs(pearson(counts, n_sym) - dof) < 5 * math.sqrt(2 * dof)

    @pytest.mark.parametrize("scheme, per_chunk", [
        (Scheme.KLJN, ["multinomial", "standard_gamma"]),
        (Scheme.GQNM, ["multinomial", "standard_gamma"]),
        (Scheme.CGQNM, ["multinomial", "standard_gamma"]),
    ])
    def test_stream_order_per_chunk(self, monkeypatch, scheme, per_chunk):
        # KLJN has one mean level, and no mean of the default config can err
        # with chance 2^-128, so no scheme draws normals for the mean
        assert _draws_per_run(monkeypatch, scheme, DEFAULT_SCHEME, 8) == per_chunk * 3

    @pytest.mark.parametrize("scheme, config, n, per_chunk", [
        (Scheme.GQNM, NEAR_THRESHOLD, 8, ["multinomial", "standard_normal", "standard_gamma"]),
        (Scheme.CGQNM, NEAR_THRESHOLD, 8, ["multinomial", "standard_normal", "standard_gamma"]),
        (Scheme.KLJN, DEFAULT_SCHEME, 2, ["multinomial", "standard_normal"]),
        (Scheme.CGQNM, NEAR_THRESHOLD, 2, ["multinomial", "standard_normal", "standard_normal"]),
    ], ids=["gqnm-near-threshold", "cgqnm-near-threshold", "kljn-n2", "cgqnm-near-threshold-n2"])
    def test_stream_order_where_means_can_err_or_n_is_2(self, monkeypatch, scheme, config, n,
                                                      per_chunk):
        # a mean that can err is drawn, and at n = 2 the chi-square(1) draw
        # is a standard normal, squared
        assert _draws_per_run(monkeypatch, scheme, config, n) == per_chunk * 3


def _draws_per_run(monkeypatch, scheme, config, n):
    """The generator methods one run_point call uses, in order, over 150
    symbols in chunks of 64, 64 and 22."""
    import noisemod.harness as hn

    calls = []

    class Recording:
        def __init__(self, gen):
            self._gen = gen

        def __getattr__(self, name):
            calls.append(name)
            return getattr(self._gen, name)

    class Source:
        generator = Recording(NoiseSource(838).generator)

    monkeypatch.setattr(hn, "CHUNK_SYMBOLS", 64)
    run_point(_bank(scheme, config, 2e-5), n, 150 * scheme.bits_per_symbol, Source())
    return calls


def _tiny_spec(**overrides):
    kwargs = dict(
        n=(40, 100),
        sigma_w=(2e-5,),
        scheme_config=DEFAULT_SCHEME,
        min_bits=1000,
        seed=13,
    )
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


def _cpus(monkeypatch, count):
    """Let run_sweep see `count` CPUs, by affinity and by count."""
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


class TestRunSweep:
    def test_grid_size_and_order(self):
        records = run_sweep(_tiny_spec()).records
        assert len(records) == 6
        got = [(r.scheme, r.value) for r in records]
        want = [(s, v) for s in (Scheme.KLJN, Scheme.GQNM, Scheme.CGQNM) for v in (40, 100)]
        assert got == want

    def test_worker_count_does_not_change_results(self, monkeypatch):
        import noisemod.harness as hn

        spec = _tiny_spec()
        serial = run_sweep(spec, workers=1)
        # one symbol per worker is enough, and 4 CPUs, so the sweep really runs 4 threads
        monkeypatch.setattr(hn, "SYMBOLS_PER_WORKER", 1)
        _cpus(monkeypatch, 4)
        parallel = run_sweep(spec, workers=4)
        for a, b in zip(serial.records, parallel.records):
            assert a.estimate == b.estimate
            assert a.fingerprint == b.fingerprint

    def test_small_sweep_runs_in_process(self, monkeypatch):
        serial = run_sweep(_tiny_spec(), workers=1)

        class Unstartable(threading.Thread):
            def start(self):
                raise AssertionError("a thread was started")

        _cpus(monkeypatch, 4)
        monkeypatch.setattr(threading, "Thread", Unstartable)
        pooled = run_sweep(_tiny_spec(), workers=4)
        assert [r.estimate for r in pooled.records] == [r.estimate for r in serial.records]
        assert [r.fingerprint for r in pooled.records] == [r.fingerprint for r in serial.records]

    def test_pool_size_follows_symbol_count(self, monkeypatch):
        import noisemod.harness as hn

        started = []

        class Recorder(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", Recorder)
        _cpus(monkeypatch, 8)
        monkeypatch.setattr(hn, "SYMBOLS_PER_WORKER", 1000)
        # 2 values x (1000 + 500 + 250) symbols = 3500 symbols: 3 workers, not 8,
        # the calling thread and 2 helpers
        assert len(run_sweep(_tiny_spec(), workers=8).records) == 6
        assert len(started) == 2

    def test_pool_size_capped_by_cpu_count(self, monkeypatch):
        import noisemod.harness as hn

        spec = _tiny_spec()
        cells = [(scheme, i) for scheme in spec.schemes for i in range(len(spec.values))]
        monkeypatch.setattr(hn, "SYMBOLS_PER_WORKER", 1)
        _cpus(monkeypatch, 3)
        assert hn._pool_size(spec, cells, 10**6) == 3
        # pinned to one of 8 CPUs (taskset -c 0): one worker, not 8
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert hn._pool_size(spec, cells, 10**6) == 1
        # no affinity call (not Linux): the CPU count caps
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert hn._pool_size(spec, cells, 10**6) == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: one worker
        assert hn._pool_size(spec, cells, 10**6) == 1

    @pytest.mark.parametrize("workers", [0, -1])
    def test_nonpositive_workers_rejected(self, monkeypatch, workers):
        import noisemod.harness as hn

        def started(*args, **kwargs):
            raise AssertionError("a cell or thread was started")

        class Unstartable(threading.Thread):
            start = started

        monkeypatch.setattr(threading, "Thread", Unstartable)
        monkeypatch.setattr(hn, "_run_cell", started)
        with pytest.raises(ValueError, match="workers"):
            run_sweep(_tiny_spec(), workers=workers)

    def test_two_workers_run_on_two_threads(self, monkeypatch, tmp_path):
        import noisemod.harness as hn

        # 2 KLJN cells of SYMBOLS_PER_WORKER symbols: two shares, so two workers
        spec = _tiny_spec(schemes=(Scheme.KLJN,), min_bits=hn.SYMBOLS_PER_WORKER)
        _cpus(monkeypatch, 2)
        serial = run_sweep(spec, workers=1)
        threads, real = [], hn._run_cell
        barrier = threading.Barrier(2, timeout=30)

        def recorded(*args):
            threads.append(threading.get_ident())
            barrier.wait()  # each worker's cell waits for the other's: both run one
            return real(*args)

        monkeypatch.setattr(hn, "_run_cell", recorded)
        threaded = run_sweep(spec, workers=2)
        assert threaded.failures == () and len(set(threads)) == 2
        one, two = tmp_path / "w1.csv", tmp_path / "w2.csv"
        emit(serial.records, path=str(one))
        emit(threaded.records, path=str(two))
        assert one.read_bytes() == two.read_bytes()

    @pytest.mark.parametrize("workers", [1, 2], ids=["in-process", "threads"])
    def test_interrupt_in_caller_stops_the_sweep(self, monkeypatch, workers):
        import noisemod.harness as hn

        monkeypatch.setattr(hn, "SYMBOLS_PER_WORKER", 1)
        _cpus(monkeypatch, 2)
        caller, released, begun = threading.get_ident(), threading.Event(), []

        def cell(spec, scheme, index):
            begun.append((scheme, index))
            if threading.get_ident() == caller:
                raise KeyboardInterrupt
            released.wait(30)  # the helper's cell is still in flight when the caller stops

        spec = _tiny_spec()
        before = set(threading.enumerate())
        monkeypatch.setattr(hn, "_run_cell", cell)
        with pytest.raises(KeyboardInterrupt):
            run_sweep(spec, workers=workers)
        released.set()
        for thread in set(threading.enumerate()) - before:
            thread.join(30)
            assert not thread.is_alive()
        # the caller's cell and at most one helper cell in flight; no later cell started
        grid = [(scheme, i) for scheme in spec.schemes for i in range(len(spec.values))]
        assert 1 <= len(begun) <= workers
        assert sorted(begun, key=grid.index) == grid[:len(begun)]

    def _helper_fails_first(self, monkeypatch, failure):
        """Stub _run_cell so that a helper thread's first cell raises `failure`
        and every other cell, once that has happened, runs for real."""
        import noisemod.harness as hn

        monkeypatch.setattr(hn, "SYMBOLS_PER_WORKER", 1)
        _cpus(monkeypatch, 2)
        caller, raised, failed, real = threading.get_ident(), threading.Event(), [], hn._run_cell

        def cell(spec, scheme, index):
            if threading.get_ident() != caller and not raised.is_set():
                failed.append((scheme, index))
                raised.set()
                raise failure
            raised.wait(30)  # the caller holds its first cell until a helper has failed
            return real(spec, scheme, index)

        monkeypatch.setattr(hn, "_run_cell", cell)
        return failed

    def test_helper_base_exception_is_reraised(self, monkeypatch):
        class Crash(BaseException):
            pass

        failed = self._helper_fails_first(monkeypatch, Crash("helper died"))
        with pytest.raises(Crash, match="helper died"):
            run_sweep(_tiny_spec(), workers=2)
        assert len(failed) == 1

    def test_helper_exception_fails_only_its_cell(self, monkeypatch):
        spec = _tiny_spec()
        serial = run_sweep(spec, workers=1)
        failed = self._helper_fails_first(monkeypatch, ValueError("boom"))
        result = run_sweep(spec, workers=2)
        [(scheme, index)] = failed
        assert result.failures == (CellFailure(scheme, spec.values[index], "ValueError: boom"),)
        others = [r for r in serial.records if (r.scheme, r.value) != (scheme, spec.values[index])]
        assert [(r.estimate, r.fingerprint) for r in result.records] == [
            (r.estimate, r.fingerprint) for r in others
        ]

    def test_cells_are_independent_of_grid_shape(self):
        lone = run_sweep(_tiny_spec(n=(40,))).records
        full = run_sweep(_tiny_spec()).records
        for scheme_idx in range(3):
            assert full[scheme_idx * 2].estimate == lone[scheme_idx].estimate

    @pytest.mark.parametrize("mode", list(ThresholdMode))
    @pytest.mark.parametrize("grid", [
        dict(n=(40, 100), sigma_w=(2e-5,)), dict(n=(100,), sigma_w=(0.0, 2e-5)),
    ], ids=["n", "sigma_w"])
    def test_cells_are_run_point_on_their_bank(self, grid, mode):
        # a sweep cell is the library call: run_point on the bank of its
        # scheme, config, sigma_w and mode, at its samples per symbol and stream
        spec = _tiny_spec(**grid, threshold_mode=mode)
        result = run_sweep(spec)
        assert result.failures == () and len(result.records) == 6
        for record in result.records:
            i = spec.values.index(record.value)
            bank = _bank(record.scheme, spec.scheme_config, record.sigma_w, mode)
            rng = NoiseSource(spec.seed, stable_stream_id(record.scheme.value, i))
            n_symbol = record.n * record.scheme.bits_per_symbol  # per-bit fairness
            assert run_point(bank, n_symbol, spec.min_bits, rng) == record.estimate

    def test_per_symbol_fairness_shrinks_blocks(self):
        per_bit = run_sweep(_tiny_spec(n=(100,))).records
        per_sym = run_sweep(_tiny_spec(n=(100,), fairness=Fairness.PER_SYMBOL)).records
        # composite symbols carry 4 bits: per-bit fairness gives them 4x the
        # samples, so its estimates must not be worse than per-symbol ones
        assert per_bit[2].estimate.bep <= per_sym[2].estimate.bep

    @pytest.mark.parametrize("workers", [1, 2], ids=["in-process", "pool"])
    def test_failures_recorded_and_sweep_continues(self, monkeypatch, workers):
        import noisemod.harness as hn

        # equal subchannels: the composite means coincide, so the CGQNM cell
        # fails while KLJN, which reads sub0's variances alone, runs; CGQNM
        # comes first, so the KLJN cell runs after the failure
        spec = _tiny_spec(
            n=(40,), schemes=(Scheme.CGQNM, Scheme.KLJN),
            scheme_config=SchemeConfig(DEFAULT_SCHEME.sub0, DEFAULT_SCHEME.sub0),
        )
        if workers > 1:  # one symbol per worker is enough, so the sweep really runs 2 threads
            monkeypatch.setattr(hn, "SYMBOLS_PER_WORKER", 1)
            _cpus(monkeypatch, 2)
        result = run_sweep(spec, workers=workers)
        assert len(result.failures) == 1
        assert result.failures[0].scheme is Scheme.CGQNM
        # the exception type, then its message
        assert result.failures[0].error.startswith(
            "DegenerateLevelsError: coincident composite mean levels")
        assert len(result.records) == 1
        assert result.records[0].scheme is Scheme.KLJN

    def test_threshold_mode_changes_results(self):
        adjusted = run_sweep(_tiny_spec(n=(100,), min_bits=4000)).records
        plain = run_sweep(
            _tiny_spec(n=(100,), min_bits=4000, threshold_mode=ThresholdMode.MIDPOINT)
        ).records
        # without the sigma_w^2 shift the KLJN variance detector saturates
        assert plain[0].estimate.bep > adjusted[0].estimate.bep

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="ascending"):
            _tiny_spec(n=(100, 40))
        with pytest.raises(ValueError, match="min_bits"):
            _tiny_spec(min_bits=10)
        with pytest.raises(ValueError, match="non-empty"):
            _tiny_spec(n=())
        with pytest.raises(ValueError, match="seed >= 0 required"):
            _tiny_spec(seed=-1)
        with pytest.raises(ValueError, match="at least one scheme"):
            _tiny_spec(schemes=())
        with pytest.raises(ValueError, match="n >= 2 required"):
            _tiny_spec(n=(1,))

    @pytest.mark.parametrize("n", [(1, 40), (1, 5, 40)], ids=str)
    def test_spec_refuses_n_below_two_anywhere(self, n):
        # an N sweep runs every N in its tuple, the first one included
        with pytest.raises(ValueError, match="n >= 2 required, got 1"):
            _tiny_spec(n=n)

    def test_spec_refuses_a_fractional_n(self):
        # a block holds a whole number of samples; numpy integers are read as int
        with pytest.raises(TypeError, match="integer"):
            _tiny_spec(n=(40.5,))
        assert type(_tiny_spec(n=(np.int64(40),)).n[0]) is int

    def test_spec_refuses_two_swept_tuples(self):
        with pytest.raises(ValueError, match="one variable at a time"):
            _tiny_spec(n=(40, 100), sigma_w=(0.0, 2e-5))

    @pytest.mark.parametrize("sigma_w, message", [
        (-1e-5, "sigma_w >= 0 required, got -1e-05"),
        (math.nan, "sigma_w must be finite, got nan"),
        (math.inf, "sigma_w must be finite, got inf"),
        (1e200, "sigma_w^2 must be finite, got sigma_w=1e+200"),
    ])
    @pytest.mark.parametrize("swept", [False, True], ids=["fixed", "swept"])
    def test_spec_refuses_bad_sigma_w(self, sigma_w, message, swept):
        # check_sigma_w's messages, which `simulate` prints for these values
        # when they come from a config file
        grid = dict(n=(40,), sigma_w=(0.0, sigma_w)) if swept else dict(sigma_w=(sigma_w,))
        with pytest.raises(ConfigError) as raised:
            _tiny_spec(**grid)
        assert str(raised.value) == message

    def test_spec_grid(self):
        spec = _tiny_spec(n=[40], sigma_w=[-0.0, 2e-5])
        assert (spec.n, spec.sigma_w) == ((40,), (0.0, 2e-5))
        assert math.copysign(1.0, spec.sigma_w[0]) == 1.0  # -0.0 is kept as 0.0
        assert (spec.variable, spec.values) == (SweepVariable.SIGMA_W, (0.0, 2e-5))
        assert [spec.point(i) for i in range(2)] == [(40, 0.0), (40, 2e-5)]
        spec = _tiny_spec()
        assert (spec.variable, spec.values) == (SweepVariable.SAMPLES_N, (40, 100))
        assert [spec.point(i) for i in range(2)] == [(40, 2e-5), (100, 2e-5)]


CSV_HEADER = "scheme,variable,value,N,sigma_w,bits,errors,bep,ci_low,ci_high,seed,fingerprint"


class TestEmit:
    @pytest.fixture
    def records(self):
        return run_sweep(_tiny_spec(schemes=(Scheme.KLJN,))).records

    def test_csv_layout(self, records, tmp_path):
        path = tmp_path / "out.csv"
        emit(records, format="csv", path=str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(records)
        first = dict(zip(CSV_HEADER.split(","), lines[1].split(",")))
        assert first["scheme"] == "kljn"
        assert first["variable"] == "n"
        assert first["value"] == "40"
        assert int(first["bits"]) >= 1000
        # floats are emitted with 17 significant digits and round-trip
        assert float(first["bep"]) == records[0].estimate.bep
        assert first["bep"] == format(records[0].estimate.bep, ".17g")

    def test_json_layout(self, records, tmp_path):
        path = tmp_path / "out.json"
        emit(records, format="json", path=str(path))
        data = json.loads(path.read_text())
        assert len(data) == len(records)
        assert ",".join(data[0]) == CSV_HEADER
        assert data[0]["bep"] == records[0].estimate.bep

    def test_reemission_is_byte_identical(self, records, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit(records, format="csv", path=str(a))
        emit(records, format="csv", path=str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_target(self, records, capsys):
        emit(records, format="csv", path="-")
        out = capsys.readouterr().out
        assert out.startswith("scheme,")

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no records"):
            emit([], format="csv", path="-")

    def test_bad_format_rejected(self, records):
        with pytest.raises(ValueError, match="format"):
            emit(records, format="xml", path="-")

    def test_io_error_carries_path(self, records):
        with pytest.raises(OSError, match="no-such-dir"):
            emit(records, format="csv", path="/no-such-dir/out.csv")
