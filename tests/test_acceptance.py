"""Acceptance gate: one test per criterion, each printing a PASS line.

Statistical criteria use fixed seeds, so every run is deterministic.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from noisemod import (
    ChannelConfig,
    DEFAULT_SCHEME,
    NoiseSource,
    Scheme,
    SweepSpec,
    SweepVariable,
    chi_square_moment,
    emit,
    load_config,
    run_sweep,
    sample_variance_spread,
)
from noisemod.cli import main
from noisemod.harness import compute_moments
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

LITERAL_CFG = REPO_ROOT / "configs" / "paper_literal.json"

# Reference subchannel values (volts, volts^2) for the canonical derived
# configuration; the oracle below recomputes every derived constant from
# these by plain sum/sort/midpoint arithmetic.
SUB0 = (1e-3, 2e-2, 1e-10, 5e-10)
SUB1 = (5e-3, 1e-1, 2e-9, 1e-8)


def _report(capsys, line):
    with capsys.disabled():
        print(line, flush=True)


def _overlap(a, b):
    return not (a.ci_low > b.ci_high or b.ci_low > a.ci_high)


def test_criterion_1_derived_constants_oracle(capsys):
    t0 = time.perf_counter()
    assert main(["derive", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    wall = time.perf_counter() - t0

    mids = lambda xs: [(x + y) / 2.0 for x, y in zip(xs, xs[1:])]  # noqa: E731
    means = [SUB0[0] + SUB1[0], SUB0[1] + SUB1[0], SUB0[0] + SUB1[1], SUB0[1] + SUB1[1]]
    variances = sorted(
        [SUB0[2] + SUB1[2], SUB0[3] + SUB1[2], SUB0[2] + SUB1[3], SUB0[3] + SUB1[3]]
    )
    assert payload["means"] == means
    assert payload["variances"] == variances
    assert payload["mean_thresholds"] == mids(means)
    assert payload["var_thresholds"] == mids(variances)
    np.testing.assert_allclose(means, [6e-3, 2.5e-2, 1.01e-1, 1.2e-1], rtol=5e-16)
    np.testing.assert_allclose(variances, [2.1e-9, 2.5e-9, 1.01e-8, 1.05e-8], rtol=5e-16)
    assert wall < 1.0
    _report(capsys, f"PASS criterion 1: derived constants exact vs oracle [{wall:.2f}s]")


def test_criterion_2_round_trip_soundness(capsys):
    spec = SweepSpec(
        variable=SweepVariable.SAMPLES_N,
        values=(10_000,),
        scheme_config=DEFAULT_SCHEME,
        channel=ChannelConfig(0.0),
        n=10_000,
        min_bits=100_000,
        seed=202,
    )
    t0 = time.perf_counter()
    result = run_sweep(spec, workers=2)
    wall = time.perf_counter() - t0
    assert not result.failures
    beps = {}
    for record in result.records:
        beps[record.scheme.value] = record.estimate.bep
        assert record.estimate.bits >= 100_000
        assert record.estimate.bep <= 1e-3
    assert wall < 30.0
    _report(
        capsys,
        f"PASS criterion 2: noiseless round-trip BEPs {beps} all <= 1e-3 [{wall:.1f}s]",
    )


def test_criterion_3_estimator_statistics(capsys):
    m_f, var_f = 6e-3, 2.1e-9
    n, reps, chunk = 100, 1_000_000, 50_000
    gen = NoiseSource(303).generator
    counts = np.array([chunk])
    mean_hats, var_hats = [], []
    t0 = time.perf_counter()
    for _ in range(reps // chunk):
        mu_dev, var_hat = compute_moments(gen, counts, n, 0.0, [var_f], np.empty((2, chunk)))
        mean_hats.append(m_f + mu_dev)
        var_hats.append(var_hat)
    mean_hats = np.concatenate(mean_hats)
    var_hats = np.concatenate(var_hats)
    wall = time.perf_counter() - t0

    # sample mean ~ Normal(m_f, var_f / n)
    mean_tol = 3.0 * math.sqrt(var_f / (n * reps))
    assert abs(mean_hats.mean() - m_f) < mean_tol
    var_of_mean = float(np.var(mean_hats))
    assert var_of_mean == pytest.approx(var_f / n, rel=3.0 * math.sqrt(2.0 / reps))
    # sample variance mean carries the (n-1)/n bias of the 1/N divisor
    assert var_hats.mean() == pytest.approx((n - 1) / n * var_f, rel=1e-2)
    assert wall < 60.0
    _report(
        capsys,
        "PASS criterion 3: block estimators match Normal(m, s2/N) and "
        f"(N-1)/N bias over 1e6 blocks [{wall:.1f}s]",
    )


def test_criterion_4_chi_square_and_spread(capsys):
    t0 = time.perf_counter()
    k, m = 99, 4
    exact = chi_square_moment(k, m)
    assert exact == 99.0 * 101.0 * 103.0 * 105.0
    gen = np.random.default_rng(404404)
    draws = gen.chisquare(k, size=10_000_000)
    mc_moment = float(np.mean(draws**m))
    assert mc_moment == pytest.approx(exact, rel=2e-2)
    del draws

    sigma2, n, reps, chunk = 2.1e-9, 100, 1_000_000, 50_000
    counts = np.array([chunk])
    var_hats = []
    for _ in range(reps // chunk):
        var_hats.append(compute_moments(gen, counts, n, 0.0, [sigma2], np.empty((2, chunk)))[1])
    mc_spread = float(np.var(np.concatenate(var_hats)))
    predicted = sample_variance_spread(sigma2, n)
    assert mc_spread == pytest.approx(predicted, rel=3e-2)
    wall = time.perf_counter() - t0
    assert wall < 60.0
    _report(
        capsys,
        f"PASS criterion 4: chi-square moment ({mc_moment / exact:.4f}x MC) and "
        f"spread ({mc_spread / predicted:.4f}x MC) agree [{wall:.1f}s]",
    )


def test_criterion_5_mean_condition(capsys):
    t0 = time.perf_counter()
    assert main(["check", "--n", "100", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    wall = time.perf_counter() - t0
    assert report["mean_ratio"] == pytest.approx(30.9, abs=0.05)
    assert report["mean_satisfied"] is True
    assert report["margin_factor"] == 1.0
    assert wall < 1.0
    _report(
        capsys,
        f"PASS criterion 5: mean-condition ratio {report['mean_ratio']:.2f} "
        f"satisfied at margin 1 [{wall:.2f}s]",
    )


def _literal_sweep_spec(variable, values, n, seed):
    scheme_config, channel, _ = load_config(LITERAL_CFG)
    return SweepSpec(
        variable=variable,
        values=values,
        scheme_config=scheme_config,
        channel=channel,
        n=n,
        min_bits=200_000,
        seed=seed,
    )


def _by_scheme(records):
    out = {}
    for r in records:
        out.setdefault(r.scheme, []).append(r)
    return out


def test_criterion_6_bep_versus_n_trend(capsys):
    spec = _literal_sweep_spec(SweepVariable.SAMPLES_N, (40, 55, 70, 85, 100), 100, seed=606)
    t0 = time.perf_counter()
    result = run_sweep(spec, workers=2)
    wall = time.perf_counter() - t0
    assert not result.failures
    per_scheme = _by_scheme(result.records)
    for scheme, records in per_scheme.items():
        for a, b in zip(records, records[1:]):
            assert b.estimate.bep <= a.estimate.bep or _overlap(a.estimate, b.estimate), (
                f"{scheme.value}: BEP increased from N={a.value} to N={b.value}"
            )
    kljn = per_scheme[Scheme.KLJN][-1].estimate
    gqnm = per_scheme[Scheme.GQNM][-1].estimate
    cgqnm = per_scheme[Scheme.CGQNM][-1].estimate
    assert cgqnm.bep < kljn.bep
    assert cgqnm.ci_high < kljn.ci_low  # non-overlapping 95% intervals
    assert wall < 600.0
    gq_note = (
        "separated" if cgqnm.ci_high < gqnm.ci_low else
        f"within CI (gqnm {gqnm.bep:.4f} [{gqnm.ci_low:.4f},{gqnm.ci_high:.4f}] vs "
        f"cgqnm {cgqnm.bep:.4f} [{cgqnm.ci_low:.4f},{cgqnm.ci_high:.4f}])"
    )
    _report(
        capsys,
        "PASS criterion 6: BEP non-increasing in N; composite "
        f"{cgqnm.bep:.4f} < kljn {kljn.bep:.4f} beyond CI at N=100; "
        f"gqnm comparison {gq_note} [{wall:.1f}s]",
    )


def test_criterion_7_bep_versus_sigma_trend(capsys):
    spec = _literal_sweep_spec(
        SweepVariable.SIGMA_W, (1e-5, 2e-5, 3e-5, 4e-5, 5e-5), 100, seed=707
    )
    t0 = time.perf_counter()
    result = run_sweep(spec, workers=2)
    wall = time.perf_counter() - t0
    assert not result.failures
    for scheme, records in _by_scheme(result.records).items():
        for a, b in zip(records, records[1:]):
            assert b.estimate.bep >= a.estimate.bep or _overlap(a.estimate, b.estimate), (
                f"{scheme.value}: BEP decreased from sigma_w={a.value} to {b.value}"
            )
    assert wall < 600.0
    _report(capsys, f"PASS criterion 7: BEP non-decreasing in sigma_w [{wall:.1f}s]")


def test_criterion_8_worker_count_determinism(capsys, tmp_path, monkeypatch):
    import noisemod.harness as hn

    spec = _literal_sweep_spec(SweepVariable.SAMPLES_N, (40, 55, 70, 85, 100), 100, seed=606)
    # the sweep is small enough to run in-process; force 8 real worker threads
    monkeypatch.setattr(hn, "SYMBOLS_PER_WORKER", 1)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    t0 = time.perf_counter()
    one = run_sweep(spec, workers=1)
    eight = run_sweep(spec, workers=8)
    path_one, path_eight = tmp_path / "w1.csv", tmp_path / "w8.csv"
    emit(one.records, format="csv", path=str(path_one))
    emit(eight.records, format="csv", path=str(path_eight))
    wall = time.perf_counter() - t0
    assert path_one.read_bytes() == path_eight.read_bytes()
    assert wall < 1200.0
    _report(
        capsys,
        f"PASS criterion 8: 1-worker and 8-worker sweeps byte-identical [{wall:.1f}s]",
    )
