"""End-to-end CLI tests run through the main() entry point."""

import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings

from noisemod import load_config
from noisemod.cli import main
from pathlib import Path

from test_analysis import explicit_configs

REPO_ROOT = Path(__file__).resolve().parents[1]

CANONICAL_CFG = str(REPO_ROOT / "configs" / "canonical.json")
LITERAL_CFG = str(REPO_ROOT / "configs" / "paper_literal.json")

# One explicit subchannel block; the last config-error cases vary it.
SUB = {"m_L": 1, "m_H": 2, "var_0": 1, "var_1": 2}

# 1 followed by 400 zeros: an int that N^2, and N itself, cannot fit in a float.
HUGE_N = "1" + "0" * 400
HUGE_N_ERROR = f"error: N={HUGE_N} samples per symbol is too large for float arithmetic\n"

# Variance sums (11, 40, 21, 50)e-10 in level order: not ascending.
OUT_OF_ORDER_VARIANCES = {
    "sigma_w": 0.0, "samples_per_symbol": 2000,
    "explicit": {
        "sub0": {"m_L": 1e-3, "m_H": 2e-2, "var_0": 1e-10, "var_1": 30e-10},
        "sub1": {"m_L": 5e-2, "m_H": 1e-1, "var_0": 10e-10, "var_1": 20e-10},
    },
}


@pytest.mark.parametrize("argv", [
    ["derive"],
    ["check"],
    ["simulate", "--scheme", "cgqnm", "--fairness", "per-symbol", "--min-bits", "1000"],
])
def test_out_of_order_variances_exit_one(tmp_path, capsys, argv):
    path = tmp_path / "swapped.json"
    path.write_text(json.dumps(OUT_OF_ORDER_VARIANCES))
    assert main([*argv, "--config", str(path)]) == 1
    assert "variances out of level order" in capsys.readouterr().err


class TestDerive:
    def test_module_entry_point_matches_main(self, capsys):
        # `python -m noisemod.cli` goes through the __main__ guard and run()
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        done = subprocess.run([sys.executable, "-m", "noisemod.cli", "derive", "--json"],
                              capture_output=True, text=True, timeout=60, env=env)
        assert main(["derive", "--json"]) == 0
        assert (done.returncode, done.stdout) == (0, capsys.readouterr().out)

    def test_json_output_default_config(self, capsys):
        assert main(["derive", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["means"] == [0.006, 0.025, 0.101, 0.12000000000000001]
        assert payload["variances"] == [2.1e-9, 2.5e-9, 1.01e-8, 1.05e-8]
        assert payload["var_thresholds"] == [2.3e-9, 6.3e-9, 1.03e-8]
        assert payload["banks"]["kljn"]["mean_thresholds"] == []
        assert payload["banks"]["gqnm"]["var_thresholds"] == [3e-10]

    def test_config_file_matches_defaults(self, capsys):
        assert main(["derive", "--json", "--config", CANONICAL_CFG]) == 0
        from_file = json.loads(capsys.readouterr().out)
        assert main(["derive", "--json"]) == 0
        builtin = json.loads(capsys.readouterr().out)
        assert from_file == builtin

    def test_text_output(self, capsys):
        assert main(["derive"]) == 0
        out = capsys.readouterr().out
        assert "composite means" in out
        assert "kljn thresholds" in out

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(config=explicit_configs())
    def test_json_subchannels_round_trip(self, tmp_path_factory, config):
        """Any explicit config loads back equal; where derive accepts it, its
        --json subchannel blocks, written back as an explicit config, load to
        the same config and derive the same bytes."""
        path = tmp_path_factory.getbasetemp() / "round_trip.json"

        def derive_json(explicit):
            path.write_text(json.dumps({"explicit": explicit}))
            assert load_config(path)[0] == config
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(["derive", "--json", "--config", str(path)])
            return code, out.getvalue()

        code, first = derive_json(dataclasses.asdict(config))
        if code == 0:  # derive refuses composite levels that coincide or cross
            payload = json.loads(first)
            assert derive_json({k: payload[k] for k in ("sub0", "sub1")}) == (0, first)

    def test_degenerate_config_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "explicit": {
                "sub0": {"m_L": 1.0, "m_H": 2.0, "var_0": 1.0, "var_1": 2.0},
                "sub1": {"m_L": 1.0, "m_H": 2.0, "var_0": 1.0, "var_1": 2.0},
            },
        }))
        assert main(["derive", "--config", str(path)]) == 1
        assert "coincident" in capsys.readouterr().err


class TestCheck:
    def test_canonical_margins_json(self, capsys):
        assert main(["check", "--n", "100", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mean_ratio"] == pytest.approx(30.90, abs=0.05)
        assert report["mean_satisfied"] is True
        assert report["var_satisfied"] is False
        assert report["var_ratios"][0] == pytest.approx(0.206, abs=5e-3)
        assert report["formula_mode"] == "corrected"

    def test_fourth_moment_formula_selected(self, capsys):
        assert main(["check", "--n", "100", "--variance-formula", "paper", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["formula_mode"] == "paper"
        assert report["warnings"]

    def test_text_output(self, capsys):
        assert main(["check", "--n", "100"]) == 0
        out = capsys.readouterr().out
        assert "mean condition" in out
        assert "NOT satisfied" in out
        assert "warning:" not in out
        assert main(["check", "--n", "3", "--variance-formula", "paper"]) == 0
        out = capsys.readouterr().out
        assert "\nwarning: fourth-moment spread formula mixes units" in out

    @pytest.mark.parametrize("formula, variances, key", [
        # the fourth-moment spread is negative at every level: NaN spreads and ratios
        ("paper", ((1, 2), (3, 7)), "var_spreads"),
        # spreads underflow to 0 under positive gaps: infinite ratios
        ("corrected", ((1e-170, 2e-170), (3e-170, 7e-170)), "var_ratios"),
    ])
    def test_json_is_strict(self, tmp_path, capsys, formula, variances, key):
        (v00, v10), (v01, v11) = variances
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"explicit": {
            "sub0": {"m_L": 1, "m_H": 2, "var_0": v00, "var_1": v10},
            "sub1": {"m_L": 3, "m_H": 6, "var_0": v01, "var_1": v11},
        }}))
        argv = ["check", "--n", "100", "--variance-formula", formula, "--json",
                "--config", str(path)]
        assert main(argv) == 0

        def refuse(name):
            raise ValueError(f"non-JSON constant {name}")

        report = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert report[key] == [None, None, None]
        assert report["satisfied"] is (formula != "paper")

    @pytest.mark.parametrize("factor", ["nan", "inf", "0", "-1"])
    def test_bad_margin_factor_exits_one(self, capsys, factor):
        assert main(["check", f"--margin-factor={factor}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "margin factor must be finite and > 0" in captured.err

    @pytest.mark.parametrize("content, message", [
        (json.dumps({"m_L0": 1e-3, "alhpa": 2}), "alhpa"),
        (json.dumps({"explicit": {"sub0": 1, "sub1": SUB}}), "explicit.sub0 must be an object"),
        (json.dumps({"explicit": {"sub0": {**SUB, "x": 1}, "sub1": SUB}}),
         "unknown keys in explicit.sub0: x"),
        (json.dumps({"explicit": {"sub0": SUB, "sub1": {"m_L": 3, "m_H": 4}}}),
         "explicit.sub1 missing keys: var_0, var_1"),
        ('{"m_L0": 1e-3,', "not valid JSON"),
        (b"\xff{}", "not valid JSON"),
        ("[1, 2]", "top level must be an object"),
        (json.dumps({"explicit": {"sub0": SUB, "sub2": SUB}}),
         "explicit must contain exactly sub0 and sub1"),
    ], ids=["unknown-key", "sub-not-object", "sub-unknown-key", "sub-missing-key",
            "invalid-json", "not-utf8", "top-not-object", "explicit-names"])
    def test_unknown_config_key_exits_one(self, tmp_path, capsys, content, message):
        path = tmp_path / "bad.json"
        (path.write_bytes if isinstance(content, bytes) else path.write_text)(content)
        assert main(["check", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {path}: "), err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["check", "--n", HUGE_N],
        ["check", "--config", "huge.json"],
        ["simulate", "--scheme", "kljn", "--config", "huge.json"],
    ], ids=["check-n", "check-config", "simulate-config"])
    def test_n_beyond_float_range_exits_one(self, tmp_path, monkeypatch, capsys, argv):
        config = {**json.loads(Path(CANONICAL_CFG).read_text()), "samples_per_symbol": int(HUGE_N)}
        (tmp_path / "huge.json").write_text(json.dumps(config))
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == HUGE_N_ERROR


class TestSimulate:
    def test_single_point_csv(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        code = main([
            "simulate", "--scheme", "kljn", "--n", "40", "--min-bits", "1000",
            "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("scheme,variable,value,N,sigma_w,bits,errors,bep")
        assert len(lines) == 2
        assert lines[1].split(",")[0] == "kljn"

    def test_n_range_sweep(self, tmp_path):
        out = tmp_path / "run.csv"
        code = main([
            "simulate", "--scheme", "kljn", "--n", "40:100:15", "--min-bits", "1000",
            "--out", str(out),
        ])
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        assert [r.split(",")[2] for r in rows] == ["40", "55", "70", "85", "100"]

    def test_sigma_sweep_json(self, tmp_path):
        out = tmp_path / "run.json"
        code = main([
            "simulate", "--scheme", "gqnm", "--n", "50", "--sigma-w", "1e-5:3e-5:1e-5",
            "--min-bits", "1000", "--format", "json", "--out", str(out),
        ])
        assert code == 0
        data = json.loads(out.read_text())
        assert [d["variable"] for d in data] == ["sigma_w"] * 3
        assert [d["N"] for d in data] == [50, 50, 50]
        assert [d["value"] for d in data] == [1e-5, 2e-5, 3e-5]

    def test_all_schemes_stdout(self, capsys):
        assert main(["simulate", "--n", "40", "--min-bits", "1000", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 4  # header + 3 schemes

    def test_preflight_note_on_unsatisfied_margins(self, capsys):
        assert main(["simulate", "--scheme", "kljn", "--n", "10", "--min-bits", "1000"]) == 0
        err = capsys.readouterr().err
        assert "margins unsatisfied" in err
        assert "kljn" in err

    @pytest.mark.parametrize("argv, note", [
        # KLJN's margins at 40 samples per symbol hold without channel noise
        # (ratio 1.006), but not at the received levels v + (2e-5)^2
        (["--scheme", "kljn"], "kljn distinguishability margins unsatisfied at "
                               "40 samples per symbol (corrected formula): min ratio 0.431"),
        # per-bit fairness gives the composite 4 x 40 samples per symbol
        (["--scheme", "cgqnm"], "cgqnm distinguishability margins unsatisfied at "
                                "160 samples per symbol (corrected formula): min ratio 0.0559"),
        (["--scheme", "cgqnm", "--fairness", "per-symbol"],
         "cgqnm distinguishability margins unsatisfied at "
         "40 samples per symbol (corrected formula): min ratio 0.0282"),
    ])
    def test_preflight_note_checks_each_scheme_at_its_block(self, capsys, argv, note):
        assert main(["simulate", *argv, "--n", "40", "--min-bits", "1000"]) == 0
        err = capsys.readouterr().err
        assert err == ("" if note is None else f"note: {note}\n")

    def test_preflight_note_sees_the_largest_channel_noise(self, capsys):
        # noiseless, KLJN's margins hold here; its exact BEP at sigma_w = 1e-4 is 0.466
        assert main(["simulate", "--scheme", "kljn", "--n", "40", "--sigma-w", "1e-4",
                     "--min-bits", "1000"]) == 0
        assert capsys.readouterr().err == (
            "note: kljn distinguishability margins unsatisfied at 40 samples per symbol "
            "(corrected formula): min ratio 0.0293\n")
        # a sigma_w sweep is judged at its largest value
        assert main(["simulate", "--scheme", "kljn", "--n", "40", "--sigma-w", "0:1e-4:1e-4",
                     "--min-bits", "1000"]) == 0
        assert capsys.readouterr().err.endswith("min ratio 0.0293\n")

    def test_variance_formula_is_check_only(self, monkeypatch, capsys):
        import noisemod.cli as cli

        def started(*args, **kwargs):
            raise AssertionError("a sweep was started")

        monkeypatch.setattr(cli, "run_sweep", started)
        assert main(["simulate", "--variance-formula", "paper"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: noisemod ")
        assert err.endswith("error: unrecognized arguments: --variance-formula paper\n")

    def test_double_sweep_rejected(self, capsys):
        code = main(["simulate", "--n", "40:100:15", "--sigma-w", "1e-5:3e-5:1e-5"])
        assert code == 1
        assert "one variable" in capsys.readouterr().err

    def test_bad_flag_value_exits_one(self, capsys):
        assert main(["simulate", "--fairness", "bogus"]) == 1

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_nonpositive_workers_exit_one(self, monkeypatch, capsys, workers):
        import noisemod.cli as cli

        def started(*args, **kwargs):
            raise AssertionError("a sweep was started")

        monkeypatch.setattr(cli, "run_sweep", started)
        code = main(["simulate", "--scheme", "kljn", "--n", "40", "--workers", workers])
        assert code == 1
        assert "--workers" in capsys.readouterr().err

    def test_bad_range_exits_one(self, monkeypatch, capsys):
        import noisemod.cli as cli

        def started(*args, **kwargs):
            raise AssertionError("a sweep was started")

        monkeypatch.setattr(cli, "run_sweep", started)
        for flag, text, message in [
            ("--n", "100:40:15", "need A <= B and STEP > 0"),
            ("--n", "40:100:0", "need A <= B and STEP > 0"),
            ("--n", "40:100", "expected INT or A:B:STEP"),
            ("--n", "4.5", "expected INT or A:B:STEP"),
            ("--sigma-w", "3e-5:1e-5:1e-5", "need A <= B and STEP > 0"),
            ("--sigma-w", "x", "expected FLOAT or A:B:STEP"),
            ("--sigma-w", "0:inf:1", "must be finite"),
            ("--sigma-w", "nan:1:1", "must be finite"),
            ("--sigma-w", "0:1:inf", "must be finite"),
            ("--sigma-w", "0:1:1e-300", "1e+300 values, at most 10000 allowed"),
            ("--n", "2:10000000000:1", "1e+10 values, at most 10000 allowed"),
            ("--n", "1:10001:1", "10001 values"),
            ("--n", HUGE_N, HUGE_N_ERROR),
            ("--n", f"2:{HUGE_N}:5{'0' * 399}",
             f"error: N=5{'0' * 398}2 samples per symbol is too large for float arithmetic\n"),
        ]:
            assert main(["simulate", flag, text]) == 1, text
            err = capsys.readouterr().err
            assert message in err and "Traceback" not in err, (text, err)

    @pytest.mark.parametrize("sigma_w, message", [
        ("1e200", "sigma_w^2 must be finite"),
        ("-1:1:1", "sigma_w >= 0 required, got -1.0"),
        ("0:2e200:1e200", "sigma_w^2 must be finite, got sigma_w=1e+200"),
    ])
    def test_bad_swept_sigma_w_exits_one(self, monkeypatch, capsys, sigma_w, message):
        import noisemod.cli as cli

        def started(*args, **kwargs):
            raise AssertionError("a sweep was started")

        # every swept value is checked before the sweep, not as a cell failure
        monkeypatch.setattr(cli, "run_sweep", started)
        code = main(["simulate", "--scheme", "kljn", "--n", "4", f"--sigma-w={sigma_w}",
                     "--min-bits", "1000"])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0], err

    def test_range_bound_is_inclusive(self):
        from noisemod.cli import MAX_RANGE_VALUES, _parse_range

        assert len(_parse_range(f"1:{MAX_RANGE_VALUES}:1", int)) == MAX_RANGE_VALUES
        assert len(_parse_range("0:0.9999:1e-4", float)) == MAX_RANGE_VALUES
        # the last value is B itself, not the sum of the steps an ulp past it
        assert _parse_range("0.1:0.7:0.1", float)[-1] == 0.7
        assert _parse_range("1e-5:3e-5:1e-5", float) == [1e-5, 2e-5, 3e-5]

    def test_negative_seed_exits_one(self, monkeypatch, capsys):
        import noisemod.cli as cli

        def started(*args, **kwargs):
            raise AssertionError("a sweep was started")

        monkeypatch.setattr(cli, "run_sweep", started)
        assert main(["simulate", "--scheme", "kljn", "--n", "40", "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert err.strip() == "error: seed >= 0 required, got -1"

    def test_unwritable_output_exits_two(self, capsys):
        code = main([
            "simulate", "--scheme", "kljn", "--n", "40", "--min-bits", "1000",
            "--out", "/no-such-dir/run.csv",
        ])
        assert code == 2
        assert "no-such-dir" in capsys.readouterr().err

    def test_unwritable_output_fails_before_any_cell(self, monkeypatch, capsys):
        import noisemod.cli as cli

        calls = []
        monkeypatch.setattr(cli, "run_sweep", lambda *args, **kwargs: calls.append(args))
        code = main([
            "simulate", "--scheme", "gqnm", "--n", "2", "--min-bits", "1000",
            "--out", "/nonexistent/x.csv",
        ])
        assert code == 2 and calls == []
        assert "cannot write /nonexistent/x.csv" in capsys.readouterr().err

    def test_failed_sweep_leaves_the_output_path_alone(self, monkeypatch, tmp_path):
        import noisemod.cli as cli
        from noisemod.harness import SweepResult

        # every cell fails, so nothing is emitted: an existing file keeps its
        # bytes, and the early path check leaves no new file behind
        monkeypatch.setattr(cli, "run_sweep", lambda spec, workers: SweepResult((), ()))
        old, new = tmp_path / "old.csv", tmp_path / "new.csv"
        old.write_text("an earlier run\n")
        for out in (old, new):
            argv = ["simulate", "--scheme", "kljn", "--n", "4", "--min-bits", "1000",
                    "--out", str(out)]
            assert main(argv) == 1
        assert old.read_text() == "an earlier run\n" and not new.exists()

    def test_literal_config_runs(self, tmp_path):
        out = tmp_path / "run.csv"
        code = main([
            "simulate", "--scheme", "cgqnm", "--config", LITERAL_CFG, "--n", "40",
            "--min-bits", "1000", "--out", str(out),
        ])
        assert code == 0
        assert len(out.read_text().splitlines()) == 2


def test_import_loads_no_process_pool(tmp_path):
    # importing the CLI must not pay for multiprocessing on every start, nor
    # for scipy (~0.8 s to import), which the sampler's 2^-128 rule does
    # without; a sweep on worker threads loads neither of them either
    code = """
import os, sys, threading
sys.path.insert(0, sys.argv[1])
PROCESS_POOL = ('concurrent.futures', 'multiprocessing', 'scipy')
import noisemod.cli, noisemod.harness
on_import = sorted(m for m in PROCESS_POOL if m in sys.modules)
noisemod.harness.SYMBOLS_PER_WORKER = 1
os.cpu_count = lambda: 2
os.sched_getaffinity = lambda pid: {0, 1}
started, start = [], threading.Thread.start
threading.Thread.start = lambda thread: (started.append(thread), start(thread))
code = noisemod.cli.main(['simulate', '--scheme', 'kljn', '--n', '40:100:60',
                          '--min-bits', '1000', '--workers', '2', '--out', sys.argv[2]])
print(on_import, code, len(started), sorted(m for m in PROCESS_POOL if m in sys.modules))
"""
    done = subprocess.run(
        [sys.executable, "-c", code, str(REPO_ROOT / "src"), str(tmp_path / "run.csv")],
        capture_output=True, text=True, timeout=60, check=True,
    )
    # nothing on import; the 2-cell sweep exits 0 on one helper thread, still loading nothing
    assert done.stdout.strip() == "[] 0 1 []"
