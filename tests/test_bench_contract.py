"""The benchmark's result line, as the performance gate reads it.

perfbench/run.py times the package by swapping harness's module-level
names (compute_moments, _symbol_states, _detect_bits, run_point,
threshold_bank, derive_subchannels) for wrappers, and reads
compute_moments's positional arguments to count the work.  A change that
renames, inlines or reorders them still exits 0, but turns per-layer
metrics null.  This runs short traced sweeps and checks their last lines:
fig5_n_sweep, with channel noise, and long_block_noiseless, with sigma_w = 0.
It also runs long_block_noiseless untraced (--trace 0, the run that gives
the end-to-end metrics), whose set-up probes (perfbench/setup_probe.py)
swap cli.run_sweep.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


def _refuse_constant(name):
    raise ValueError(f"non-JSON constant {name} in the result line")


def _null_metrics(workload, trace, section):
    """Run one workload and check it exits 0 with a strict-JSON last line and
    every cell correct; returns the names in BENCHMARK.json's `section` that
    the line gives no value, and the run's output."""
    pytest.importorskip("scipy")  # the benchmark's oracle needs it
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "99", "--seconds", "0", "--trace", str(trace)],
        cwd=REPO_ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout
    last = done.stdout.splitlines()[-1]
    result = json.loads(last, parse_constant=_refuse_constant)
    assert result["correct"] is True and result["failed"] == 0, done.stdout
    contract = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    null = [metric["name"] for metric in contract[section]
            if result["metrics"].get(metric["name"], {}).get("value") is None]
    return null, done.stdout


@pytest.mark.parametrize("workload", ["fig5_n_sweep", "long_block_noiseless"])
def test_traced_result_line_is_complete(workload):
    null, stdout = _null_metrics(workload, 1, "per_layer")
    assert not null, f"per-layer metrics without a value: {null}\n{stdout}"


def test_untraced_result_line_is_complete():
    null, stdout = _null_metrics("long_block_noiseless", 0, "end_to_end")
    assert not null, f"end-to-end metrics without a value: {null}\n{stdout}"
