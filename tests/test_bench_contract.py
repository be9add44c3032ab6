"""The benchmark's result line, as the performance gate reads it.

perfbench/run.py times the package by swapping harness's module-level
names (compute_moments, _symbol_states, _detect_bits, run_point,
threshold_bank, derive_subchannels) for wrappers, and reads
compute_moments's positional arguments to count the work.  A change that
renames, inlines or reorders them still exits 0, but turns per-layer
metrics null.  This runs short traced sweeps and checks their last lines:
fig5_n_sweep, with channel noise, and long_block_noiseless, with sigma_w = 0.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


def _refuse_constant(name):
    raise ValueError(f"non-JSON constant {name} in the result line")


@pytest.mark.parametrize("workload", ["fig5_n_sweep", "long_block_noiseless"])
def test_traced_result_line_is_complete(workload):
    pytest.importorskip("scipy")  # the benchmark's oracle needs it
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "99", "--seconds", "0", "--trace", "1"],
        cwd=REPO_ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout
    last = done.stdout.splitlines()[-1]
    result = json.loads(last, parse_constant=_refuse_constant)
    assert result["correct"] is True and result["failed"] == 0, done.stdout
    contract = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    null = [metric["name"] for metric in contract["per_layer"]
            if result["metrics"].get(metric["name"], {}).get("value") is None]
    assert not null, f"per-layer metrics without a value: {null}\n{done.stdout}"
