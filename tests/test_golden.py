"""Byte-identity gate: the SHA-256 of fixed CLI outputs.

A refactor that must not change behaviour keeps every digest here.  A
change that alters output on purpose (a new stream, a new column) updates
the digests and says so in CHANGES.md.  Simulated bits depend on numpy's
generator streams, so a numpy release that changes SFC64, `multinomial`,
`standard_normal` or `standard_gamma` also moves the simulate digests.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from noisemod.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]
LITERAL_CFG = str(REPO_ROOT / "configs" / "paper_literal.json")

# numpy version the digests below were taken with
DIGEST_NUMPY = "2.4.6"

GOLDEN = [
    pytest.param(
        ["simulate", "--scheme", "all", "--n", "2:10:4", "--min-bits", "20000", "--seed", "7"],
        "6eb1510b8cad844df90d6901af5406c7b74822fd5cd421a795d45d308053036c",
        id="simulate-n-sweep",
    ),
    pytest.param(
        ["simulate", "--scheme", "all", "--config", LITERAL_CFG, "--n", "6",
         "--sigma-w", "0:4e-5:2e-5", "--threshold-mode", "paper",
         "--fairness", "per-symbol", "--min-bits", "20000", "--seed", "7"],
        "9cf064bc906c225b9d76631c9e3e6a11fdf04f37fd56e378e7f38b851e365f1d",
        id="simulate-sigma-sweep-literal",
    ),
    pytest.param(
        # noise-free long blocks: KLJN and GQNM cannot err and draw nothing,
        # while CGQNM's close variance levels are drawn
        ["simulate", "--scheme", "all", "--n", "2000", "--sigma-w", "0", "--min-bits", "20000",
         "--seed", "7"],
        "946b9d176e975f894ea660d0f3407a506d9325ce387fb8f97657f994e7dcdd0a",
        id="simulate-noise-free-long-blocks",
    ),
    pytest.param(
        ["derive"], "b996a3324be5ffc1675ba07056cc93f940ecfa3c4177634ce427ee11849a3f4f",
        id="derive",
    ),
    pytest.param(
        ["derive", "--json", "--config", LITERAL_CFG],
        "70f1038fbd40c300e1c6751cb4229d3b0bf34856ec7913d659d6992220dd0882",
        id="derive-json-literal",
    ),
    pytest.param(
        ["check", "--n", "40", "--json"],
        "30a58bf7d3905e775c0df2cd81d8fc236178cc7579303e8f4197afab907a7cb9",
        id="check-json",
    ),
]


@pytest.mark.parametrize("argv, digest", GOLDEN)
def test_output_bytes_unchanged(capsys, argv, digest):
    assert main(argv) == 0
    got = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert got == digest, (
        f"stdout of `noisemod {' '.join(argv)}` changed: sha256 {got[:16]}, "
        f"pinned {digest[:16]} (digests taken with numpy {DIGEST_NUMPY}, "
        f"running numpy {np.__version__})"
    )


def test_ci_pins_the_digest_numpy():
    """The workflow's Python 3.11 job installs the numpy the digests were taken with."""
    workflow = (REPO_ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    assert f'numpy: "numpy=={DIGEST_NUMPY}"' in workflow
