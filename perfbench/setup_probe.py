"""Time a user's set-up before the first sweep cell, in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py SRC_DIR SIMULATE_ARG...

Prints the seconds from the start of this script through importing
noisemod.cli, loading the config, building the sweep specification and
the pre-flight margin report, up to the moment the CLI starts the sweep.
The sweep itself is not run.
"""

import sys
import time

START = time.perf_counter()
sys.path.insert(0, sys.argv[1])

from noisemod import cli  # noqa: E402  (timed import)


class _SweepReached(Exception):
    pass


def _stop(*args, **kwargs):
    raise _SweepReached


cli.run_sweep = _stop
try:
    code = cli.main(sys.argv[2:])
except _SweepReached:
    print(repr(time.perf_counter() - START))
else:
    sys.exit(f"simulate returned {code} before starting the sweep")
