"""Every function the benchmark traces still exists under its traced name.

The rebinding check of ``benchmarks/selftest.py`` installs the tracer on
each target of ``benchmarks/targets.py`` and restores it, so a renamed or
deleted target fails it.  The self-test's other check, that each per-layer
``.calls`` metric is nonzero on some workload, needs a traced run of every
workload and is left to the self-test.
"""

import subprocess
import sys
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"

CHECK = """
import sys
sys.path.insert(0, sys.argv[1])
import selftest
problems = selftest.check_rebinding()
print(*problems, sep="\\n")
sys.exit(1 if problems else 0)
"""


def test_the_benchmark_tracer_binds_and_restores_every_target():
    run = subprocess.run([sys.executable, "-c", CHECK, str(BENCHMARKS)],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stdout + run.stderr
