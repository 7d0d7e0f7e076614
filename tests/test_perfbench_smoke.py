"""The benchmark's own smoke check, run as the benchmark runs it.

`python3 perfbench/smoke.py` drives every workload at a tiny size, in both
trace modes, and fails on a metric it cannot compute: a NaN layer metric, a
division by a count the package no longer produces, a unit that fails.
Checking only the names perfbench reads (test_perfbench_names.py) misses
these. The check writes only under the repository's gitignored
`.perfbench_work/` and `.perfbench_out/` directories.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_smoke_check_passes():
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "smoke.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
    assert result.stdout.endswith("smoke: all checks passed\n")
