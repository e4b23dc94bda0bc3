"""The benchmark harness still fits the package.

benchmarks/run.py --self-check traces five small runs and checks which
layers each one calls (no aggregation-layer calls on the mirrored
AOI_COST path, the value codec and DataReader on FIFO/ROUND_ROBIN,
compound ingest on UC) and that tracing leaves every result unchanged.
A change under src/ that breaks the wiring the tracer patches fails
here, not only when the benchmark runs.
"""

import json
import subprocess
import sys
from pathlib import Path

RUN_PY = Path(__file__).resolve().parents[1] / "benchmarks" / "run.py"


def test_benchmark_self_check_passes():
    proc = subprocess.run(
        [sys.executable, str(RUN_PY), "--self-check"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["self_check"] == "ok"
