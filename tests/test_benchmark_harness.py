"""The benchmark harness still fits the package.

benchmarks/run.py --self-check traces five small runs and checks which
layers each one calls (no aggregation-layer calls on the mirrored
AOI_COST path, the value codec and DataReader on FIFO/ROUND_ROBIN,
compound ingest on UC) and that tracing leaves every result unchanged.
A change under src/ that breaks the wiring the tracer patches, or an
output that benchmarks/micro.py checks, fails here, not only when the
benchmark runs. The slow tests run each workload once and compare its
results and artifact bytes with benchmarks/reference.json.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import salsim.channel
import salsim.mdu
import salsim.publisher
import salsim.sal

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
RUN_PY = BENCHMARKS / "run.py"


def test_benchmark_self_check_passes():
    proc = subprocess.run(
        [sys.executable, str(RUN_PY), "--self-check"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["self_check"] == "ok"


@pytest.mark.slow
@pytest.mark.parametrize("workload", ["atomic_n20", "compound_n20", "object_policies", "tiny_runs"])
def test_benchmark_workloads_match_their_reference(workload):
    # one short untraced pass checks every run's result and the CSV/SVG
    # bytes against the digests in benchmarks/reference.json
    proc = subprocess.run(
        [sys.executable, str(RUN_PY), "--workload", workload, "--seconds", "0", "--trace", "0"],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["correct"] and summary["failed"] == 0, summary


def test_micro_benchmark_outputs_match_their_checks():
    # select_uniform against select(), the PDU and fragment codec round
    # trips and the deadband filter, as the traced benchmark checks them
    spec = importlib.util.spec_from_file_location("micro", BENCHMARKS / "micro.py")
    micro = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(micro)
    checks = micro.run_all(salsim, seed=0)
    assert len(checks) == 5
    assert [name for name, (_us, ok) in checks.items() if not ok] == []
