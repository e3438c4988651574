"""The benchmark's calls into the program still work.

`bench/run.py` drives `model.forward` and `train.joint_loss` with single
examples, wraps the model's layer functions in its tracer, and fails a run
with any tape entry recorded outside those layers. A smoke-sized traced run
catches a broken call or an unattributed tape entry. It runs both
workloads: the paper-dims one sends `nd.bilstm`'s two-thread schedule
through the benchmark's gradient, repeat, predict == evaluate and tape
attribution checks, the fixture-dims one its serial schedule.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["train-paper-m2", "train-small-s1-long"])
def test_traced_smoke_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", "1", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
