"""The benchmark's calls into the program still work.

`bench/run.py` drives `model.forward` and `train.joint_loss` with single
examples, wraps the model's layer functions in its tracer, and fails a run
with any tape entry recorded outside those layers. A smoke-sized traced run
catches a broken call or an unattributed tape entry. It runs both
workloads: the paper-dims one sends `nd.bilstm`'s two-thread schedule
through the benchmark's gradient, repeat, predict == evaluate and tape
attribution checks, the fixture-dims one its serial schedule. A name
the benchmark reads that the program lacks fails a fast check first,
which names it.
"""
import importlib.util
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


def test_every_name_the_benchmark_uses_resolves():
    """Each function the tracer patches and each name the bench swaps out."""
    import emosent
    import emosent.cli  # noqa: F401  binds every module the tracer reads

    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    E = emosent
    names = [(owner, attr) for _, owner, attr in tracer._functions(E)] + [
        (E.train, "forward"), (E.train, "encode"), (E.nd, "adam_step"),
        (E.nd.Tape, "gradients"), (E.model, "task_heads"),
    ]
    missing = [f"{owner.__name__}.{attr}" for owner, attr in names if not hasattr(owner, attr)]
    missing += [f"{cls.__name__}.{attr}" for _, cls, attr in tracer._classmethods(E)
                if not isinstance(vars(cls).get(attr), classmethod)]
    assert not missing, f"the benchmark reads names the program lacks: {missing}"
