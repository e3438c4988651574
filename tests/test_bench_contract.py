"""The benchmark's calls into the program still work.

`bench/run.py` drives `model.forward` and `train.joint_loss` with single
examples, wraps the model's layer functions in its tracer, and fails a run
with any tape entry recorded outside those layers. A smoke-sized traced run
catches a broken call or an unattributed tape entry. It runs both
workloads: the paper-dims one sends `nd.bilstm`'s two-thread schedule
through the benchmark's gradient, repeat, predict == evaluate and tape
attribution checks, the fixture-dims one its serial schedule. A name
the benchmark reads that the program lacks, or a call it makes that no
longer fits its callee's signature, fails a fast check first, which names
it.
"""
import ast
import functools
import importlib.util
import inspect
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


# Names the benchmark binds to the package or one of its modules.
BENCH_ROOTS = {("E",): (), ("self", "E"): (), ("emosent",): (), ("R",): ("resources",)}
# Calls the program makes to names the self-test swaps out, in the form its
# stand-ins accept: (dotted name, positional count, keywords).
SWAPPED_CALLS = [
    ("nd.adam_step", 3, ("lr",)),
    ("nd.Tape.gradients", 3, ()),
    ("model.task_heads", 2, ()),
]


def _dotted(node) -> list[str] | None:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else None


def bench_calls():
    """(where, dotted name below the package, positional count, keywords) of
    each call `bench/run.py` and `bench/selftest.py` make into the package,
    except those that pass `*args` or `**kwargs`."""
    for script in ("run.py", "selftest.py"):
        tree = ast.parse((ROOT / "bench" / script).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or (parts := _dotted(node.func)) is None:
                continue
            root = next((r for r in BENCH_ROOTS if tuple(parts[: len(r)]) == r), None)
            spread = any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords
            )
            if root is None or spread:
                continue
            name = ".".join([*BENCH_ROOTS[root], *parts[len(root):]])
            keywords = tuple(k.arg for k in node.keywords)
            yield f"bench/{script}:{node.lineno}", name, len(node.args), keywords


def test_every_call_the_benchmark_makes_fits_its_signature():
    import emosent
    import emosent.cli  # noqa: F401  binds every module the benchmark calls into

    calls = list(bench_calls())
    names = {name for _, name, _, _ in calls}
    for expected in ("resources.build_vocab", "resources.encode_corpus",
                     "resources.encode_example", "checkpoint.save_checkpoint",
                     "model.forward", "train.joint_loss", "model.ModelConfig"):
        assert expected in names, f"no call to {expected} found in bench/"
    bad = []
    for where, name, positional, keywords in calls + [("program", *c) for c in SWAPPED_CALLS]:
        target = functools.reduce(getattr, name.split("."), emosent)
        try:
            inspect.signature(target).bind(*[None] * positional, **dict.fromkeys(keywords))
        except TypeError as exc:
            bad.append(f"{where} {name}: {exc}")
    assert not bad, "calls that no longer fit their callee: " + "; ".join(bad)
