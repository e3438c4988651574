"""Smoke-sized self-test of the benchmark.

Run from the repository root:

    python3 bench/selftest.py

It checks that:

- BENCHMARK.json follows the benchmark contract and names exactly the
  metrics and units the code emits;
- every workload, shrunk to a seconds-long run, passes its correctness
  checks and emits every end-to-end metric (`--trace 0`) and every
  per-layer metric (`--trace 1`) with its unit, under a valid name;
- end-to-end metrics are never 0, and on `train-small-s1-long` the word
  attention layer reads exactly zero forward and backward;
- a deliberately corrupted forward pass, a backward pass that halves
  every gradient (which Adam's scaling would hide from the loss), and an
  optimizer that never moves the parameters each make the run exit
  non-zero;
- without the program's sources the command exits non-zero and prints
  no result.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
TIMEOUT = 600


def check(ok: bool, what: str) -> None:
    if not ok:
        raise AssertionError(what)


def check_spec(spec: dict) -> None:
    sys.path.insert(0, str(BENCH))
    from run import E2E_UNITS
    from tracer import PER_LAYER_UNITS
    from workloads import WORKLOADS

    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}, "BENCHMARK.json has the wrong keys")
    check(1 <= spec["run_seconds"] <= 60 and spec["run_seconds"] == int(spec["run_seconds"]),
          "run_seconds out of range")
    check(2 <= len(spec["workloads"]) <= 8, "need 2 to 8 workloads")
    names = [w["name"] for w in spec["workloads"]]
    check(names == list(WORKLOADS), "workloads differ from bench/workloads.py")
    for w in spec["workloads"]:
        check(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"],
              f"bad workload entry {w['name']}")
    for section, units in (("end_to_end", E2E_UNITS), ("per_layer", PER_LAYER_UNITS)):
        entries = spec[section]
        check({e["name"]: e["unit"] for e in entries} == units,
              f"{section} names or units differ from the code")
        for e in entries:
            keys = {"name", "unit", "better"} | ({"bound"} if section == "end_to_end" else set())
            check(set(e) == keys, f"{section} entry {e['name']} has the wrong keys")
            check(bool(NAME.match(e["name"])), f"bad metric name {e['name']}")
            check(bool(UNIT.match(e["unit"])), f"bad unit {e['unit']}")
            check(e["better"] in ("higher", "lower"), f"bad direction for {e['name']}")
            if section == "end_to_end":
                check(0 < e["bound"] <= 0.25, f"bound of {e['name']} out of range")
    all_names = [e["name"] for s in ("end_to_end", "per_layer") for e in spec[s]] + names
    check(len(all_names) == len(set(all_names)), "a name is used twice")
    setup = [e for e in spec["end_to_end"] if e["name"] == "setup_s"]
    check(setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                     "bound": max(e["bound"] for e in spec["end_to_end"])}],
          "setup_s must be in seconds, lower-better, with the largest bound")


def run(cwd: Path, workload: str, trace: int) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def check_workload(spec: dict, workload: str, trace: int) -> None:
    code, lines = run(ROOT, workload, trace)
    check(code == 0, f"{workload} trace {trace}: exit code {code}")
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, "bad result keys")
    check(result["correct"] is True and result["failed"] == 0, f"{workload}: checks failed")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1, "bad attempted")
    expected = spec["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    check(set(metrics) == {e["name"] for e in expected}, f"{workload}: metric set differs")
    for e in expected:
        m = metrics[e["name"]]
        check(m["unit"] == e["unit"], f"{workload}: unit of {e['name']}")
        check(isinstance(m["value"], (int, float)) and math.isfinite(m["value"]),
              f"{workload}: {e['name']} is not a finite number")
        if not trace:
            check(m["value"] > 0, f"{workload}: {e['name']} reads {m['value']}")
        check(any(line.split()[:1] == [e["name"]] for line in lines[:-1]),
              f"{workload}: {e['name']} not printed by name")
    if trace and workload == "train-small-s1-long":
        for name in [f"model.word_attention_ms_per_ex.{p}" for p in ("train", "evaluate", "predict")]:
            check(metrics[name]["value"] == 0, f"{name} is not zero without word attention")
        check(metrics["nd.backward.word_attention_ms_per_ex"]["value"] == 0,
              "word attention backward is not zero without word attention")
    print(f"ok  {workload} trace {trace} ({result['attempted']} operations)")


def exits_with_fault(owner, attr: str, make_fault) -> int:
    """Exit code of a smoke run with `owner.attr` replaced by a faulty version."""
    sys.path.insert(0, str(BENCH))
    import run as bench

    bench.import_program()
    original = getattr(owner, attr)
    setattr(owner, attr, make_fault(original))
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return bench.main(["--workload", "train-small-s1-long", "--seed", "7",
                               "--seconds", "1", "--smoke"])
    finally:
        setattr(owner, attr, original)


def check_faults_exit_nonzero() -> None:
    sys.path.insert(0, str(BENCH))
    import run as bench

    emosent = bench.import_program()

    def flaky(heads):
        """Perturbs the heads on every other call: breaks the repeat checks."""
        calls = [0]

        def faulty(vectors, params):
            calls[0] += 1
            out = heads(vectors, params)
            if calls[0] % 2:
                out = {t: emosent.nd.scale(v, 1.5) for t, v in out.items()}
            return out

        return faulty

    def frozen(adam_step):
        """Leaves the parameters where they are: training cannot lower the loss."""
        return lambda params, grads, state, **kw: (params, state)

    def halved(gradients):
        return lambda tape, loss, wrt: [g * 0.5 for g in gradients(tape, loss, wrt)]

    for what, owner, attr, fault in (
        ("a corrupted forward pass", emosent.model, "task_heads", flaky),
        ("a backward pass that halves every gradient", emosent.nd.Tape, "gradients", halved),
        ("an optimizer that never moves", emosent.nd, "adam_step", frozen),
    ):
        code = exits_with_fault(owner, attr, fault)
        check(code == 1, f"{what} exited {code}, not 1")
        print(f"ok  {what} exits 1")


def check_without_sources() -> None:
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        code, lines = run(bare, "train-small-s1-long", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(code != 0, "ran without the program's sources")
    check(not any(line.startswith("{") for line in lines), "printed a result without sources")
    print(f"ok  without sources: exit {code}, no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    print("ok  BENCHMARK.json")
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_workload(spec, w["name"], trace)
    check_faults_exit_nonzero()
    check_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
