"""`nd.bilstm` gives bit-identical results on either schedule: its two
directions one after the other on the calling thread, or the forward one on
a second thread at the same time. So do the backward passes of `nd.affine`,
`nd.affine_attend` and `nd.affine_pool`, `nd.adam_step`, and a whole
training run. On both, a frozen input of `nd.bilstm` or `nd.affine_attend`
gets no gradient and changes no other one. The schedule follows one rule
(`autodiff._two_threads`), which keeps everything serial under
multi-threaded BLAS."""
import multiprocessing
import os
import queue
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from emosent import nd
from emosent.model import init_parameters
from emosent.nd import adam, autodiff
from emosent.train import TrainConfig, train

from conftest import small_config
from oracles import adam_step_per_tensor

# The real rule and hand-off, which the recorders below wrap.
RULE, BOTH = autodiff._two_threads, autodiff._both
# One hidden size on each side of the crossover.
HIDDEN_SIZES = [8, autodiff.PARALLEL_MIN_HIDDEN]
LENGTHS = [4, 1, 6, 1, 3]


def force_schedule(monkeypatch, parallel):
    monkeypatch.setattr(autodiff, "_run_directions_in_parallel", lambda hidden: parallel)


def force_every_schedule(monkeypatch, parallel):
    monkeypatch.setattr(autodiff, "_two_threads", lambda work, floor: parallel)


def apply_rule(monkeypatch, blas_threads):
    """Two usable CPUs and BLAS reporting `blas_threads`; returns the list
    that collects each (floor, work, decision) the rule then makes."""
    monkeypatch.setattr(autodiff, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(autodiff, "_blas_threads", lambda: blas_threads)
    decisions = []

    def recorded(work, floor):
        decisions.append((floor, work, RULE(work, floor)))
        return decisions[-1][2]

    monkeypatch.setattr(autodiff, "_two_threads", recorded)
    return decisions


def record_schedules(monkeypatch):
    """The list that collects the `parallel` flag of every `_both` call."""
    flags = []

    def recorded(first, second, parallel):
        flags.append(parallel)
        return BOTH(first, second, parallel)

    monkeypatch.setattr(autodiff, "_both", recorded)
    return flags


def record_first_threads(monkeypatch):
    """The list that collects, for every `_both` call, whether its `first`
    ran on a thread other than the caller's. It wraps whatever `_both` is
    in place, so a `record_schedules` made before it keeps recording."""
    elsewhere, both = [], autodiff._both

    def recorded(first, second, parallel):
        caller = threading.get_ident()

        def traced():
            elsewhere.append(threading.get_ident() != caller)
            return first()

        return both(traced, second, parallel)

    monkeypatch.setattr(autodiff, "_both", recorded)
    return elsewhere


def bilstm_outputs_and_gradients(hidden, seed=0, lengths=LENGTHS, xs_trainable=True):
    """States and the seven gradients of a fixed loss on ragged sequences;
    the one of a frozen `xs` is what the op's backward pass gives (None)."""
    rng = np.random.default_rng(seed)
    rows, width = sum(lengths), 5

    def param(*shape, trainable=True):
        return nd.Tensor(rng.normal(size=shape) * 0.5, requires_grad=trainable)

    xs = param(rows, width, trainable=xs_trainable)
    fw, bw = ([param(width, 4 * hidden), param(hidden, 4 * hidden), param(4 * hidden)]
              for _ in range(2))
    probe = nd.Tensor(rng.normal(size=(rows, 2 * hidden)))
    with nd.Tape() as tape:
        states = nd.bilstm(xs, fw, bw, lengths)
        loss = nd.sum(nd.mul(states, probe))
    grads = tape.gradients(loss, [xs, *fw, *bw])
    if not xs_trainable:
        grads[0] = tape.entries[0].backward(probe.data)[0]
    return [states.data, *grads]


@pytest.mark.parametrize("hidden", HIDDEN_SIZES)
def test_bilstm_outputs_and_gradients_match(hidden, monkeypatch):
    results = {}
    elsewhere = record_first_threads(monkeypatch)
    for parallel in (False, True):
        force_schedule(monkeypatch, parallel)
        results[parallel] = bilstm_outputs_and_gradients(hidden)
    # The serial schedule makes no hand-off; the forward and backward passes
    # of the two-thread one each run their first half on another thread.
    assert elsewhere == [True, True]
    for serial, threaded in zip(results[False], results[True]):
        assert np.array_equal(serial, threaded)


@pytest.mark.parametrize("hidden", HIDDEN_SIZES)
@pytest.mark.parametrize("xs_trainable", [True, False])
@pytest.mark.parametrize("lengths", [
    [1],  # one row: its projection is the top row of a two-row GEMM
    [1, 1, 1],  # length-1 sequences: no step reads an earlier state
    [5, 1, 2],  # steps where one sequence still runs: two-row products in the slab
])
def test_stack_of_two_matches_two_threads_byte_for_byte(hidden, xs_trainable, lengths,
                                                         monkeypatch):
    # The serial schedule runs both directions as one interleaved stack and
    # never calls `_both`; the two-thread one runs one direction per thread.
    results = {}
    for parallel in (False, True):
        force_schedule(monkeypatch, parallel)
        flags = record_schedules(monkeypatch)
        results[parallel] = bilstm_outputs_and_gradients(hidden, 4, lengths, xs_trainable)
        assert flags == [parallel] * len(flags) and bool(flags) == parallel
    assert (results[False][1] is None) == (not xs_trainable)
    assert [a if a is None else a.tobytes() for a in results[False]] == [
        a if a is None else a.tobytes() for a in results[True]
    ]


@pytest.mark.parametrize("hidden", HIDDEN_SIZES)
def test_trained_parameters_match(hidden, monkeypatch, bundle):
    config = small_config("M2", lstm_hidden=hidden, dropout_rate=0.5)
    trained = {}
    elsewhere = record_first_threads(monkeypatch)
    for parallel in (False, True):
        force_schedule(monkeypatch, parallel)
        params = init_parameters(config, embedding_rows=bundle.embedding_rows, seed=3)
        trained[parallel], _ = train(
            bundle.train_examples, params,
            TrainConfig(batch_size=8, lr=0.01, epochs=2, seed=3), config,
        )
    assert any(elsewhere)
    for name, p in trained[False].items():
        assert np.array_equal(p.data, trained[True][name].data), name


def test_schedule_follows_hidden_size(monkeypatch):
    monkeypatch.setattr(autodiff, "_blas_threads", lambda: 1)
    monkeypatch.setattr(autodiff, "_usable_cpus", lambda: 2)
    assert not autodiff._run_directions_in_parallel(autodiff.PARALLEL_MIN_HIDDEN - 1)
    assert autodiff._run_directions_in_parallel(autodiff.PARALLEL_MIN_HIDDEN)
    monkeypatch.setattr(autodiff, "_usable_cpus", lambda: 1)
    assert not autodiff._run_directions_in_parallel(autodiff.PARALLEL_MIN_HIDDEN)


def _run_in_child(results):
    results.put(bilstm_outputs_and_gradients(8)[0])


def test_forked_child_runs_the_parallel_schedule(monkeypatch):
    # The parent has run the two-thread schedule before the fork; the child
    # runs it again on threads of its own.
    force_schedule(monkeypatch, True)
    expected = bilstm_outputs_and_gradients(8)[0]
    context = multiprocessing.get_context("fork")
    results = context.Queue()
    child = context.Process(target=_run_in_child, args=(results,))
    child.start()
    try:
        got = results.get(timeout=60)
    except queue.Empty:
        got = None
    finally:
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join(timeout=10)
    assert got is not None, "the forked child's bilstm never finished"
    assert np.array_equal(got, expected)
    assert child.exitcode == 0


def frozen_input_gradients(xs_trainable, keys_trainable, hidden=8, seed=1):
    """The gradient of a loss through `nd.bilstm` and then `nd.affine_attend` for
    each input that requires one, by name, and what the two ops' backward
    passes give for `xs` and `keys`."""
    rng = np.random.default_rng(seed)
    rows, width, k = sum(LENGTHS), 5, 3

    def tensor(*shape, trainable=True):
        return nd.Tensor(rng.normal(size=shape) * 0.5, requires_grad=trainable)

    inputs = {"xs": tensor(rows, width, trainable=xs_trainable)}
    for direction in ("fw", "bw"):
        for name, shape in (("W", (width, 4 * hidden)), ("U", (hidden, 4 * hidden)),
                            ("b", (4 * hidden,))):
            inputs[f"{direction}/{name}"] = tensor(*shape)
    mask = rng.random((rows, k)) < 0.7
    with_keys = int(mask.any(axis=1).sum())
    inputs["keys"] = tensor(with_keys * k, 2 * hidden, trainable=keys_trainable)
    W, b = tensor(2 * hidden, 2 * hidden, trainable=False), tensor(2 * hidden, trainable=False)
    probe = nd.Tensor(rng.normal(size=(rows, 2 * hidden)))
    mix_probe = nd.Tensor(probe.data[mask.any(axis=1)])
    fw, bw = ([inputs[f"{d}/{n}"] for n in "WUb"] for d in ("fw", "bw"))
    with nd.Tape() as tape:
        states = nd.bilstm(inputs["xs"], fw, bw, LENGTHS)
        mix, _ = nd.affine_attend(states, W, b, inputs["keys"], mask)
        loss = nd.add(nd.sum(nd.mul(states, probe)), nd.sum(nd.mul(mix, mix_probe)))
    names = [name for name, t in inputs.items() if t.requires_grad]
    grads = dict(zip(names, tape.gradients(loss, [inputs[n] for n in names])))
    bilstm_entry, attend_entry = tape.entries[:2]
    d_xs = bilstm_entry.backward(probe.data)[0]
    d_keys = attend_entry.backward(mix_probe.data)[3]
    return grads, d_xs, d_keys


@pytest.mark.parametrize("parallel", [False, True])
def test_frozen_inputs_get_no_gradient(parallel, monkeypatch):
    force_schedule(monkeypatch, parallel)
    reference, d_xs, d_keys = frozen_input_gradients(True, True)
    assert d_xs is not None and d_keys is not None
    for xs_trainable, keys_trainable in [(False, True), (True, False), (False, False)]:
        grads, d_xs, d_keys = frozen_input_gradients(xs_trainable, keys_trainable)
        assert (d_xs is None) != xs_trainable and (d_keys is None) != keys_trainable
        assert ("xs" in grads) == xs_trainable and ("keys" in grads) == keys_trainable
        assert len(grads) == 6 + xs_trainable + keys_trainable
        for name, grad in grads.items():
            assert np.array_equal(grad, reference[name]), name


FLOORS = [autodiff.PARALLEL_MIN_HIDDEN, autodiff.AFFINE_PARALLEL_MIN_WORK, 2 * adam.BLOCK]


@pytest.mark.parametrize("blas_threads", [None, 1, 2])
def test_rule_follows_cpus_blas_and_work(blas_threads, monkeypatch):
    # Unknown BLAS (None) keeps the rule by CPUs alone; two BLAS threads
    # make every schedule serial.
    monkeypatch.setattr(autodiff, "_blas_threads", lambda: blas_threads)
    for cpus in (1, 2):
        monkeypatch.setattr(autodiff, "_usable_cpus", lambda: cpus)
        expected = cpus == 2 and blas_threads != 2
        for floor in FLOORS:
            assert not autodiff._two_threads(floor - 1, floor)
            assert autodiff._two_threads(floor, floor) == expected
        assert autodiff._run_directions_in_parallel(autodiff.PARALLEL_MIN_HIDDEN) == expected


def run_in_python(code, **env):
    """Run `code` in a fresh interpreter that imports this checkout's
    `emosent`, `env` added to the environment; fails after 60 s."""
    path = os.pathsep.join(filter(None, [str(Path(autodiff.__file__).parents[2]),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path, **env},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.strip()


def test_blas_probe_reads_pinned_thread_count():
    if autodiff._blas_threads() is None:
        pytest.skip("numpy's BLAS is not its bundled OpenBLAS")
    code = "from emosent.nd import autodiff; print(autodiff._blas_threads())"
    assert run_in_python(code, OPENBLAS_NUM_THREADS="1") == "1"


def as_bytes(arrays):
    """Each array's bytes by name: tells -0.0 from 0.0."""
    return {name: np.asarray(a).tobytes() for name, a in arrays.items()}


def test_adam_schedules_match_per_tensor_oracle(monkeypatch):
    monkeypatch.setattr(adam, "BLOCK", 8)
    rng = np.random.default_rng(5)
    params = {
        "matrix": nd.Tensor(rng.normal(size=(5, 7)), requires_grad=True),
        "zeros": nd.Tensor([0.0, -0.0, 0.0, -0.0, 1.5], requires_grad=True),
        "scalar": nd.Tensor(np.array(-0.0), requires_grad=True),
        "vector": nd.Tensor(rng.normal(size=11), requires_grad=True),
    }
    steps = [{
        "matrix": rng.normal(size=(5, 7)),
        "zeros": np.array([0.0, -0.0, -0.0, 0.0, -0.0]),
        "scalar": np.array(-0.0 if t % 2 else rng.normal()),
        "vector": rng.normal(size=11),
    } for t in range(4)]
    results = {}
    for parallel in (False, True):
        force_every_schedule(monkeypatch, parallel)
        flags = record_schedules(monkeypatch)
        current, state = params, nd.AdamState()
        for grads in steps:
            current, state = nd.adam_step(current, grads, state, lr=0.01)
        assert flags == [parallel] * len(steps)
        results[parallel] = [as_bytes({n: p.data for n, p in current.items()}),
                             as_bytes(state.m), as_bytes(state.v)]
    ref_p, ref_m, ref_v = {n: p.data for n, p in params.items()}, {}, {}
    for t, grads in enumerate(steps, start=1):
        ref_p, ref_m, ref_v = adam_step_per_tensor(ref_p, grads, ref_m, ref_v, t, lr=0.01)
    oracle = [as_bytes(ref_p), as_bytes(ref_m), as_bytes(ref_v)]
    assert results[False] == results[True] == oracle


@pytest.mark.parametrize("x_trainable", [True, False])
def test_affine_gradients_match(x_trainable, monkeypatch):
    rng = np.random.default_rng(6)
    x = nd.Tensor(rng.normal(size=(9, 5)), requires_grad=x_trainable)
    W = nd.Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    b = nd.Tensor(rng.normal(size=4), requires_grad=True)
    g = rng.normal(size=(9, 4))
    results = {}
    for parallel in (False, True):
        force_every_schedule(monkeypatch, parallel)
        flags = record_schedules(monkeypatch)
        with nd.Tape() as tape:
            nd.affine(x, W, b)
        results[parallel] = tape.entries[0].backward(g)
        # Both schedules hand the pair of GEMMs to `_both`; a frozen x keeps it serial.
        assert flags == [parallel and x_trainable]
    for serial, threaded in zip(results[False], results[True]):
        assert np.array_equal(serial, threaded)


@pytest.mark.parametrize("x_trainable", [True, False])
def test_affine_attend_gradients_match(x_trainable, monkeypatch):
    rng = np.random.default_rng(7)
    mask = np.array([[True, False], [False, False], [True, True], [False, True]])
    x = nd.Tensor(rng.normal(size=(4, 5)), requires_grad=x_trainable)
    W = nd.Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    b = nd.Tensor(rng.normal(size=3), requires_grad=True)
    keys = nd.Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    g = rng.normal(size=(3, 3))
    results = {}
    for parallel in (False, True):
        force_every_schedule(monkeypatch, parallel)
        flags = record_schedules(monkeypatch)
        with nd.Tape() as tape:
            nd.affine_attend(x, W, b, keys, mask)
        results[parallel] = tape.entries[0].backward(g)
        assert flags == [parallel and x_trainable]
    for serial, threaded in zip(results[False], results[True]):
        assert np.array_equal(serial, threaded)


@pytest.mark.parametrize("h_trainable", [True, False])
def test_affine_pool_gradients_match(h_trainable, monkeypatch):
    rng = np.random.default_rng(8)
    h = nd.Tensor(rng.normal(size=(7, 5)), requires_grad=h_trainable)
    mix = nd.Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    W, b, u = (nd.Tensor(rng.normal(size=s), requires_grad=True) for s in ((7, 4), (4,), (4,)))
    g = rng.normal(size=(3, 7))
    results = {}
    for parallel in (False, True):
        force_every_schedule(monkeypatch, parallel)
        flags = record_schedules(monkeypatch)
        with nd.Tape() as tape:
            nd.affine_pool(h, W, b, u, [3, 1, 3], mix, [0, 4, 6])
        results[parallel] = as_bytes(dict(enumerate(tape.entries[0].backward(g))))
        assert flags == [parallel and h_trainable]
    assert results[False] == results[True]


def wide_config():
    """H = 128 and a context width that takes a 32-tweet fixture batch's
    sentence attention (`nd.affine_pool`) past AFFINE_PARALLEL_MIN_WORK:
    every op with a two-thread schedule crosses its floor."""
    return small_config("M2", lstm_hidden=128, context_dim=1024, dropout_rate=0.2)


def train_wide(bundle, monkeypatch, blas_threads):
    decisions = apply_rule(monkeypatch, blas_threads)
    params = init_parameters(wide_config(), embedding_rows=bundle.embedding_rows, seed=3)
    trained, _ = train(bundle.train_examples, params,
                       TrainConfig(batch_size=32, lr=0.01, epochs=2, seed=3), wide_config())
    assert {floor for floor, work, _ in decisions if work >= floor} == set(FLOORS)
    return trained, decisions


def test_multithreaded_blas_keeps_every_op_serial(bundle, monkeypatch):
    flags = record_schedules(monkeypatch)
    elsewhere = record_first_threads(monkeypatch)
    _, decisions = train_wide(bundle, monkeypatch, blas_threads=2)
    assert not any(decision for _, _, decision in decisions)
    assert flags and not any(flags)
    assert elsewhere and not any(elsewhere)


def test_trained_parameters_match_on_every_schedule(bundle, monkeypatch):
    serial, _ = train_wide(bundle, monkeypatch, blas_threads=2)
    elsewhere = record_first_threads(monkeypatch)
    threaded, decisions = train_wide(bundle, monkeypatch, blas_threads=1)
    assert {floor for floor, _, decision in decisions if decision} == set(FLOORS)
    assert any(elsewhere)
    for name, p in serial.items():
        assert np.array_equal(p.data, threaded[name].data), name


def test_nested_hand_off_returns():
    # A hand-off made inside another's first half gets a thread of its own;
    # run in a child process so that a hang fails the test by its timeout.
    code = ("from emosent.nd import autodiff as a; "
            "print(a._both(lambda: a._both(lambda: 1, lambda: 2, True), lambda: 3, True))")
    assert run_in_python(code) == "((1, 2), 3)"


@pytest.mark.parametrize("failing", ["first", "second"])
def test_error_in_a_half_is_raised_after_the_other_finishes(failing):
    finished = []

    def slow():
        time.sleep(0.05)
        finished.append(True)

    def fail():
        raise ValueError(failing)

    halves = (fail, slow) if failing == "first" else (slow, fail)
    with pytest.raises(ValueError, match=failing):
        BOTH(*halves, True)
    assert finished == [True]


def test_first_error_wins_with_the_second_as_its_context():
    def first():
        raise ValueError("first")

    def second():
        raise KeyError("second")

    with pytest.raises(ValueError, match="first") as caught:
        BOTH(first, second, True)
    assert isinstance(caught.value.__context__, KeyError)
