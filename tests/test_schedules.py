"""`nd.bilstm` gives bit-identical results on either schedule: its two
directions one after the other on the calling thread, or the forward one on
the worker thread at the same time. On both, a frozen input of `nd.bilstm`
or `nd.attend` gets no gradient and changes no other one."""
import multiprocessing
import queue
import threading

import numpy as np
import pytest

from emosent import nd
from emosent.model import init_parameters
from emosent.nd import autodiff
from emosent.train import TrainConfig, train

from conftest import small_config

# One hidden size on each side of the crossover.
HIDDEN_SIZES = [8, autodiff.PARALLEL_MIN_HIDDEN]
LENGTHS = [4, 1, 6, 1, 3]


def force_schedule(monkeypatch, parallel):
    monkeypatch.setattr(autodiff, "_run_directions_in_parallel", lambda hidden: parallel)


def worker_running():
    return any(t.name.startswith("nd-bilstm") for t in threading.enumerate())


def bilstm_outputs_and_gradients(hidden, seed=0):
    """States and the seven gradients of a fixed loss on ragged sequences."""
    rng = np.random.default_rng(seed)
    rows, width = sum(LENGTHS), 5

    def param(*shape):
        return nd.Tensor(rng.normal(size=shape) * 0.5, requires_grad=True)

    xs = param(rows, width)
    fw, bw = ([param(width, 4 * hidden), param(hidden, 4 * hidden), param(4 * hidden)]
              for _ in range(2))
    probe = nd.Tensor(rng.normal(size=(rows, 2 * hidden)))
    with nd.Tape() as tape:
        states = nd.bilstm(xs, fw, bw, LENGTHS)
        loss = nd.sum(nd.mul(states, probe))
    return [states.data, *tape.gradients(loss, [xs, *fw, *bw])]


@pytest.mark.parametrize("hidden", HIDDEN_SIZES)
def test_bilstm_outputs_and_gradients_match(hidden, monkeypatch):
    results = {}
    for parallel in (False, True):
        force_schedule(monkeypatch, parallel)
        results[parallel] = bilstm_outputs_and_gradients(hidden)
    assert worker_running()
    for serial, threaded in zip(results[False], results[True]):
        assert np.array_equal(serial, threaded)


@pytest.mark.parametrize("hidden", HIDDEN_SIZES)
def test_trained_parameters_match(hidden, monkeypatch, bundle):
    config = small_config("M2", lstm_hidden=hidden, dropout_rate=0.5)
    trained = {}
    for parallel in (False, True):
        force_schedule(monkeypatch, parallel)
        params = init_parameters(config, embedding_rows=bundle.embedding_rows, seed=3)
        trained[parallel], _ = train(
            bundle.train_examples, params,
            TrainConfig(batch_size=8, lr=0.01, epochs=2, seed=3), config,
        )
    assert worker_running()
    for name, p in trained[False].items():
        assert np.array_equal(p.data, trained[True][name].data), name


def test_schedule_follows_hidden_size(monkeypatch):
    monkeypatch.setattr(autodiff, "_usable_cpus", lambda: 2)
    assert not autodiff._run_directions_in_parallel(autodiff.PARALLEL_MIN_HIDDEN - 1)
    assert autodiff._run_directions_in_parallel(autodiff.PARALLEL_MIN_HIDDEN)
    monkeypatch.setattr(autodiff, "_usable_cpus", lambda: 1)
    assert not autodiff._run_directions_in_parallel(autodiff.PARALLEL_MIN_HIDDEN)


def _run_in_child(results):
    results.put(bilstm_outputs_and_gradients(8)[0])


def test_forked_child_runs_the_parallel_schedule(monkeypatch):
    # The parent's worker thread does not survive a fork; the child must
    # start its own rather than wait on a thread that is not there.
    force_schedule(monkeypatch, True)
    expected = bilstm_outputs_and_gradients(8)[0]
    assert worker_running()
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
    """The gradient of a loss through `nd.bilstm` and then `nd.attend` for
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
    inputs["keys"] = tensor(rows * k, 2 * hidden, trainable=keys_trainable)
    mask = rng.random((rows, k)) < 0.7
    probe = nd.Tensor(rng.normal(size=(rows, 2 * hidden)))
    fw, bw = ([inputs[f"{d}/{n}"] for n in "WUb"] for d in ("fw", "bw"))
    with nd.Tape() as tape:
        states = nd.bilstm(inputs["xs"], fw, bw, LENGTHS)
        mix, _ = nd.attend(states, inputs["keys"], mask)
        loss = nd.sum(nd.mul(nd.add(states, mix), probe))
    names = [name for name, t in inputs.items() if t.requires_grad]
    grads = dict(zip(names, tape.gradients(loss, [inputs[n] for n in names])))
    bilstm_entry, attend_entry = tape.entries[:2]
    d_xs = bilstm_entry.backward(probe.data)[0]
    d_keys = attend_entry.backward(probe.data)[1]
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
