import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import strategies as st

FIXTURES = Path(__file__).parent / "fixtures"

# Checkpoint headers that are JSON but that the parser refuses: nested past
# its recursion limit, or an integer past Python's digit limit.
UNPARSABLE_HEADERS = {
    "nested": b'{"meta":' + b"[" * 100_000 + b"]" * 100_000 + b"}",
    "digits": b'{"meta":{"n":' + b"9" * 5_000 + b"}}",
}


def small_config(mode="M2", **overrides):
    """Model sized for the 16-dim fixture embeddings."""
    from emosent.model import ModelConfig

    settings = dict(
        mode=mode,
        embed_dim=16,
        lstm_hidden=8,
        context_dim=4,
        dt_k=4,
        dropout_rate=0.0,
    )
    settings.update(overrides)
    return ModelConfig(**settings)


def corrupt_affine_pool_backward(monkeypatch):
    """Swap `nd.affine_pool` for a stand-in with its values whose tape
    entry's backward pass gives 1.01 times every gradient."""
    from emosent import nd
    from emosent.nd import autodiff

    affine_pool = nd.affine_pool

    def corrupted(*args, **kwargs):
        pooled, weights = affine_pool(*args, **kwargs)
        entries = autodiff._tape_stack[-1].entries if autodiff._tape_stack else []
        if entries and entries[-1].output is pooled:
            backward = entries[-1].backward
            entries[-1] = entries[-1]._replace(backward=lambda g: tuple(
                None if d is None else 1.01 * d for d in backward(g)))
        return pooled, weights

    monkeypatch.setattr(nd, "affine_pool", corrupted)


def near_zero_gradient(loss_fn, params, floor):
    """The first tensor, by name, whose tape gradient of the loss has a
    coordinate that is neither exactly zero nor at least `floor` in
    magnitude, with that coordinate; None when there is none."""
    from emosent import nd

    with nd.Tape() as tape:
        loss = loss_fn(params)
    for name, grad in zip(params, tape.gradients(loss, list(params.values()))):
        near = np.abs(grad[grad != 0.0])
        if np.any(near < floor):
            return f"{name}: a gradient of {near.min():.1e} is near zero"
    return None


def assert_gradients_clear_of_zero(loss_fn, params, floor):
    """Every coordinate of the loss's tape gradient is exactly zero or at
    least `floor` in magnitude. Central differences carry the loss's
    rounding over their step (about 1e-11 at eps 1e-5), so a relative check
    at a coordinate near zero passes or fails by chance; a check whose
    parameters pass this one does not depend on rounding order."""
    message = near_zero_gradient(loss_fn, params, floor)
    assert message is None, message


# Ragged batches for `nd.affine_pool`: 1-4 sequences of 1-5 rows, each row
# flagged when it carries a mix (a token with thesaurus candidates), and in
# `pool_batches` whether the batch passes a mix at all (False: `mix=None`).
pool_flags = st.lists(st.lists(st.booleans(), min_size=1, max_size=5), min_size=1, max_size=4)
pool_batches = st.tuples(pool_flags, st.booleans())


def pool_inputs(batch, seed, e=2, width=3, context=2, requires_grad=False):
    """Seeded `nd.affine_pool` operands for a `pool_batches` draw: h [N,
    width], W [e + width, context] (e = 0 without a mix), b, u, the lengths,
    and mix [R, e] with its R rows (None, None without a mix)."""
    from emosent import nd

    flags, with_mix = batch
    rng = np.random.default_rng(seed)
    has_mix = np.array([f for sequence in flags for f in sequence])
    e = e if with_mix else 0

    def tensor(*shape):
        return nd.Tensor(rng.normal(size=shape), requires_grad=requires_grad)

    operands = dict(h=tensor(has_mix.size, width), W=tensor(e + width, context),
                    b=tensor(context), u=tensor(context), lengths=[len(f) for f in flags],
                    mix=None, rows=None)
    if with_mix:
        operands.update(mix=tensor(int(has_mix.sum()), e), rows=np.flatnonzero(has_mix))
    return operands


def pool_rows(operands):
    """The dense rows [mix_t ; h_t] that `nd.affine_pool` scores and pools,
    a zero mix on the rows without one."""
    h, mix = operands["h"].data, operands["mix"]
    if mix is None:
        return h
    dense = np.zeros((h.shape[0], mix.shape[1]))
    dense[operands["rows"]] = mix.data
    return np.hstack([dense, h])


def gate_weights(params, prefix):
    """One LSTM direction's gate-stacked tensors sliced into the per-gate
    nested lists (W_i, U_i, b_i, ...) that the loop oracle takes."""
    weights = {}
    for name in ("W", "U", "b"):
        blocks = np.split(params[f"{prefix}/{name}"].data, 4, axis=-1)
        for gate, block in zip("ifgo", blocks):
            weights[f"{name}_{gate}"] = block.tolist()
    return weights


@pytest.fixture(autouse=True)
def no_nd_thread_outlives_the_test():
    """`nd` joins every thread it starts (named `nd-...`) before the op that
    started it returns, so none may be alive once a test is over."""
    yield
    alive = [t.name for t in threading.enumerate() if t.name.startswith("nd-")]
    assert not alive, f"nd threads still alive after the test: {alive}"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def lexicon():
    from emosent.preprocess import SegmentationLexicon

    return SegmentationLexicon.from_file(FIXTURES / "lexicon.txt")


@pytest.fixture(scope="session")
def bundle(lexicon):
    """Fixture corpus fully loaded and encoded, shared across test modules."""
    from emosent.resources import (
        Thesaurus,
        build_vocab,
        encode_corpus,
        load_corpus,
        load_embeddings,
        vocab_embedding_rows,
    )

    embeddings = load_embeddings(FIXTURES / "embeddings.txt", 16)
    thesaurus = Thesaurus.from_file(FIXTURES / "thesaurus.tsv")
    train_corpus = load_corpus(FIXTURES / "corpus_train.tsv")
    test_corpus = load_corpus(FIXTURES / "corpus_test.tsv")
    vocab = build_vocab(train_corpus, embeddings, thesaurus, 4)
    return SimpleNamespace(
        embeddings=embeddings,
        thesaurus=thesaurus,
        lexicon=lexicon,
        train_corpus=train_corpus,
        test_corpus=test_corpus,
        vocab=vocab,
        embedding_rows=vocab_embedding_rows(vocab, embeddings),
        train_examples=encode_corpus(train_corpus, vocab, thesaurus, 4),
        test_examples=encode_corpus(test_corpus, vocab, thesaurus, 4),
    )
