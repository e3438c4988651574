import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

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


def corrupt_tanh_backward(monkeypatch):
    """Swap `nd.tanh` for a stand-in with tanh's value (up to rounding) and
    1.01 times its gradient: the tape sees 1.01·tanh(a) plus the constant
    -0.01·tanh(a)."""
    from emosent import nd

    tanh = nd.tanh

    def corrupted(a):
        y = tanh(a)
        return nd.add(nd.scale(y, 1.01), nd.Tensor(-0.01 * y.data))

    monkeypatch.setattr(nd, "tanh", corrupted)


def assert_gradients_clear_of_zero(loss_fn, params, floor):
    """Every coordinate of the loss's tape gradient is exactly zero or at
    least `floor` in magnitude. Central differences carry the loss's
    rounding over their step (about 1e-11 at eps 1e-5), so a relative check
    at a coordinate near zero passes or fails by chance; a check whose
    parameters pass this one does not depend on rounding order."""
    from emosent import nd

    with nd.Tape() as tape:
        loss = loss_fn(params)
    for name, grad in zip(params, tape.gradients(loss, list(params.values()))):
        near = np.abs(grad[grad != 0.0])
        assert not np.any(near < floor), f"{name}: a gradient of {near.min():.1e} is near zero"


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
