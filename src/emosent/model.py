"""Two-layered multi-task attention network over a shared BiLSTM encoder.

Per task the pipeline is: token embeddings -> BiLSTM states h_t -> word
attention over thesaurus candidate embeddings (modes S2/E2/M2) giving
hhat_t = concat(mix_t, h_t) -> sentence attention pooling the sequence ->
one affine sigmoid head. Modes S*/E* run one task, M* run both off the
same encoder states. The pooled width is embed_dim + 2*lstm_hidden with
word attention on, 2*lstm_hidden with it off.

Each layer runs on the whole tweet as a few ops on [T, ·] matrices, so the
tape entries of a pass do not grow with T. Each LSTM direction holds three
tensors, lstm_{fw,bw}/W [embed_dim, 4H], U [H, 4H] and b [4H] with
H = lstm_hidden, whose gates (i, f, g, o) are consecutive H-column blocks.

Sentiment is decided by argmax over the two sigmoid outputs with index
order (negative, positive); emotions are thresholded per label at 0.5,
the boundary counting as positive.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import nd
from .rng import stage_rng, truncated_normal

MODES = ("S1", "S2", "E1", "E2", "M1", "M2")
TASK_SENTIMENT = "sentiment"
TASK_EMOTION = "emotion"
HEAD_UNITS = {TASK_SENTIMENT: 2, TASK_EMOTION: 8}
INIT_STD = 0.1


@dataclass(frozen=True)
class ModelConfig:
    mode: str = "M2"
    embed_dim: int = 300
    lstm_hidden: int = 300
    context_dim: int = 150
    dt_k: int = 4
    dropout_rate: float = 0.6
    train_embeddings: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        for name in ("embed_dim", "lstm_hidden", "context_dim", "dt_k"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")

    @property
    def primary_attention_enabled(self) -> bool:
        return self.mode.endswith("2")

    @property
    def tasks(self) -> tuple[str, ...]:
        if self.mode.startswith("S"):
            return (TASK_SENTIMENT,)
        if self.mode.startswith("E"):
            return (TASK_EMOTION,)
        return (TASK_SENTIMENT, TASK_EMOTION)

    @property
    def encoder_dim(self) -> int:
        return 2 * self.lstm_hidden

    @property
    def pooled_dim(self) -> int:
        if self.primary_attention_enabled:
            return self.embed_dim + self.encoder_dim
        return self.encoder_dim


def parameter_shapes(config: ModelConfig, vocab_size: int) -> dict[str, tuple[int, ...]]:
    """Every named parameter tensor and its shape for this configuration."""
    e, h = config.embed_dim, config.lstm_hidden
    shapes: dict[str, tuple[int, ...]] = {"embedding": (vocab_size, e)}
    for direction in ("fw", "bw"):
        shapes[f"lstm_{direction}/W"] = (e, 4 * h)
        shapes[f"lstm_{direction}/U"] = (h, 4 * h)
        shapes[f"lstm_{direction}/b"] = (4 * h,)
    for task in config.tasks:
        if config.primary_attention_enabled:
            shapes[f"{task}/W_w"] = (config.encoder_dim, e)
            shapes[f"{task}/b_w"] = (e,)
        shapes[f"{task}/W_s"] = (config.pooled_dim, config.context_dim)
        shapes[f"{task}/b_s"] = (config.context_dim,)
        shapes[f"{task}/u"] = (config.context_dim,)
        shapes[f"{task}/V"] = (config.pooled_dim, HEAD_UNITS[task])
        shapes[f"{task}/c"] = (HEAD_UNITS[task],)
    return shapes


def init_parameters(
    config: ModelConfig,
    vocab_size: int | None = None,
    embedding_rows: np.ndarray | None = None,
    seed: int = 0,
) -> dict[str, nd.Tensor]:
    """Seeded truncated-normal parameters; embeddings from `embedding_rows`
    when given (frozen unless config.train_embeddings)."""
    if embedding_rows is not None:
        vocab_size = embedding_rows.shape[0]
        if embedding_rows.shape[1] != config.embed_dim:
            raise ValueError(
                f"embedding rows are {embedding_rows.shape[1]}-dimensional, "
                f"config expects {config.embed_dim}"
            )
    if vocab_size is None:
        raise ValueError("need vocab_size or embedding_rows")
    params: dict[str, nd.Tensor] = {}
    for name, shape in parameter_shapes(config, vocab_size).items():
        if name == "embedding" and embedding_rows is not None:
            data = np.array(embedding_rows, dtype=np.float64)
        elif name.startswith("lstm_"):
            # Each gate block is drawn from its own stream, `init/lstm_fw/W_i`
            # and so on, so a seed gives the same network as per-gate tensors.
            block = shape[:-1] + (shape[-1] // 4,)
            data = np.concatenate([_draw(seed, f"{name}_{g}", block) for g in "ifgo"], axis=-1)
        else:
            data = _draw(seed, name, shape)
        trainable = name != "embedding" or config.train_embeddings
        params[name] = nd.Tensor(data, requires_grad=trainable)
    return params


def _draw(seed: int, name: str, shape) -> np.ndarray:
    return truncated_normal(stage_rng(seed, f"init/{name}"), shape, INIT_STD)


def trainable_names(params: Mapping[str, nd.Tensor]) -> list[str]:
    return [name for name, p in params.items() if p.requires_grad]


@dataclass
class ForwardTrace:
    """Every intermediate of one forward pass, for inspection and tests.

    `h` holds the BiLSTM states [T, 2H] and `hhat[task]` the rows that
    sentence attention pools, [T, pooled_dim] (`h` itself with word
    attention off). `primary_alpha[task]` lists each position's
    word-attention weights, trimmed to its candidate count (empty for a
    token without candidates), and `sentence_alpha[task]` holds the T
    sentence-attention weights.
    """

    mode: str
    h: nd.Tensor
    hhat: dict[str, nd.Tensor] = field(default_factory=dict)
    primary_alpha: dict[str, list[np.ndarray]] = field(default_factory=dict)
    sentence_alpha: dict[str, np.ndarray] = field(default_factory=dict)
    sentence_vector: dict[str, nd.Tensor] = field(default_factory=dict)
    logits: dict[str, nd.Tensor] = field(default_factory=dict)
    probabilities: dict[str, np.ndarray] = field(default_factory=dict)
    predictions: dict[str, object] = field(default_factory=dict)


def _dropout(x: nd.Tensor, config: ModelConfig, train_mode: bool, rng) -> nd.Tensor:
    """Inverted dropout on every entry of `x` in train mode, else `x`."""
    if not train_mode or config.dropout_rate == 0.0:
        return x
    if rng is None:
        raise ValueError("train-mode forward needs dropout_rng when dropout_rate > 0")
    return nd.mul(x, nd.dropout_mask(x.shape, config.dropout_rate, rng))


def bilstm_forward(
    xs: nd.Tensor,
    params: Mapping[str, nd.Tensor],
    config: ModelConfig,
    train_mode: bool = False,
    dropout_rng=None,
) -> nd.Tensor:
    """States [T, 2H] for the embeddings `xs` [T, embed_dim]; row t is
    concat(forward_t, backward_t), with dropout in train mode."""
    if xs.shape[0] == 0:
        raise ValueError("bilstm_forward needs a non-empty sequence")
    reverse = range(xs.shape[0] - 1, -1, -1)
    fw = nd.lstm(xs, params["lstm_fw/W"], params["lstm_fw/U"], params["lstm_fw/b"])
    bw = nd.lstm(
        nd.take_rows(xs, reverse), params["lstm_bw/W"], params["lstm_bw/U"], params["lstm_bw/b"]
    )
    states = nd.concat([fw, nd.take_rows(bw, reverse)])
    return _dropout(states, config, train_mode, dropout_rng)


def primary_attention(
    h: nd.Tensor, keys: nd.Tensor, mask: np.ndarray, params: Mapping[str, nd.Tensor], task: str
) -> tuple[np.ndarray, nd.Tensor]:
    """Word attention: row t of `h` [T, 2H] attends over its candidate
    embeddings, rows t*K .. t*K+K-1 of `keys` [T*K, embed_dim] where
    `mask` [T, K] is set; a row without candidates mixes in zeros.
    Returns the weights [T, K] and hhat = concat(mix, h) [T, pooled_dim].
    """
    query = nd.affine(h, params[f"{task}/W_w"], params[f"{task}/b_w"])
    mix, alpha = nd.attend(query, keys, mask)
    return alpha, nd.concat([mix, h])


def secondary_attention(
    hhat: nd.Tensor, params: Mapping[str, nd.Tensor], task: str
) -> tuple[np.ndarray, nd.Tensor]:
    """Sentence attention: score each row of `hhat` [T, P > 0] with the task
    context vector, normalize, and return the weights with the pooled vector."""
    W_s, b_s, u = (params[f"{task}/{n}"] for n in ("W_s", "b_s", "u"))
    alpha = nd.softmax(nd.matmul(nd.tanh(nd.affine(hhat, W_s, b_s)), u))
    return alpha.data, nd.matmul(alpha, hhat)


def task_heads(
    sentence_vectors: Mapping[str, nd.Tensor], params: Mapping[str, nd.Tensor]
) -> dict[str, nd.Tensor]:
    """One affine layer of logits per task."""
    return {
        task: nd.affine(vec, params[f"{task}/V"], params[f"{task}/c"])
        for task, vec in sentence_vectors.items()
    }


def predict_sentiment(probabilities: np.ndarray) -> int:
    """0 = negative, 1 = positive."""
    return int(np.argmax(probabilities))


def predict_emotions(probabilities: np.ndarray) -> np.ndarray:
    """Per-label decisions; the 0.5 boundary counts as positive."""
    return (probabilities >= 0.5).astype(np.int64)


def forward(
    example,
    params: Mapping[str, nd.Tensor],
    config: ModelConfig,
    train_mode: bool = False,
    dropout_rng=None,
) -> ForwardTrace:
    """Run the network on one encoded example and record all intermediates."""
    if not example.token_ids:
        raise ValueError(f"example {example.id!r} has no tokens")
    embedding = params["embedding"]
    xs = nd.take_rows(embedding, example.token_ids)
    trace = ForwardTrace(config.mode, bilstm_forward(xs, params, config, train_mode, dropout_rng))
    if config.primary_attention_enabled:
        # Candidate lists are padded to the longest one; the stand-in row 0
        # is masked out, so it gets zero weight and zero gradient.
        counts = [len(ids) for ids in example.candidate_ids]
        width = max(counts)
        mask = np.arange(width) < np.array(counts)[:, None]
        padded = [list(ids) + [0] * (width - len(ids)) for ids in example.candidate_ids]
        keys = nd.take_rows(embedding, [i for row in padded for i in row])
    for task in config.tasks:
        hhat = trace.h
        if config.primary_attention_enabled:
            alpha, hhat = primary_attention(trace.h, keys, mask, params, task)
            trace.primary_alpha[task] = [row[:n] for row, n in zip(alpha, counts)]
        trace.hhat[task] = hhat
        alpha, pooled = secondary_attention(hhat, params, task)
        trace.sentence_alpha[task] = alpha
        trace.sentence_vector[task] = _dropout(pooled, config, train_mode, dropout_rng)
    for task, logits in task_heads(trace.sentence_vector, params).items():
        trace.logits[task] = logits
        probs = nd.sigmoid_values(logits.data)
        trace.probabilities[task] = probs
        if task == TASK_SENTIMENT:
            trace.predictions[task] = predict_sentiment(probs)
        else:
            trace.predictions[task] = predict_emotions(probs)
    return trace
