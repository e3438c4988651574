"""Two-layered multi-task attention network over a shared BiLSTM encoder.

Per task the pipeline is: token embeddings -> BiLSTM states h_t -> word
attention over thesaurus candidate embeddings (modes S2/E2/M2) giving
hhat_t = concat(mix_t, h_t) -> sentence attention pooling the sequence ->
one affine sigmoid head. Modes S*/E* run one task, M* run both off the
same encoder states. The pooled width is embed_dim + 2*lstm_hidden with
word attention on, 2*lstm_hidden with it off.

Each LSTM direction holds three tensors, lstm_{fw,bw}/W [embed_dim, 4H],
U [H, 4H] and b [4H] with H = lstm_hidden, whose gates (i, f, g, o) are
consecutive H-column blocks; `nd.lstm` runs a whole direction as one op.

Sentiment is decided by argmax over the two sigmoid outputs with index
order (negative, positive); emotions are thresholded per label at 0.5,
the boundary counting as positive.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

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
    """Every intermediate of one forward pass, for inspection and tests."""

    mode: str
    h: list[nd.Tensor]
    hhat: dict[str, list[nd.Tensor]] = field(default_factory=dict)
    primary_alpha: dict[str, list[np.ndarray]] = field(default_factory=dict)
    sentence_alpha: dict[str, np.ndarray] = field(default_factory=dict)
    sentence_vector: dict[str, nd.Tensor] = field(default_factory=dict)
    logits: dict[str, nd.Tensor] = field(default_factory=dict)
    probabilities: dict[str, np.ndarray] = field(default_factory=dict)
    predictions: dict[str, object] = field(default_factory=dict)


def bilstm_forward(
    embeds: Sequence[nd.Tensor],
    params: Mapping[str, nd.Tensor],
    config: ModelConfig,
    train_mode: bool = False,
    dropout_rng=None,
) -> list[nd.Tensor]:
    """Per-position states h_t = concat(forward_t, backward_t), with
    dropout on each h_t in train mode."""
    embeds = list(embeds)
    if not embeds:
        raise ValueError("bilstm_forward needs a non-empty sequence")
    steps, hidden = len(embeds), config.lstm_hidden
    xs = nd.stack(embeds)
    fw = nd.lstm(xs, params["lstm_fw/W"], params["lstm_fw/U"], params["lstm_fw/b"])
    bw = nd.lstm(
        nd.take_rows(xs, range(steps - 1, -1, -1)),
        params["lstm_bw/W"],
        params["lstm_bw/U"],
        params["lstm_bw/b"],
    )
    # Stacked, rows t and 2T-1-t hold position t's forward and backward states.
    both = nd.reshape(
        nd.concat([nd.reshape(fw, (-1,)), nd.reshape(bw, (-1,))]), (2 * steps, hidden)
    )
    states = [
        nd.reshape(nd.take_rows(both, [t, 2 * steps - 1 - t]), (2 * hidden,))
        for t in range(steps)
    ]
    if train_mode and config.dropout_rate > 0.0:
        if dropout_rng is None:
            raise ValueError("train-mode forward needs dropout_rng when dropout_rate > 0")
        states = [
            nd.mul(s, nd.dropout_mask(s.shape, config.dropout_rate, dropout_rng))
            for s in states
        ]
    return states


def _as_matrix(candidates) -> nd.Tensor | None:
    if candidates is None:
        return None
    if isinstance(candidates, nd.Tensor):
        return None if candidates.shape[0] == 0 else candidates
    candidates = list(candidates)
    if not candidates:
        return None
    return nd.stack(candidates)


def primary_attention(
    h_t: nd.Tensor,
    candidates,
    params: Mapping[str, nd.Tensor],
    task: str,
) -> tuple[np.ndarray, nd.Tensor]:
    """Word attention over candidate embeddings for one position.

    `candidates` is a [k, embed_dim] tensor or a sequence of embed_dim
    vectors; empty or None mixes in a zero vector. Returns the coefficient
    values and hhat_t = concat(mix, h_t).
    """
    b_w = params[f"{task}/b_w"]
    matrix = _as_matrix(candidates)
    if matrix is None:
        return np.zeros(0), nd.concat([nd.zeros(b_w.shape[0]), h_t])
    query = nd.add(nd.matmul(h_t, params[f"{task}/W_w"]), b_w)
    alpha = nd.softmax(nd.matmul(matrix, query))
    mix = nd.matmul(alpha, matrix)
    return alpha.data.copy(), nd.concat([mix, h_t])


def secondary_attention(
    hhats: Sequence[nd.Tensor],
    params: Mapping[str, nd.Tensor],
    task: str,
) -> tuple[np.ndarray, nd.Tensor]:
    """Sentence attention: score each position with the task context vector,
    normalize, and return the coefficient values with the pooled vector."""
    hhats = list(hhats)
    if not hhats:
        raise ValueError("secondary_attention needs a non-empty sequence")
    W_s, b_s, u = (params[f"{task}/{n}"] for n in ("W_s", "b_s", "u"))
    scores = nd.concat(
        [
            nd.reshape(nd.matmul(nd.tanh(nd.add(nd.matmul(hh, W_s), b_s)), u), (1,))
            for hh in hhats
        ]
    )
    alpha = nd.softmax(scores)
    pooled = nd.matmul(alpha, nd.stack(hhats))
    return alpha.data.copy(), pooled


def task_heads(
    sentence_vectors: Mapping[str, nd.Tensor], params: Mapping[str, nd.Tensor]
) -> dict[str, nd.Tensor]:
    """One affine layer of logits per task."""
    return {
        task: nd.add(nd.matmul(vec, params[f"{task}/V"]), params[f"{task}/c"])
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
    embeds = [
        nd.reshape(nd.take_rows(embedding, [tid]), (config.embed_dim,))
        for tid in example.token_ids
    ]
    trace = ForwardTrace(
        config.mode, bilstm_forward(embeds, params, config, train_mode, dropout_rng)
    )
    candidate_matrices = None
    if config.primary_attention_enabled:
        candidate_matrices = [
            nd.take_rows(embedding, ids) if ids else None
            for ids in example.candidate_ids
        ]
    for task in config.tasks:
        if candidate_matrices is not None:
            hhats = []
            alphas = []
            for t, cands in enumerate(candidate_matrices):
                alpha, hhat = primary_attention(trace.h[t], cands, params, task)
                alphas.append(alpha)
                hhats.append(hhat)
            trace.primary_alpha[task] = alphas
        else:
            hhats = list(trace.h)
        trace.hhat[task] = hhats
        alpha, pooled = secondary_attention(hhats, params, task)
        if train_mode and config.dropout_rate > 0.0:
            pooled = nd.mul(
                pooled, nd.dropout_mask(pooled.shape, config.dropout_rate, dropout_rng)
            )
        trace.sentence_alpha[task] = alpha
        trace.sentence_vector[task] = pooled
    for task, logits in task_heads(trace.sentence_vector, params).items():
        trace.logits[task] = logits
        probs = nd.sigmoid_values(logits.data)
        trace.probabilities[task] = probs
        if task == TASK_SENTIMENT:
            trace.predictions[task] = predict_sentiment(probs)
        else:
            trace.predictions[task] = predict_emotions(probs)
    return trace
