"""Two-layered multi-task attention network over a shared BiLSTM encoder.

Per task the pipeline is: token embeddings -> BiLSTM states h_t -> word
attention over thesaurus candidate embeddings (modes S2/E2/M2) giving a mix
for each token with candidates -> sentence attention pooling the sequence of
hhat_t = concat(mix_t, h_t) with weights softmax_t(u · tanh(W_s hhat_t +
b_s)) -> one affine sigmoid head. A token without candidates forms no query
and no mix row, and its mix counts as zero: sentence attention reads the mix
only on the tokens that have one, and no hhat is ever formed. Modes S*/E*
run one task, M* run both off the same encoder states.
The pooled width is embed_dim + 2*lstm_hidden with word attention on,
2*lstm_hidden with it off.

A pass runs on a batch of tweets packed back to back: the N tokens of its
B examples are the rows of [N, ·] matrices, so each row-wise layer is a few
ops whatever the batch, and only the recurrence and the sentence-attention
pooling read the per-example lengths. The tape entries of a pass grow with
neither N nor B. Each LSTM direction holds three
tensors, lstm_{fw,bw}/W [embed_dim, 4H], U [H, 4H] and b [4H] with
H = lstm_hidden, whose gates (i, f, g, o) are consecutive H-column blocks;
both directions are one `nd.bilstm` tape entry per pass, run as one
interleaved stack on the calling thread, or on two threads from
H = `nd.autodiff.PARALLEL_MIN_HIDDEN` up when two CPUs are usable, with
bit-identical results either way. `encode` runs the embedding
gather and the BiLSTM alone, and `forward` given a batch's states skips
them.

A pass stops at probabilities; this module takes no decisions.
`train.infer`, the one inference driver for `evaluate` and `predict`, holds
the decision rule.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Mapping

import numpy as np

from . import nd
from .resources import EncodedExample
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
        for f in fields(self):
            value, kind = getattr(self, f.name), type(f.default)
            if type(value) is not kind and not (kind is float and type(value) is int):
                raise TypeError(f"{f.name}: expected {kind.__name__}, got {value!r}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        for name in ("embed_dim", "lstm_hidden", "context_dim", "dt_k"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout_rate}")

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
        params[name] = nd.Tensor(data, requires_grad=is_trainable(name, config))
    return params


def _draw(seed: int, name: str, shape) -> np.ndarray:
    return truncated_normal(stage_rng(seed, f"init/{name}"), shape, INIT_STD)


def is_trainable(name: str, config: ModelConfig) -> bool:
    """Every parameter trains except `embedding`, which trains only when
    config.train_embeddings."""
    return name != "embedding" or config.train_embeddings


def trainable_names(params: Mapping[str, nd.Tensor]) -> list[str]:
    return [name for name, p in params.items() if p.requires_grad]


@dataclass
class ForwardTrace:
    """The intermediates of one forward pass over a batch from the BiLSTM
    states on, for inspection and tests (`encode` gives the states).

    Per-token fields are packed: the N tokens of the batch's B examples sit
    back to back, example by example. `primary_alpha[task]` lists each
    token's word-attention weights, trimmed to its candidate count (empty
    for a token without candidates), and `sentence_alpha[task]` holds the N
    sentence-attention weights, each example's summing to 1. Per-example
    fields have one row per example: `sentence_vector[task]` [B,
    pooled_dim], and `logits[task]` and `probabilities[task]` [B, units].
    `losses` holds the per-example joint losses [B] once `train.joint_loss`
    has run on the trace.
    """

    primary_alpha: dict[str, list[np.ndarray]] = field(default_factory=dict)
    sentence_alpha: dict[str, np.ndarray] = field(default_factory=dict)
    sentence_vector: dict[str, nd.Tensor] = field(default_factory=dict)
    logits: dict[str, nd.Tensor] = field(default_factory=dict)
    probabilities: dict[str, np.ndarray] = field(default_factory=dict)
    losses: np.ndarray | None = None


def as_batch(examples) -> list[EncodedExample]:
    """A list of encoded examples; a lone example is a batch of one."""
    return [examples] if isinstance(examples, EncodedExample) else list(examples)


def _dropout_masks(lengths, config: ModelConfig, train_mode: bool, rng):
    """Inverted-dropout masks for the states [N, 2H] and, per task, the
    pooled vectors [B, pooled_dim]; (None, {}) outside train mode.

    Each example takes its state mask and then one pooled mask per task, in
    that order, from one draw for the whole batch, so a batch consumes the
    stream as its examples would one by one (oracle: tests/oracles.py).
    """
    if not train_mode or config.dropout_rate == 0.0:
        return None, {}
    if rng is None:
        raise ValueError("train-mode forward needs dropout_rng when dropout_rate > 0")
    rate, width, pooled_dim = config.dropout_rate, config.encoder_dim, config.pooled_dim
    sizes = [n * width + len(config.tasks) * pooled_dim for n in lengths]
    mask = np.where(rng.random(sum(sizes)) >= rate, 1.0 / (1.0 - rate), 0.0)
    state_rows, pooled_rows = [], []
    start = 0
    for n, size in zip(lengths, sizes):
        state_rows.append(mask[start : start + n * width])
        pooled_rows.append(mask[start + n * width : start + size])
        start += size
    pooled = np.stack(pooled_rows).reshape(len(lengths), len(config.tasks), pooled_dim)
    return (
        nd.Tensor(np.concatenate(state_rows).reshape(-1, width)),
        {task: nd.Tensor(pooled[:, k]) for k, task in enumerate(config.tasks)},
    )


def bilstm_forward(
    xs: nd.Tensor,
    params: Mapping[str, nd.Tensor],
    config: ModelConfig,
    lengths=None,
    dropout: nd.Tensor | None = None,
) -> nd.Tensor:
    """States [N, 2H] for the embeddings `xs` [N, embed_dim] of sequences
    packed back to back with the given `lengths` (default: one sequence).
    Row t is concat(forward_t, backward_t), each direction reading only its
    own sequence, times the `dropout` mask [N, 2H] when one is given. One
    `nd.bilstm` entry on the tape (plus the dropout product); at paper dims
    it runs the two directions on two threads."""
    fw, bw = ([params[f"lstm_{d}/{n}"] for n in ("W", "U", "b")] for d in ("fw", "bw"))
    states = nd.bilstm(xs, fw, bw, lengths)
    return states if dropout is None else nd.mul(states, dropout)


def primary_attention(
    h: nd.Tensor, keys: nd.Tensor, mask: np.ndarray, params: Mapping[str, nd.Tensor], task: str
) -> tuple[np.ndarray, tuple[nd.Tensor, np.ndarray]]:
    """Word attention (`nd.affine_attend`): each of the R rows of `h` [N, 2H]
    with a set entry in `mask` [N, K] attends over its K candidate embeddings,
    the next K rows of `keys` [R*K, embed_dim] in row order, where the mask is
    set; a row without candidates forms no query and no mix row.
    Returns the weights [N, K] and the pair (mix [R, embed_dim], rows [R]):
    the R rows' mixes and their row numbers, ascending, for
    `secondary_attention`.
    """
    mix, alpha = nd.affine_attend(h, params[f"{task}/W_w"], params[f"{task}/b_w"], keys, mask)
    return alpha, (mix, np.flatnonzero(mask.any(axis=1)))


def secondary_attention(
    h: nd.Tensor, params: Mapping[str, nd.Tensor], task: str, lengths=None, mix=None
) -> tuple[np.ndarray, nd.Tensor]:
    """Sentence attention (`nd.affine_pool`): score each row hhat_t =
    concat(mix_t, h_t) with the task context vector, u · tanh(W_s hhat_t +
    b_s), normalize the scores within each sequence of the given `lengths`
    (default: one non-empty sequence), and return the weights [N] with the
    pooled vectors [B, P]. `mix` is the (mix [R, embed_dim], rows [R]) pair
    that `primary_attention` returns, read as zero on the other rows; without
    it hhat_t is the row h_t of `h` [N, P] itself."""
    W_s, b_s, u = (params[f"{task}/{n}"] for n in ("W_s", "b_s", "u"))
    pooled, alpha = nd.affine_pool(h, W_s, b_s, u, lengths, *(mix or ()))
    return alpha, pooled


def task_heads(
    sentence_vectors: Mapping[str, nd.Tensor], params: Mapping[str, nd.Tensor]
) -> dict[str, nd.Tensor]:
    """One affine layer of logits per task."""
    return {
        task: nd.affine(vec, params[f"{task}/V"], params[f"{task}/c"])
        for task, vec in sentence_vectors.items()
    }


def _lengths(examples: list[EncodedExample]) -> list[int]:
    """Each example's token count; an example without tokens is an error."""
    for ex in examples:
        if not ex.token_ids:
            raise ValueError(f"example {ex.id!r} has no tokens")
    return [len(ex.token_ids) for ex in examples]


def encode(
    examples,
    params: Mapping[str, nd.Tensor],
    config: ModelConfig,
    dropout: nd.Tensor | None = None,
) -> nd.Tensor:
    """The BiLSTM states [N, 2H] of a batch of encoded examples (or one),
    packed back to back: their tokens' embeddings run through
    `bilstm_forward`, times the `dropout` mask when one is given."""
    examples = as_batch(examples)
    lengths = _lengths(examples)
    xs = nd.take_rows(params["embedding"], [i for ex in examples for i in ex.token_ids])
    return bilstm_forward(xs, params, config, lengths, dropout)


def forward(
    examples,
    params: Mapping[str, nd.Tensor],
    config: ModelConfig,
    train_mode: bool = False,
    dropout_rng=None,
    states: nd.Tensor | None = None,
) -> ForwardTrace:
    """Run the network on a batch of encoded examples (or one) and record
    all intermediates.

    Given the batch's `states`, as `encode` returns them, an inference pass
    skips the embedding gather and the BiLSTM; a train-mode pass always
    encodes its own, behind its dropout mask.
    """
    if train_mode and states is not None:
        raise ValueError("a train-mode forward encodes its own states")
    examples = as_batch(examples)
    lengths = _lengths(examples)
    state_mask, pooled_masks = _dropout_masks(lengths, config, train_mode, dropout_rng)
    if states is None:
        states = encode(examples, params, config, state_mask)
    trace = ForwardTrace()
    embedding = params["embedding"]
    if config.primary_attention_enabled:
        # Tokens with candidates get keys, padded to the longest list; the
        # stand-in row 0 is masked out: zero weight and zero gradient.
        candidates = [ids for ex in examples for ids in ex.candidate_ids]
        counts = [len(ids) for ids in candidates]
        width = max(counts)
        mask = np.arange(width) < np.array(counts)[:, None]
        keys = nd.take_rows(embedding, [
            i for ids in candidates if ids for i in list(ids) + [0] * (width - len(ids))
        ])
    for task in config.tasks:
        mix = None
        if config.primary_attention_enabled:
            alpha, mix = primary_attention(states, keys, mask, params, task)
            trace.primary_alpha[task] = [row[:n] for row, n in zip(alpha, counts)]
        alpha, pooled = secondary_attention(states, params, task, lengths, mix)
        trace.sentence_alpha[task] = alpha
        if task in pooled_masks:
            pooled = nd.mul(pooled, pooled_masks[task])
        trace.sentence_vector[task] = pooled
    for task, logits in task_heads(trace.sentence_vector, params).items():
        trace.logits[task] = logits
        trace.probabilities[task] = nd.sigmoid_values(logits.data)
    return trace
