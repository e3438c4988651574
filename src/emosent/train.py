"""Seeded mini-batch training, the inference driver, and corpus evaluation.

Each mini-batch runs as one forward and one backward pass over its
examples packed back to back; the gradient of the mean per-example loss
drives one Adam step. Examples labeled "other" carry no
sentiment target: they are dropped entirely in sentiment-only modes and
contribute only the emotion term in joint modes. `infer` is the one
inference path and holds the decision rule: `evaluate` scores its
decisions, and `emosent predict` prints them for one tweet. It encodes
ENCODE_CHUNK tweets per BiLSTM call where the batch-invariance probe,
run at the row counts those calls run, allows it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import nd
from .artifacts import write_atomic
from .metrics import (
    MetricsReport,
    emotion_metrics,
    render_metrics,
    render_table,
    sentiment_metrics,
)
from .model import (
    ForwardTrace,
    ModelConfig,
    TASK_EMOTION,
    TASK_SENTIMENT,
    as_batch,
    encode,
    forward,
    trainable_names,
)
from .resources import EncodedExample, OTHER_SENTIMENT, SENTIMENTS
from .rng import stage_rng

# Tweets per `encode` call in `infer`: most of a one-tweet forward is the
# BiLSTM, whose recurrence reads U once per step, so a chunk of tweets shares
# each read.
ENCODE_CHUNK = 64
EMOTION_THRESHOLD = 0.5  # default emotion decision threshold


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 64
    lr: float = 0.001
    epochs: int = 1
    seed: int = 0
    sentiment_loss_weight: float = 1.0
    emotion_loss_weight: float = 1.0
    patience: int | None = None

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")
        if not 0.0 <= self.lr < math.inf:
            raise ValueError(f"lr must be finite and non-negative, got {self.lr}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        for name in ("sentiment_loss_weight", "emotion_loss_weight"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and non-negative, got {value}")
        if self.patience is not None and self.patience < 1:
            raise ValueError(f"patience must be at least 1 when set, got {self.patience}")


def joint_loss(
    trace: ForwardTrace,
    examples,
    config: ModelConfig,
    sentiment_weight: float = 1.0,
    emotion_weight: float = 1.0,
) -> nd.Tensor:
    """Mean over the batch of each example's weighted sum of its active
    heads' sigmoid cross-entropies; `examples` are the ones `trace` ran on
    (a lone example is a batch of one).

    An "other" row carries no sentiment term, so in a sentiment-only trace
    its loss is zero. The per-example losses [B] are left in `trace.losses`.
    """
    examples = as_batch(examples)
    terms: list[nd.Tensor] = []
    if TASK_SENTIMENT in trace.logits:
        targets = [[1.0, 0.0] if ex.sentiment == SENTIMENTS[0] else [0.0, 1.0] for ex in examples]
        weights = [0.0 if ex.sentiment == OTHER_SENTIMENT else sentiment_weight for ex in examples]
        term = nd.sigmoid_xent(trace.logits[TASK_SENTIMENT], nd.Tensor(targets))
        terms.append(nd.mul(term, nd.Tensor(weights)))
    if TASK_EMOTION in trace.logits:
        targets = np.stack([ex.emotions for ex in examples])
        term = nd.sigmoid_xent(trace.logits[TASK_EMOTION], nd.Tensor(targets))
        terms.append(nd.scale(term, emotion_weight))
    per_example = terms[0] if len(terms) == 1 else nd.add(*terms)
    trace.losses = per_example.data
    return nd.scale(nd.sum(per_example), 1.0 / len(examples))


def _trainable_examples(
    examples: Sequence[EncodedExample], config: ModelConfig
) -> list[EncodedExample]:
    if config.tasks == (TASK_SENTIMENT,):
        return [ex for ex in examples if ex.sentiment != OTHER_SENTIMENT]
    return list(examples)


def train(
    examples: Sequence[EncodedExample],
    params: dict[str, nd.Tensor],
    train_cfg: TrainConfig,
    model_cfg: ModelConfig,
) -> tuple[dict[str, nd.Tensor], list[float]]:
    """Optimize `params` on `examples`; returns new params and the per-epoch
    mean loss log. Fully determined by (seed, configs, examples); `params`
    is never written, as the optimizer keeps its own arena. The first
    non-finite loss or averaged gradient raises ValueError naming its batch."""
    pool = _trainable_examples(examples, model_cfg)
    if not pool:
        raise ValueError("no trainable examples for this mode")
    shuffle_rng = stage_rng(train_cfg.seed, "train/shuffle")
    dropout_rng = stage_rng(train_cfg.seed, "train/dropout")
    state = nd.AdamState()
    names = trainable_names(params)
    log: list[float] = []
    best_loss = np.inf
    stale = 0
    for epoch in range(1, train_cfg.epochs + 1):
        order = shuffle_rng.permutation(len(pool))
        epoch_total = 0.0
        for start in range(0, len(pool), train_cfg.batch_size):
            where = f"epoch {epoch}, batch {start // train_cfg.batch_size + 1}"
            batch = [pool[i] for i in order[start : start + train_cfg.batch_size]]
            with nd.Tape() as tape:
                trace = forward(
                    batch, params, model_cfg, train_mode=True, dropout_rng=dropout_rng
                )
                loss = joint_loss(
                    trace,
                    batch,
                    model_cfg,
                    train_cfg.sentiment_loss_weight,
                    train_cfg.emotion_loss_weight,
                )
            for ex, value in zip(batch, trace.losses.tolist()):
                if not np.isfinite(value):
                    raise ValueError(f"non-finite loss on example {ex.id!r} in {where}")
                epoch_total += value
            grads = dict(zip(names, tape.gradients(loss, [params[n] for n in names])))
            for name, grad in grads.items():
                if not np.isfinite(grad).all():
                    raise ValueError(f"non-finite gradient of {name!r} in {where}")
            params, state = nd.adam_step(params, grads, state, lr=train_cfg.lr)
        log.append(epoch_total / len(pool))
        if train_cfg.patience is not None:
            if log[-1] < best_loss:
                best_loss = log[-1]
                stale = 0
            else:
                stale += 1
                if stale >= train_cfg.patience:
                    break
    return params, log


def _encode_chunk(examples: Sequence[EncodedExample], model_cfg: ModelConfig) -> int:
    """How many examples `infer` encodes per call: 1 for a lone example,
    which needs no probe, else ENCODE_CHUNK when the probe finds the BiLSTM
    batch-invariant on these chunks, so every example's states equal those
    of a one-example forward, else 1."""
    if len(examples) <= 1:
        return 1
    lengths = [len(ex.token_ids) for ex in examples]
    chunks = [lengths[at : at + ENCODE_CHUNK] for at in range(0, len(lengths), ENCODE_CHUNK)]
    invariant = nd.bilstm_batch_invariant(model_cfg.embed_dim, model_cfg.lstm_hidden, chunks)
    return ENCODE_CHUNK if invariant else 1


def infer(
    examples: Sequence[EncodedExample],
    params: dict[str, nd.Tensor],
    model_cfg: ModelConfig,
    threshold: float = EMOTION_THRESHOLD,
) -> list[tuple[dict[str, np.ndarray], dict[str, int | np.ndarray]]]:
    """The inference driver of `evaluate` and `predict`: per example, a pair
    of dicts keyed by the mode's tasks, its probabilities [units] and its
    decisions, the sentiment index into SENTIMENTS and the emotion bits [8].

    Examples are encoded up to ENCODE_CHUNK at a time, then each runs the
    rest of `forward` on its own states, so its probabilities are bit-equal
    to those of a one-example forward. The sentiment is the argmax of the
    two outputs, the first on a tie, and an emotion label is present at or
    above `threshold`, which must lie in (0, 1). A non-finite logit, NaN or
    an infinity that would pass as a probability of exactly 0 or 1, raises
    ValueError naming its example.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    decide = {
        TASK_SENTIMENT: lambda p: int(np.argmax(p)),
        TASK_EMOTION: lambda p: (p >= threshold).astype(np.int64),
    }
    results = []
    chunk = _encode_chunk(examples, model_cfg)
    for start in range(0, len(examples), chunk):
        batch = examples[start : start + chunk]
        states = encode(batch, params, model_cfg).data
        ends = np.cumsum([len(ex.token_ids) for ex in batch])
        for ex, h in zip(batch, np.split(states, ends[:-1])):
            trace = forward(ex, params, model_cfg, states=nd.Tensor(h))
            for task, logits in trace.logits.items():
                if not np.isfinite(logits.data).all():
                    raise ValueError(f"non-finite {task} logits for example {ex.id!r}")
            probs = {task: p[0] for task, p in trace.probabilities.items()}
            results.append((probs, {task: decide[task](p) for task, p in probs.items()}))
    return results


def evaluate(
    examples: Sequence[EncodedExample],
    params: dict[str, nd.Tensor],
    model_cfg: ModelConfig,
    threshold: float = EMOTION_THRESHOLD,
    seed: int = 0,
    epoch: int = 0,
) -> MetricsReport:
    """Score a corpus with a frozen model: `infer`'s decisions against the
    gold labels. Sentiment is scored only over gold positive/negative rows;
    emotion is scored over every row at the given probability threshold,
    which must lie in (0, 1).
    """
    if not examples:
        raise ValueError("evaluate needs a non-empty corpus")
    decisions = [d for _, d in infer(examples, params, model_cfg, threshold)]
    sentiment = emotion = None
    if TASK_SENTIMENT in model_cfg.tasks:
        scored = [(ex, d) for ex, d in zip(examples, decisions) if ex.sentiment in SENTIMENTS]
        sentiment = sentiment_metrics(
            [SENTIMENTS.index(ex.sentiment) for ex, _ in scored],
            [d[TASK_SENTIMENT] for _, d in scored],
        )
    if TASK_EMOTION in model_cfg.tasks:
        emotion = emotion_metrics(
            [ex.emotions.astype(np.int64) for ex in examples],
            [d[TASK_EMOTION] for d in decisions],
        )
    return MetricsReport(model_cfg.mode, seed, epoch, sentiment, emotion)


def write_report(report: MetricsReport, metrics_path, table_path=None) -> None:
    """Write the flat metrics file and, optionally, the human table."""
    write_atomic(metrics_path, render_metrics(report))
    if table_path is not None:
        write_atomic(table_path, render_table(report))
