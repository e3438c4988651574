"""Seeded mini-batch training and corpus evaluation.

Batches accumulate per-example gradients (the forward pass is unbatched),
average them, and apply one Adam step. Examples labeled "other" carry no
sentiment target: they are dropped entirely in sentiment-only modes and
contribute only the emotion term in joint modes.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import nd
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
    forward,
    trainable_names,
)
from .resources import EncodedExample, OTHER_SENTIMENT, SENTIMENTS
from .rng import stage_rng


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
        if self.sentiment_loss_weight < 0 or self.emotion_loss_weight < 0:
            raise ValueError("loss weights must be non-negative")
        if self.patience is not None and self.patience < 1:
            raise ValueError(f"patience must be at least 1 when set, got {self.patience}")


def sentiment_target(label: str) -> nd.Tensor:
    """One-hot over (negative, positive)."""
    return nd.Tensor([1.0, 0.0] if label == SENTIMENTS[0] else [0.0, 1.0])


def joint_loss(
    trace: ForwardTrace,
    example: EncodedExample,
    config: ModelConfig,
    sentiment_weight: float = 1.0,
    emotion_weight: float = 1.0,
) -> nd.Tensor:
    """Weighted sum of the active heads' sigmoid cross-entropies.

    An example with no applicable term (an "other" row in a sentiment-only
    trace) yields a constant zero.
    """
    terms: list[nd.Tensor] = []
    if TASK_SENTIMENT in trace.logits and example.sentiment != OTHER_SENTIMENT:
        term = nd.sigmoid_xent(
            trace.logits[TASK_SENTIMENT], sentiment_target(example.sentiment)
        )
        if sentiment_weight != 1.0:
            term = nd.scale(term, sentiment_weight)
        terms.append(term)
    if TASK_EMOTION in trace.logits:
        term = nd.sigmoid_xent(trace.logits[TASK_EMOTION], nd.Tensor(example.emotions))
        if emotion_weight != 1.0:
            term = nd.scale(term, emotion_weight)
        terms.append(term)
    if not terms:
        return nd.zeros(())
    loss = terms[0]
    for term in terms[1:]:
        loss = nd.add(loss, term)
    return loss


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
    mean loss log. Fully determined by (seed, configs, examples). The first
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
            grad_sums = {name: np.zeros(params[name].shape) for name in names}
            for ex in batch:
                with nd.Tape() as tape:
                    trace = forward(
                        ex, params, model_cfg, train_mode=True, dropout_rng=dropout_rng
                    )
                    loss = joint_loss(
                        trace,
                        ex,
                        model_cfg,
                        train_cfg.sentiment_loss_weight,
                        train_cfg.emotion_loss_weight,
                    )
                if not np.isfinite(loss.item()):
                    raise ValueError(f"non-finite loss on example {ex.id!r} in {where}")
                epoch_total += loss.item()
                for name, grad in zip(names, tape.gradients(loss, [params[n] for n in names])):
                    grad_sums[name] += grad
            grads = {name: g / len(batch) for name, g in grad_sums.items()}
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


def evaluate(
    examples: Sequence[EncodedExample],
    params: dict[str, nd.Tensor],
    model_cfg: ModelConfig,
    threshold: float = 0.5,
    seed: int = 0,
    epoch: int = 0,
) -> MetricsReport:
    """Score a corpus with a frozen model.

    Sentiment is scored only over gold positive/negative rows; emotion is
    scored over every row at the given probability threshold.
    """
    if not examples:
        raise ValueError("evaluate needs a non-empty corpus")
    sent_gold: list[int] = []
    sent_pred: list[int] = []
    emo_gold: list[np.ndarray] = []
    emo_pred: list[np.ndarray] = []
    for ex in examples:
        trace = forward(ex, params, model_cfg)
        if TASK_SENTIMENT in trace.logits and ex.sentiment in SENTIMENTS:
            sent_gold.append(SENTIMENTS.index(ex.sentiment))
            sent_pred.append(trace.predictions[TASK_SENTIMENT])
        if TASK_EMOTION in trace.logits:
            emo_gold.append(ex.emotions.astype(np.int64))
            emo_pred.append(
                (trace.probabilities[TASK_EMOTION] >= threshold).astype(np.int64)
            )
    sentiment = (
        sentiment_metrics(sent_gold, sent_pred)
        if TASK_SENTIMENT in model_cfg.tasks
        else None
    )
    emotion = (
        emotion_metrics(emo_gold, emo_pred) if TASK_EMOTION in model_cfg.tasks else None
    )
    return MetricsReport(model_cfg.mode, seed, epoch, sentiment, emotion)


def write_report(report: MetricsReport, metrics_path, table_path=None) -> None:
    """Write the flat metrics file and, optionally, the human table."""
    Path(metrics_path).write_text(render_metrics(report), encoding="utf-8")
    if table_path is not None:
        Path(table_path).write_text(render_table(report), encoding="utf-8")
