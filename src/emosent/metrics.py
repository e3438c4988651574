"""Classification metrics, confusion matrices, and metric report files.

Conventions fixed here: confusion matrices have rows = actual and columns
= predicted; sentiment macro-F1 averages the negative and positive class
F1 over examples whose gold label is one of the two (the "other" label is
never scored); emotion micro metrics come from TP/FP/FN summed across the
eight labels; any zero denominator yields 0 rather than an error.

The metrics file is flat `key = value` text. Floats are written with
repr, so parse(render(report)) reproduces the report exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .resources import EMOTIONS

Confusion = tuple[tuple[int, int], tuple[int, int]]


@dataclass(frozen=True)
class ClassPRF:
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class SentimentMetrics:
    confusion: Confusion
    negative: ClassPRF
    positive: ClassPRF
    macro_f1: float


@dataclass(frozen=True)
class EmotionMetrics:
    confusions: dict[str, Confusion]
    per_label: dict[str, ClassPRF]
    micro: ClassPRF


@dataclass(frozen=True)
class MetricsReport:
    mode: str
    seed: int
    epoch: int
    sentiment: SentimentMetrics | None
    emotion: EmotionMetrics | None


def prf(tp: int, fp: int, fn: int) -> ClassPRF:
    """Precision/recall/F1 from counts; zero denominators give zero."""
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (
        2.0 * precision * recall / (precision + recall)
        if precision + recall
        else 0.0
    )
    return ClassPRF(precision, recall, f1)


def confusion_counts(gold: Sequence[int], predicted: Sequence[int]) -> Confusion:
    """2x2 counts for binary labels; rows actual (0 then 1), columns predicted."""
    if len(gold) != len(predicted):
        raise ValueError(
            f"gold and predicted lengths differ: {len(gold)} vs {len(predicted)}"
        )
    cells = [[0, 0], [0, 0]]
    for g, p in zip(gold, predicted):
        cells[int(g)][int(p)] += 1
    return ((cells[0][0], cells[0][1]), (cells[1][0], cells[1][1]))


def sentiment_metrics_from_counts(tn: int, fp: int, fn: int, tp: int) -> SentimentMetrics:
    """Sentiment scores from the 2x2 counts (positive is class 1).

    The negative class swaps roles: its true positives are the TN cell.
    """
    negative = prf(tp=tn, fp=fn, fn=fp)
    positive = prf(tp=tp, fp=fp, fn=fn)
    return SentimentMetrics(
        confusion=((tn, fp), (fn, tp)),
        negative=negative,
        positive=positive,
        macro_f1=(negative.f1 + positive.f1) / 2.0,
    )


def sentiment_metrics(gold: Sequence[int], predicted: Sequence[int]) -> SentimentMetrics:
    """Scores over 0/1 sentiment labels (0 negative, 1 positive)."""
    (tn, fp), (fn, tp) = confusion_counts(gold, predicted)
    return sentiment_metrics_from_counts(tn, fp, fn, tp)


def emotion_metrics(
    gold_bits: Sequence[Sequence[int]], predicted_bits: Sequence[Sequence[int]]
) -> EmotionMetrics:
    """Per-label and micro-averaged scores over 8-bit emotion vectors."""
    if len(gold_bits) != len(predicted_bits):
        raise ValueError(
            f"gold and predicted lengths differ: {len(gold_bits)} vs {len(predicted_bits)}"
        )
    confusions = {
        label: confusion_counts(
            [int(bits[i]) for bits in gold_bits], [int(bits[i]) for bits in predicted_bits]
        )
        for i, label in enumerate(EMOTIONS)
    }
    # The micro counts are the per-label confusions summed cell by cell.
    summed = [[sum(cells) for cells in zip(*rows)] for rows in zip(*confusions.values())]
    per_label = {label: _positive_prf(c) for label, c in confusions.items()}
    return EmotionMetrics(confusions, per_label, _positive_prf(summed))


def _positive_prf(confusion) -> ClassPRF:
    """The scores of class 1 from a 2x2 confusion."""
    (_, fp), (fn, tp) = confusion
    return prf(tp, fp, fn)


# Metrics-file key suffixes: a confusion's cells in row order, a class's scores.
_CELL_KEYS = ("tn", "fp", "fn", "tp")
_PRF_KEYS = ("precision", "recall", "f1")


def _cell_items(prefix: str, confusion: Confusion) -> list[tuple[str, object]]:
    return [(f"{prefix}.{k}", v) for k, v in zip(_CELL_KEYS, [*confusion[0], *confusion[1]])]


def _prf_items(prefix: str, scores: ClassPRF) -> list[tuple[str, object]]:
    return [(f"{prefix}.{k}", getattr(scores, k)) for k in _PRF_KEYS]


def _flat_items(report: MetricsReport) -> list[tuple[str, object]]:
    items: list[tuple[str, object]] = [
        ("meta.mode", report.mode),
        ("meta.seed", report.seed),
        ("meta.epoch", report.epoch),
    ]
    if report.sentiment is not None:
        s = report.sentiment
        items += _cell_items("sentiment.confusion", s.confusion)
        items += _prf_items("sentiment.negative", s.negative)
        items += _prf_items("sentiment.positive", s.positive)
        items.append(("sentiment.macro_f1", s.macro_f1))
    if report.emotion is not None:
        e = report.emotion
        for label in EMOTIONS:
            items += _cell_items(f"emotion.{label}.confusion", e.confusions[label])
            items += _prf_items(f"emotion.{label}", e.per_label[label])
        items += _prf_items("emotion.micro", e.micro)
    return items


def render_metrics(report: MetricsReport) -> str:
    lines = [f"{key} = {value!r}" for key, value in _flat_items(report)]
    return "\n".join(lines) + "\n"


def parse_metrics(text: str) -> MetricsReport:
    """Read back `render_metrics` text; a ValueError names a bad line or key."""
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"metrics line {lineno}: expected 'key = value'")
        key, _, raw = line.partition("=")
        values[key.strip()] = raw.strip()

    def f(key: str, kind=float):
        if key not in values:
            raise ValueError(f"missing key {key!r}")
        try:
            return kind(values[key])
        except ValueError:
            raise ValueError(f"{key}: expected {kind.__name__}, got {values[key]!r}") from None

    def c(prefix: str) -> Confusion:
        tn, fp, fn, tp = (f(f"{prefix}.{k}", int) for k in _CELL_KEYS)
        return ((tn, fp), (fn, tp))

    def cls(prefix: str) -> ClassPRF:
        return ClassPRF(*(f(f"{prefix}.{k}") for k in _PRF_KEYS))

    sentiment = None
    if "sentiment.macro_f1" in values:
        sentiment = SentimentMetrics(
            c("sentiment.confusion"),
            cls("sentiment.negative"),
            cls("sentiment.positive"),
            f("sentiment.macro_f1"),
        )
    emotion = None
    if "emotion.micro.f1" in values:
        emotion = EmotionMetrics(
            {label: c(f"emotion.{label}.confusion") for label in EMOTIONS},
            {label: cls(f"emotion.{label}") for label in EMOTIONS},
            cls("emotion.micro"),
        )
    mode = f("meta.mode", str)
    if mode.startswith("'") and mode.endswith("'"):
        mode = mode[1:-1]
    return MetricsReport(mode, f("meta.seed", int), f("meta.epoch", int), sentiment, emotion)


def render_table(report: MetricsReport) -> str:
    """Human-readable summary: one P/R/F row per target plus averages."""
    lines = [f"Mode {report.mode} (seed {report.seed}, epoch {report.epoch})", ""]
    if report.sentiment is not None:
        s = report.sentiment
        lines += _table_block("Sentiment", [("negative", s.negative), ("positive", s.positive)])
        lines.append(f"  {'macro-F1':12s}{'':10s}{'':10s}{s.macro_f1:10.4f}")
        lines.append("")
    if report.emotion is not None:
        e = report.emotion
        rows = [(label, e.per_label[label]) for label in EMOTIONS] + [("Micro-Avg", e.micro)]
        lines += _table_block("Emotion", rows)
        lines.append("")
    return "\n".join(lines)


def _table_block(title: str, rows: list[tuple[str, ClassPRF]]) -> list[str]:
    """A titled header line and one precision/recall/F1 row per name."""
    return [
        title,
        f"  {'':12s}{'precision':>10s}{'recall':>10s}{'f1':>10s}",
        *(f"  {name:12s}{m.precision:10.4f}{m.recall:10.4f}{m.f1:10.4f}" for name, m in rows),
    ]
