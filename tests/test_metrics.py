"""Metric math against hand-derived counts, plus report file round-trips."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emosent.metrics import (
    ClassPRF,
    MetricsReport,
    confusion_counts,
    emotion_metrics,
    parse_metrics,
    prf,
    render_metrics,
    render_table,
    sentiment_metrics,
    sentiment_metrics_from_counts,
)
from emosent.resources import EMOTIONS

from oracles import confusion_loops, prf_counts


class TestPRF:
    def test_zero_denominators_give_zero(self):
        assert prf(0, 0, 0) == ClassPRF(0.0, 0.0, 0.0)
        assert prf(0, 5, 0) == ClassPRF(0.0, 0.0, 0.0)
        assert prf(0, 0, 5) == ClassPRF(0.0, 0.0, 0.0)

    def test_perfect(self):
        assert prf(10, 0, 0) == ClassPRF(1.0, 1.0, 1.0)

    @given(st.integers(0, 50), st.integers(0, 50), st.integers(0, 50))
    @settings(max_examples=100, deadline=None)
    def test_matches_count_oracle(self, tp, fp, fn):
        got = prf(tp, fp, fn)
        assert (got.precision, got.recall, got.f1) == prf_counts(tp, fp, fn)


class TestConfusionCounts:
    def test_perfect_predictions_have_zero_off_diagonal(self):
        ((tn, fp), (fn, tp)) = confusion_counts([0, 1, 1, 0], [0, 1, 1, 0])
        assert fp == 0 and fn == 0 and tn == 2 and tp == 2

    def test_single_positive_predicted_negative(self):
        assert confusion_counts([1], [0]) == ((0, 0), (1, 0))

    def test_random_hundred_matches_counting_oracle(self):
        rng = np.random.default_rng(17)
        gold = rng.integers(0, 2, 100).tolist()
        pred = rng.integers(0, 2, 100).tolist()
        assert confusion_counts(gold, pred) == confusion_loops(gold, pred)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="lengths differ"):
            confusion_counts([0, 1], [0])


class TestSentimentMetrics:
    def test_published_confusion_counts(self):
        m = sentiment_metrics_from_counts(tn=1184, fp=88, fn=236, tp=325)
        assert m.negative.precision == pytest.approx(0.8338, abs=5e-4)
        assert m.negative.recall == pytest.approx(0.9308, abs=5e-4)
        assert m.negative.f1 == pytest.approx(0.8797, abs=5e-4)
        assert m.positive.precision == pytest.approx(0.7869, abs=5e-4)
        assert m.positive.recall == pytest.approx(0.5794, abs=5e-4)
        assert m.positive.f1 == pytest.approx(0.6674, abs=5e-4)
        assert m.macro_f1 == pytest.approx(0.7736, abs=5e-4)
        assert m.confusion == ((1184, 88), (236, 325))

    def test_perfect_predictions(self):
        m = sentiment_metrics([0, 1, 0, 1], [0, 1, 0, 1])
        assert m.macro_f1 == 1.0

    def test_macro_recomputable_from_class_f1(self):
        m = sentiment_metrics_from_counts(3, 2, 4, 9)
        assert abs(m.macro_f1 - (m.negative.f1 + m.positive.f1) / 2) < 1e-9


def random_bits(rng, n):
    return [rng.integers(0, 2, len(EMOTIONS)).tolist() for _ in range(n)]


class TestEmotionMetrics:
    def test_label_with_no_predicted_positives(self):
        gold = [[1, 0, 0, 0, 0, 0, 0, 0]]
        pred = [[0, 0, 0, 0, 0, 0, 0, 0]]
        m = emotion_metrics(gold, pred)
        assert m.per_label["anger"].precision == 0.0
        assert m.per_label["anger"].f1 == 0.0

    def test_micro_recomputable_from_summed_confusions(self):
        rng = np.random.default_rng(23)
        gold, pred = random_bits(rng, 40), random_bits(rng, 40)
        m = emotion_metrics(gold, pred)
        tp = sum(m.confusions[label][1][1] for label in EMOTIONS)
        fp = sum(m.confusions[label][0][1] for label in EMOTIONS)
        fn = sum(m.confusions[label][1][0] for label in EMOTIONS)
        assert m.micro.precision == pytest.approx(prf_counts(tp, fp, fn)[0], abs=1e-9)
        assert m.micro.recall == pytest.approx(prf_counts(tp, fp, fn)[1], abs=1e-9)
        assert m.micro.f1 == pytest.approx(prf_counts(tp, fp, fn)[2], abs=1e-9)

    def test_perfect_predictions(self):
        rng = np.random.default_rng(29)
        gold = random_bits(rng, 10)
        m = emotion_metrics(gold, gold)
        positives = sum(sum(b) for b in gold)
        assert positives > 0 and m.micro.f1 == 1.0


def example_report(mode="M2"):
    sentiment = sentiment_metrics_from_counts(5, 2, 1, 8) if mode != "E2" else None
    emotion = None
    if mode != "S2":
        rng = np.random.default_rng(31)
        emotion = emotion_metrics(random_bits(rng, 20), random_bits(rng, 20))
    return MetricsReport(mode, seed=3, epoch=40, sentiment=sentiment, emotion=emotion)


class TestReportFiles:
    @pytest.mark.parametrize("mode", ["M2", "S2", "E2"])
    def test_round_trip(self, mode):
        report = example_report(mode)
        assert parse_metrics(render_metrics(report)) == report

    def test_table_layout_with_both_tasks(self):
        table = render_table(example_report("M2"))
        for label in EMOTIONS:
            assert label in table
        assert "Micro-Avg" in table
        assert "macro-F1" in table

    def test_sentiment_only_table_omits_emotion_block(self):
        table = render_table(example_report("S2"))
        assert "Emotion" not in table
        assert "anger" not in table

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_metrics("not a metrics line\n")

    @pytest.mark.parametrize(
        "key",
        ["meta.epoch", "meta.mode", "sentiment.confusion.tp", "emotion.fear.confusion.fn",
         "emotion.micro.recall"],
    )
    def test_missing_key_is_named(self, key):
        lines = render_metrics(example_report("M2")).splitlines()
        text = "\n".join(line for line in lines if not line.startswith(f"{key} ="))
        with pytest.raises(ValueError, match=f"^missing key '{key}'$"):
            parse_metrics(text)

    def test_sentiment_without_confusion_cells_names_the_first(self):
        with pytest.raises(ValueError, match="^missing key 'sentiment.confusion.tn'$"):
            parse_metrics("sentiment.macro_f1 = 0.5\n")

    def test_wrong_kind_of_value_is_named(self):
        text = render_metrics(example_report("S2")).replace("meta.seed = 3", "meta.seed = 3.5")
        with pytest.raises(ValueError, match=r"^meta.seed: expected int, got '3.5'$"):
            parse_metrics(text)
