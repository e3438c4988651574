"""Acceptance gate: every headline guarantee checked at its stated tolerance.

Each test prints one `[acceptance]` pass/fail line, visible even under
pytest capture, so a full run doubles as a short report.
"""
import time

import numpy as np
import pytest

from emosent import nd
from emosent.checkpoint import load_checkpoint, save_checkpoint
from emosent.cli import _gradcheck_mode, entrypoint
from emosent.metrics import sentiment_metrics_from_counts
from emosent.model import (
    MODES,
    ModelConfig,
    TASK_EMOTION,
    TASK_SENTIMENT,
    bilstm_forward,
    forward,
    init_parameters,
    secondary_attention,
    task_heads,
    primary_attention,
)
from emosent.preprocess import normalize
from emosent.resources import EncodedExample
from emosent.train import TrainConfig, evaluate, train

import oracles
from conftest import FIXTURES, gate_weights, small_config


@pytest.fixture
def announce(capsys):
    def _announce(name, passed, detail=""):
        line = f"[acceptance] {name}: {'PASS' if passed else 'FAIL'}"
        if detail:
            line += f" ({detail})"
        with capsys.disabled():
            print(line)
        assert passed, line

    return _announce


def probe_config(mode, **overrides):
    settings = dict(
        mode=mode, embed_dim=5, lstm_hidden=4, context_dim=3, dt_k=4, dropout_rate=0.0
    )
    settings.update(overrides)
    return ModelConfig(**settings)


def test_01_full_model_gradients(announce):
    start = time.monotonic()
    worst = {mode: _gradcheck_mode(mode).max_rel_err for mode in MODES}
    elapsed = time.monotonic() - start
    passed = max(worst.values()) < 1e-3 and elapsed < 120.0
    announce(
        "full-model gradients, six modes",
        passed,
        f"max rel err {max(worst.values()):.2e}, {elapsed:.1f}s",
    )


def test_02_attention_normalization(announce):
    rng = np.random.default_rng(20260823)
    params = {
        mode: init_parameters(probe_config(mode), vocab_size=20, seed=3)
        for mode in MODES
    }
    checked = 0
    max_dev = 0.0
    for i in range(1000):
        mode = MODES[i % len(MODES)]
        config = probe_config(mode)
        n = int(rng.integers(1, 6))
        example = EncodedExample(
            f"r{i}",
            rng.integers(0, 20, size=n).tolist(),
            [rng.integers(0, 20, size=rng.integers(0, 5)).tolist() for _ in range(n)],
            "positive",
            np.zeros(8),
        )
        trace = forward(example, params[mode], config)
        for task in config.tasks:
            for alpha in trace.primary_alpha.get(task, []):
                if alpha.size:
                    checked += 1
                    max_dev = max(max_dev, abs(alpha.sum() - 1.0))
            checked += 1
            max_dev = max(max_dev, abs(trace.sentence_alpha[task].sum() - 1.0))
    config = probe_config("M2")
    single = forward(
        EncodedExample("s", [3], [[7]], "positive", np.zeros(8)), params["M2"], config
    )
    symmetric = forward(
        EncodedExample("y", [3], [[7, 7]], "positive", np.zeros(8)), params["M2"], config
    )
    vec = rng.normal(size=config.pooled_dim)
    pair_alpha, _ = secondary_attention(nd.Tensor([vec, vec]), params["M2"], TASK_SENTIMENT)
    exact = (
        single.primary_alpha[TASK_SENTIMENT][0].tolist() == [1.0]
        and single.sentence_alpha[TASK_SENTIMENT].tolist() == [1.0]
        and symmetric.primary_alpha[TASK_SENTIMENT][0].tolist() == [0.5, 0.5]
        and pair_alpha.tolist() == [0.5, 0.5]
    )
    passed = max_dev <= 1e-9 and exact
    announce(
        "attention weights normalized",
        passed,
        f"{checked} vectors, max deviation {max_dev:.1e}, exact edge cases {exact}",
    )


def test_03_component_oracle_equivalence(announce):
    worst = 0.0
    for trial in range(5):
        rng = np.random.default_rng(100 + trial)
        config = probe_config("M1")
        params = init_parameters(config, vocab_size=6, seed=trial)
        xs = [rng.normal(size=5) for _ in range(3)]
        states = bilstm_forward(nd.Tensor(np.stack(xs)), params, config)
        weights = {prefix: gate_weights(params, f"lstm_{prefix}") for prefix in ("fw", "bw")}
        fw = oracles.lstm_direction_loops([x.tolist() for x in xs], weights["fw"], 4)
        bw = oracles.lstm_direction_loops(
            [x.tolist() for x in reversed(xs)], weights["bw"], 4
        )
        bw.reverse()
        for t in range(3):
            worst = max(worst, np.abs(states.data[t] - np.array(fw[t] + bw[t])).max())

        h = rng.normal(size=8)
        W_w, b_w = rng.normal(size=(8, 5)), rng.normal(size=5)
        cands = rng.normal(size=(3, 5))
        alpha, (mix, _) = primary_attention(
            nd.Tensor([h]),
            nd.Tensor(cands),
            np.ones((1, 3), bool),
            {"sentiment/W_w": nd.Tensor(W_w), "sentiment/b_w": nd.Tensor(b_w)},
            TASK_SENTIMENT,
        )
        exp_alpha, exp_mix = oracles.primary_attention_loops(
            h.tolist(), W_w.tolist(), b_w.tolist(), cands.tolist()
        )
        worst = max(worst, np.abs(alpha[0] - exp_alpha).max())
        worst = max(worst, np.abs(mix.data[0] - exp_mix).max())

        vectors = [rng.normal(size=6) for _ in range(3)]
        W_s, b_s, u = rng.normal(size=(6, 3)), rng.normal(size=3), rng.normal(size=3)
        sec_params = {
            "emotion/W_s": nd.Tensor(W_s),
            "emotion/b_s": nd.Tensor(b_s),
            "emotion/u": nd.Tensor(u),
        }
        alpha, pooled = secondary_attention(
            nd.Tensor(np.stack(vectors)), sec_params, TASK_EMOTION
        )
        exp_alpha, exp_pooled = oracles.secondary_attention_loops(
            [v.tolist() for v in vectors], W_s.tolist(), b_s.tolist(), u.tolist()
        )
        worst = max(worst, np.abs(alpha - exp_alpha).max())
        worst = max(worst, np.abs(pooled.data - exp_pooled).max())

        x = rng.normal(size=6)
        V, c = rng.normal(size=(6, 8)), rng.normal(size=8)
        logits = task_heads(
            {TASK_EMOTION: nd.Tensor(x[None])},
            {"emotion/V": nd.Tensor(V), "emotion/c": nd.Tensor(c)},
        )
        expected = oracles.affine_loops(x.tolist(), V.tolist(), c.tolist())
        worst = max(worst, np.abs(logits[TASK_EMOTION].data[0] - expected).max())
    announce(
        "forward pieces match loop oracles",
        worst < 1e-12,
        f"max abs diff {worst:.1e}",
    )


def test_04_joint_overfit_small_corpus(announce, bundle):
    start = time.monotonic()
    config = small_config("M2")
    params = init_parameters(config, embedding_rows=bundle.embedding_rows, seed=0)
    params, log = train(
        bundle.train_examples,
        params,
        TrainConfig(batch_size=8, lr=0.01, epochs=80, seed=0),
        config,
    )
    report = evaluate(bundle.train_examples, params, config)
    elapsed = time.monotonic() - start
    passed = (
        report.sentiment.macro_f1 >= 0.95
        and report.emotion.micro.f1 >= 0.95
        and len(log) <= 200
        and elapsed < 300.0
    )
    announce(
        "joint model overfits the 32-example corpus",
        passed,
        f"macro-F1 {report.sentiment.macro_f1:.3f}, micro-F1 "
        f"{report.emotion.micro.f1:.3f}, {len(log)} epochs, {elapsed:.1f}s",
    )


def test_05_joint_training_preserves_sentiment(announce, bundle):
    means = {}
    for mode in ("S2", "M2"):
        config = small_config(mode)
        scores = []
        for seed in range(5):
            params = init_parameters(
                config, embedding_rows=bundle.embedding_rows, seed=seed
            )
            params, _ = train(
                bundle.train_examples,
                params,
                TrainConfig(batch_size=8, lr=0.01, epochs=60, seed=seed),
                config,
            )
            scores.append(
                evaluate(bundle.test_examples, params, config).sentiment.macro_f1
            )
        means[mode] = sum(scores) / len(scores)
    passed = means["M2"] >= means["S2"] - 0.02
    announce(
        "joint training keeps sentiment quality",
        passed,
        f"mean macro-F1 over 5 seeds: M2 {means['M2']:.3f} vs S2 {means['S2']:.3f}",
    )


def test_06_normalization_goldens(announce, lexicon):
    cases = {
        "#BeautifulDay": ["#", "beautiful", "day"],
        "we've": ["we", "have"],
        "@John": ["<user>"],
        "see http://t.co/ab now": ["see", "<url>", "now"],
        "call me at 42": ["call", "me", "at", "<number>"],
    }
    failures = [
        text for text, want in cases.items() if normalize(text, lexicon) != want
    ]
    announce(
        "tweet normalization goldens",
        not failures,
        f"{len(cases) - len(failures)}/{len(cases)} exact"
        + (f", failed: {failures}" if failures else ""),
    )


def test_07_thesaurus_top4(announce, bundle):
    got = bundle.thesaurus.expand("good", 4)
    announce(
        "thesaurus expansion order",
        got == ["great", "nice", "awesome", "superb"],
        f"expand('good', 4) = {got}",
    )


def test_08_sentiment_f1_from_counts(announce):
    metrics = sentiment_metrics_from_counts(tn=1184, fp=88, fn=236, tp=325)
    dev_neg = abs(metrics.negative.f1 - 0.8797)
    dev_pos = abs(metrics.positive.f1 - 0.6674)
    announce(
        "sentiment F1 from confusion counts",
        dev_neg <= 5e-4 and dev_pos <= 5e-4,
        f"F_neg {metrics.negative.f1:.4f}, F_pos {metrics.positive.f1:.4f}",
    )


def test_09_training_determinism(announce, tmp_path):
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        config = tmp_path / f"{name}.cfg"
        config.write_text(
            "\n".join(
                [
                    f"corpus.train = {FIXTURES / 'corpus_train.tsv'}",
                    f"corpus.test = {FIXTURES / 'corpus_test.tsv'}",
                    f"embeddings = {FIXTURES / 'embeddings.txt'}",
                    f"thesaurus = {FIXTURES / 'thesaurus.tsv'}",
                    f"lexicon = {FIXTURES / 'lexicon.txt'}",
                    f"out_dir = {out}",
                    "mode = M2",
                    "embed_dim = 16",
                    "lstm_hidden = 8",
                    "context_dim = 4",
                    "dropout = 0.2",
                    "batch_size = 8",
                    "lr = 0.01",
                    "epochs = 3",
                    "seed = 7",
                ]
            )
            + "\n",
            encoding="utf-8",
        )
        assert entrypoint(["train", "--config", str(config)]) == 0
        outs.append(out)
    same_ckpt = (
        (outs[0] / "checkpoint.bin").read_bytes()
        == (outs[1] / "checkpoint.bin").read_bytes()
    )
    same_metrics = (
        (outs[0] / "metrics.txt").read_bytes() == (outs[1] / "metrics.txt").read_bytes()
    )
    announce(
        "identical runs are bit-identical",
        same_ckpt and same_metrics,
        f"checkpoint {same_ckpt}, metrics {same_metrics}",
    )


def test_10_checkpoint_round_trip(announce, bundle, tmp_path):
    config = small_config("M2")
    params = init_parameters(config, embedding_rows=bundle.embedding_rows, seed=5)
    path = tmp_path / "model.bin"
    save_checkpoint(path, config, params, bundle.vocab, thesaurus=bundle.thesaurus)
    ckpt = load_checkpoint(path)
    example = bundle.test_examples[0]
    before = forward(example, params, config)
    after = forward(example, ckpt.params, ckpt.config)
    identical = all(
        before.logits[task].data.tobytes() == after.logits[task].data.tobytes()
        for task in config.tasks
    )
    announce("checkpoint round-trip logits", identical, "bitwise equal")
