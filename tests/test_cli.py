"""End-to-end command behavior through the in-process entry point."""
import dataclasses
import json
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from emosent import cli, nd
from emosent.checkpoint import HEADER_START, MAGIC, load_checkpoint, save_checkpoint
from emosent.cli import build_parser, entrypoint
from emosent.metrics import parse_metrics
from emosent.model import MODES, forward, init_parameters
from emosent.preprocess import normalize
from emosent.resources import (
    CHUNK_ROWS, EMOTIONS, SCAN_BYTES, SENTIMENTS, Example, encode_example, load_corpus,
)

from conftest import (
    FIXTURES, UNPARSABLE_HEADERS, assert_gradients_clear_of_zero, corrupt_affine_pool_backward,
    write_config,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*args, **env):
    """Run `python -m emosent.cli` with `args` in its own process, `env`
    added to the environment."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "emosent.cli", *args],
        env={**os.environ, "PYTHONPATH": path, **env}, capture_output=True, text=True,
        timeout=300,
    )


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One full fixture-corpus training run shared by the read-only tests."""
    root = tmp_path_factory.mktemp("clirun")
    config = write_config(root / "run.cfg", root / "out")
    assert entrypoint(["train", "--config", str(config)]) == 0
    return SimpleNamespace(config=config, out=root / "out")


class TestTrainCommand:
    def test_writes_all_artifacts(self, trained):
        for name in ("checkpoint.bin", "metrics.txt", "table.txt", "train_log.txt"):
            assert (trained.out / name).is_file()

    def test_metrics_file_parses(self, trained):
        report = parse_metrics((trained.out / "metrics.txt").read_text(encoding="utf-8"))
        assert report.mode == "M2"
        assert report.sentiment is not None and report.emotion is not None

    def test_train_log_has_one_line_per_epoch(self, trained):
        lines = (trained.out / "train_log.txt").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 60
        epoch, loss = lines[-1].split("\t")
        assert epoch == "60" and float(loss) > 0.0

    def test_unknown_config_key_fails_before_training(self, tmp_path, capsys):
        config = write_config(tmp_path / "run.cfg", tmp_path / "out", banana=1)
        assert entrypoint(["train", "--config", str(config)]) == 2
        assert "unknown config key" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("threshold", [0.0, 1.0])
    def test_threshold_outside_unit_interval_fails_before_training(
        self, tmp_path, capsys, threshold
    ):
        config = write_config(tmp_path / "run.cfg", tmp_path / "out", threshold=threshold)
        assert entrypoint(["train", "--config", str(config)]) == 2
        assert "threshold must be in (0, 1)" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_nan_learning_rate_fails_before_training(self, tmp_path, capsys):
        # One batch per run: the parameters Adam leaves NaN are never scored.
        config = write_config(
            tmp_path / "run.cfg", tmp_path / "out", lr="nan", epochs=1, batch_size=64
        )
        assert entrypoint(["train", "--config", str(config)]) == 2
        assert "lr must be finite and non-negative, got nan" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_nan_embedding_fails_before_training(self, tmp_path, capsys):
        rows = (FIXTURES / "embeddings.txt").read_text(encoding="utf-8").splitlines()
        word, *values = rows[1].split(" ")
        rows[1] = " ".join([word, "nan", *values[1:]])
        embeddings = tmp_path / "nan.txt"
        embeddings.write_text("\n".join(rows) + "\n", encoding="utf-8")
        config = write_config(tmp_path / "run.cfg", tmp_path / "out", embeddings=embeddings)
        assert entrypoint(["train", "--config", str(config)]) == 2
        assert f"line 2: non-finite value for {word!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["x", "nan"])
    def test_bad_value_in_a_used_row_names_its_line(self, tmp_path, capsys, value):
        rows = (FIXTURES / "embeddings.txt").read_text(encoding="utf-8").splitlines()
        word, *values = rows[2].split(" ")
        rows[2] = " ".join([word, *values[:-1], value])
        embeddings = tmp_path / "bad.txt"
        embeddings.write_text("\n".join(rows) + "\n", encoding="utf-8")
        config = write_config(tmp_path / "run.cfg", tmp_path / "out", embeddings=embeddings)
        assert entrypoint(["train", "--config", str(config)]) == 2
        kind = "non-numeric" if value == "x" else "non-finite"
        err = capsys.readouterr().err
        assert err == f"error: embeddings: {embeddings}: line 3: {kind} value for {word!r}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["build-vocab", "train"])
    def test_repeated_thesaurus_headword_names_its_line(self, tmp_path, capsys, command):
        text = (FIXTURES / "thesaurus.tsv").read_text(encoding="utf-8")
        thesaurus = tmp_path / "thesaurus.tsv"
        thesaurus.write_text(text + "good\tnice\n", encoding="utf-8")
        config = write_config(tmp_path / "run.cfg", tmp_path / "out", thesaurus=thesaurus)
        assert entrypoint([command, "--config", str(config)]) == 2
        line = len(text.splitlines()) + 1
        err = capsys.readouterr().err
        assert err == f"error: thesaurus: {thesaurus}: line {line}: repeated headword 'good'\n"
        assert not (tmp_path / "out").exists()

    def test_non_finite_loss_fails_before_writing(self, tmp_path, capsys, monkeypatch):
        import emosent.cli as cli

        init = cli.init_parameters

        def poisoned(*args, **kwargs):
            params = init(*args, **kwargs)
            params["sentiment/c"] = nd.Tensor([np.nan, 0.0], requires_grad=True)
            return params

        monkeypatch.setattr(cli, "init_parameters", poisoned)
        config = write_config(tmp_path / "run.cfg", tmp_path / "out", epochs=1)
        assert entrypoint(["train", "--config", str(config)]) == 2
        assert "epoch 1, batch 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("message, named", [
        ("Unable to allocate 119. GiB for an array", "Unable to allocate 119. GiB for an array"),
        ("", "MemoryError"),
    ], ids=["numpy", "bare"])
    def test_model_too_large_to_allocate_exits_2(self, tmp_path, capsys, monkeypatch,
                                                 message, named):
        # Raised by a stand-in: a real allocation may be granted by a host
        # that overcommits.
        def too_large(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "init_parameters", too_large)
        config = write_config(tmp_path / "run.cfg", tmp_path / "out", epochs=1)
        assert entrypoint(["train", "--config", str(config)]) == 2
        assert capsys.readouterr().err == f"error: model: {named}\n"
        assert not (tmp_path / "out").exists()

    def test_without_a_test_corpus_scores_the_training_rows(self, tmp_path):
        config = write_config(tmp_path / "run.cfg", tmp_path / "out", epochs=2,
                              **{"corpus.test": None})
        assert entrypoint(["train", "--config", str(config)]) == 0
        config = write_config(tmp_path / "run.cfg", tmp_path / "out", epochs=2,
                              **{"corpus.test": FIXTURES / "corpus_train.tsv"})
        assert entrypoint(["evaluate", "--config", str(config)]) == 0
        out = tmp_path / "out"
        assert (out / "eval_metrics.txt").read_bytes() == (out / "metrics.txt").read_bytes()

    def test_missing_embeddings_key(self, tmp_path, capsys):
        config = write_config(tmp_path / "run.cfg", tmp_path / "out", embeddings=None)
        assert entrypoint(["train", "--config", str(config)]) == 2
        assert "embeddings" in capsys.readouterr().err

    def test_nonexistent_embeddings_path(self, tmp_path, capsys):
        config = write_config(
            tmp_path / "run.cfg", tmp_path / "out", embeddings=tmp_path / "absent.txt"
        )
        assert entrypoint(["train", "--config", str(config)]) == 2
        assert "embeddings" in capsys.readouterr().err

    def test_identical_runs_are_byte_identical(self, tmp_path):
        artifacts = ("checkpoint.bin", "metrics.txt", "train_log.txt", "table.txt")
        outs = []
        for name in ("a", "b"):
            config = write_config(
                tmp_path / f"{name}.cfg", tmp_path / name, epochs=3
            )
            assert entrypoint(["train", "--config", str(config)]) == 0
            outs.append(tmp_path / name)
        for artifact in artifacts:
            assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()

    def test_unset_thesaurus_trains_as_an_empty_one(self, tmp_path):
        empty = tmp_path / "empty.tsv"
        empty.write_text("", encoding="utf-8")
        for name, thesaurus in (("unset", None), ("empty", empty)):
            config = write_config(tmp_path / f"{name}.cfg", tmp_path / name, epochs=3,
                                  thesaurus=thesaurus)
            assert entrypoint(["train", "--config", str(config)]) == 0
        for artifact in ("checkpoint.bin", "metrics.txt", "train_log.txt"):
            unset, empty_run = ((tmp_path / n / artifact).read_bytes() for n in ("unset", "empty"))
            assert unset == empty_run, artifact

    def test_artifacts_do_not_depend_on_blas_threads(self, tmp_path):
        # BLAS reads its thread count once, at load, so each run needs its
        # own process.
        artifacts = ("checkpoint.bin", "metrics.txt", "train_log.txt")
        for threads in ("1", "2"):
            out = tmp_path / threads
            config = write_config(tmp_path / f"{threads}.cfg", out, epochs=3, dropout=0.2)
            proc = run_cli("train", "--config", str(config), OPENBLAS_NUM_THREADS=threads)
            assert proc.returncode == 0, proc.stderr[-2000:]
        for artifact in artifacts:
            one, two = ((tmp_path / t / artifact).read_bytes() for t in ("1", "2"))
            assert one == two, artifact

    def test_artifacts_do_not_depend_on_blas_threads_past_every_floor(self, tmp_path):
        # H = 128, 720,586 trainable values and a sentence-attention affine
        # of about 3e7 rows·in·out: every two-thread schedule runs under one
        # BLAS thread, and none under two.
        artifacts = ("checkpoint.bin", "metrics.txt", "train_log.txt")
        for threads in ("1", "2"):
            out = tmp_path / threads
            config = write_config(tmp_path / f"{threads}.cfg", out, epochs=3, dropout=0.2,
                                  lstm_hidden=128, context_dim=1024, batch_size=32)
            proc = run_cli("train", "--config", str(config), OPENBLAS_NUM_THREADS=threads)
            assert proc.returncode == 0, proc.stderr[-2000:]
        for artifact in artifacts:
            one, two = ((tmp_path / t / artifact).read_bytes() for t in ("1", "2"))
            assert one == two, artifact

    def test_artifacts_do_not_depend_on_blas_threads_at_paper_dims(self, tmp_path):
        # Paper dims on the 32 fixture tweets: word attention's [N, 600] x
        # [600, 300] GEMM is one that OpenBLAS splits across two threads,
        # with other bits than on one. The CLI runs BLAS on one thread.
        rng = np.random.default_rng(0)
        words = [line.split(" ", 1)[0] for line in
                 (FIXTURES / "embeddings.txt").read_text(encoding="utf-8").splitlines()]
        embeddings = tmp_path / "embeddings300.txt"
        embeddings.write_text("".join(
            word + " " + " ".join(f"{v:.6f}" for v in rng.normal(size=300)) + "\n"
            for word in words
        ), encoding="utf-8")
        artifacts = ("checkpoint.bin", "metrics.txt", "train_log.txt")
        for threads in ("1", "2"):
            out = tmp_path / threads
            config = write_config(tmp_path / f"{threads}.cfg", out, epochs=1, dropout=0.2,
                                  embeddings=embeddings, embed_dim=300, lstm_hidden=300,
                                  context_dim=150)
            proc = run_cli("train", "--config", str(config), OPENBLAS_NUM_THREADS=threads)
            assert proc.returncode == 0, proc.stderr[-2000:]
        for artifact in artifacts:
            one, two = ((tmp_path / t / artifact).read_bytes() for t in ("1", "2"))
            assert one == two, artifact

    def test_embeddings_file_is_freed_before_training(self, tmp_path, monkeypatch):
        # The matrix holds an index of every file line; only its vocabulary
        # rows are needed once they are built.
        load, train = cli.load_embeddings, cli.train_model
        refs = []

        def loading(*args, **kwargs):
            matrix = load(*args, **kwargs)
            refs.append(weakref.ref(matrix))
            return matrix

        def training(*args, **kwargs):
            assert len(refs) == 1 and refs[0]() is None, "the embeddings matrix is still alive"
            return train(*args, **kwargs)

        monkeypatch.setattr(cli, "load_embeddings", loading)
        monkeypatch.setattr(cli, "train_model", training)
        config = write_config(tmp_path / "run.cfg", tmp_path / "out", epochs=1)
        assert entrypoint(["train", "--config", str(config)]) == 0

    def test_embeddings_changed_after_the_load_exit_2(self, tmp_path, monkeypatch, capsys):
        embeddings = tmp_path / "e.txt"
        embeddings.write_bytes((FIXTURES / "embeddings.txt").read_bytes())
        load = cli.load_embeddings

        def loading(*args, **kwargs):
            matrix = load(*args, **kwargs)
            copy = tmp_path / "copy.txt"
            copy.write_bytes(embeddings.read_bytes())
            os.replace(copy, embeddings)
            return matrix

        monkeypatch.setattr(cli, "load_embeddings", loading)
        config = write_config(tmp_path / "run.cfg", tmp_path / "out", epochs=1,
                              embeddings=embeddings)
        assert entrypoint(["train", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: embeddings: {embeddings}: changed since it was indexed\n"
        assert not (tmp_path / "out" / "checkpoint.bin").exists()

    def test_seed_flag_overrides_config(self, tmp_path):
        for seed_args in ([], ["--seed", "1"]):
            out = tmp_path / ("base" if not seed_args else "override")
            config = write_config(tmp_path / f"{out.name}.cfg", out, epochs=2)
            assert entrypoint(["train", "--config", str(config), *seed_args]) == 0
        base = (tmp_path / "base" / "checkpoint.bin").read_bytes()
        override = (tmp_path / "override" / "checkpoint.bin").read_bytes()
        assert base != override

    def test_negative_seed_flag_names_seed(self, tmp_path, capsys):
        config = write_config(tmp_path / "run.cfg", tmp_path / "out")
        assert entrypoint(["train", "--config", str(config), "--seed", "-1"]) == 2
        assert "seed must be non-negative, got -1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestPredictCommand:
    def test_learned_token_maps_to_joy(self, trained, capsys):
        checkpoint = str(trained.out / "checkpoint.bin")
        assert entrypoint(["predict", checkpoint, "joyword"]) == 0
        out = capsys.readouterr().out
        assert "sentiment: positive" in out
        assert "joy" in [
            line.split(":", 1)[1].split()
            for line in out.splitlines()
            if line.startswith("emotions:")
        ][0]

    def test_same_input_same_output(self, trained, capsys):
        checkpoint = str(trained.out / "checkpoint.bin")
        outputs = []
        for _ in range(2):
            assert entrypoint(["predict", checkpoint, "negword was so bad"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_empty_text_is_usage_error(self, trained, capsys):
        checkpoint = str(trained.out / "checkpoint.bin")
        assert entrypoint(["predict", checkpoint, "   "]) == 2
        assert "empty input" in capsys.readouterr().err

    def test_checkpoint_missing_a_tensor_is_usage_error(self, trained, tmp_path, capsys):
        ckpt = load_checkpoint(trained.out / "checkpoint.bin")
        del ckpt.params["lstm_bw/U"]
        broken = tmp_path / "broken.bin"
        save_checkpoint(broken, ckpt.config, ckpt.params, ckpt.vocab)
        assert entrypoint(["predict", str(broken), "joyword"]) == 2
        assert "missing ['lstm_bw/U']" in capsys.readouterr().err

    def test_missing_checkpoint(self, tmp_path, capsys):
        assert entrypoint(["predict", str(tmp_path / "no.bin"), "hello"]) == 2
        assert "checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "length, edit, message",
        [
            (2**64 - 1, None, "header length 18446744073709551615 exceeds"),
            (
                None,
                lambda h: h["vocab"].__setitem__(slice(0, 5), list(range(5))),
                "vocab: entry 0 is not a word",
            ),
            (
                None,
                lambda h: h["meta"].update(threshold=None),
                "meta.threshold: expected a number in (0, 1), got None",
            ),
            (
                None,
                lambda h: h["meta"].update(threshold=float("nan")),
                "meta.threshold: expected a number in (0, 1), got nan",
            ),
            (
                None,
                lambda h: h["meta"].update(seed=-1),
                "meta.seed: expected a non-negative int, got -1",
            ),
            (
                None,
                lambda h: h["meta"].update(epochs="3"),
                "meta.epochs: expected a non-negative int, got '3'",
            ),
        ],
        ids=["header-length", "vocab", "meta-threshold-null", "meta-threshold-nan",
             "meta-seed-negative", "meta-epochs-text"],
    )
    def test_malformed_header_exits_2_without_traceback(
        self, trained, tmp_path, length, edit, message
    ):
        raw = (trained.out / "checkpoint.bin").read_bytes()
        end = HEADER_START + int.from_bytes(raw[len(MAGIC) : HEADER_START], "big")
        header = json.loads(raw[HEADER_START:end])
        if edit is not None:
            edit(header)
        blob = json.dumps(header).encode("utf-8")
        broken = tmp_path / "broken.bin"
        broken.write_bytes(MAGIC + (length or len(blob)).to_bytes(8, "big") + blob + raw[end:])
        for name in ("predict", "evaluate"):
            proc = run_cli(*TestCorruptCheckpoint.command(name, broken, tmp_path))
            assert proc.returncode == 2, name
            assert "Traceback" not in proc.stderr
            assert proc.stderr.startswith(f"error: checkpoint: {broken}: ")
            assert message in proc.stderr

    def test_prints_the_emotions_at_or_above_meta_threshold(self, trained, tmp_path, capsys):
        ckpt = load_checkpoint(trained.out / "checkpoint.bin")
        texts = ["joyword angerword was", "trustword fearword so", "negword sadnessword fearword"]
        printed = {}
        for threshold in (0.3, 0.7):
            path = tmp_path / f"threshold-{threshold}.bin"
            meta = {**ckpt.meta, "threshold": threshold}
            save_checkpoint(path, ckpt.config, ckpt.params, ckpt.vocab, ckpt.thesaurus,
                            ckpt.lexicon, meta)
            for text in texts:
                assert entrypoint(["predict", str(path), text]) == 0
                lines = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
                probs = dict(pair.split("=") for pair in lines["emotion probabilities"].split())
                assert all(abs(float(p) - threshold) > 1e-6 for p in probs.values())
                expected = [name for name, p in probs.items() if float(p) >= threshold]
                assert lines.get("emotions", "").split() == expected
                printed[threshold, text] = expected
        # The two thresholds decide differently, so the check is not vacuous.
        assert any(printed[0.3, text] != printed[0.7, text] for text in texts)

    @pytest.mark.parametrize("mode, task, names", [("S1", "sentiment", SENTIMENTS),
                                                   ("E2", "emotion", EMOTIONS)])
    def test_single_task_checkpoint_prints_only_its_task(
        self, trained, tmp_path, capsys, mode, task, names
    ):
        ckpt = load_checkpoint(trained.out / "checkpoint.bin")
        config = dataclasses.replace(ckpt.config, mode=mode)
        params = init_parameters(config, vocab_size=len(ckpt.vocab), seed=3)
        path = tmp_path / f"{mode}.bin"
        save_checkpoint(path, config, params, ckpt.vocab, ckpt.thesaurus, ckpt.lexicon)
        text = "joyword angerword was so bad"
        assert entrypoint(["predict", str(path), text]) == 0
        lines = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
        decision = "sentiment" if task == "sentiment" else "emotions"
        assert lines.keys() == {"tokens", decision, f"{task} probabilities"}
        unlabeled = Example("x", normalize(text, ckpt.lexicon), "other", (0,) * len(EMOTIONS))
        example = encode_example(unlabeled, ckpt.vocab, ckpt.thesaurus, config.dt_k)
        probs = forward(example, params, config).probabilities[task][0]
        assert lines[f"{task} probabilities"] == " ".join(
            f"{n}={p:.6f}" for n, p in zip(names, probs)
        )
        chosen = [names[int(np.argmax(probs))]] if task == "sentiment" else [
            n for n, p in zip(names, probs) if p >= 0.5
        ]
        assert lines[decision].split() == chosen

    @pytest.mark.parametrize("option", [["--seed", "-5"], ["--config", "run.cfg"],
                                        ["--out", "out"]])
    def test_run_config_options_are_usage_errors(self, trained, capsys, option):
        checkpoint = str(trained.out / "checkpoint.bin")
        assert entrypoint(["predict", checkpoint, "joyword", *option]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestEvaluateCommand:
    def test_scores_checkpoint_on_test_corpus(self, trained, capsys):
        assert entrypoint(["evaluate", "--config", str(trained.config)]) == 0
        out = capsys.readouterr().out
        assert "macro-F1" in out and "Micro-Avg" in out
        report = parse_metrics(
            (trained.out / "eval_metrics.txt").read_text(encoding="utf-8")
        )
        assert report.mode == "M2"

    def test_report_names_the_checkpoints_seed_and_epochs(self, tmp_path, capsys):
        config = write_config(tmp_path / "run.cfg", tmp_path / "out", epochs=3)
        assert entrypoint(["train", "--config", str(config), "--seed", "5"]) == 0
        assert entrypoint(["evaluate", "--config", str(config)]) == 0
        assert "Mode M2 (seed 5, epoch 3)" in capsys.readouterr().out
        text = (tmp_path / "out" / "eval_metrics.txt").read_text(encoding="utf-8")
        report = parse_metrics(text)
        assert (report.seed, report.epoch) == (5, 3)

    def test_scores_at_the_checkpoints_threshold(self, tmp_path):
        for threshold in (0.5, 0.3):
            config = write_config(tmp_path / "run.cfg", tmp_path / str(threshold),
                                  threshold=threshold)
            assert entrypoint(["train", "--config", str(config)]) == 0
        trained_at = {t: (tmp_path / str(t) / "metrics.txt").read_bytes() for t in (0.5, 0.3)}
        assert trained_at[0.3] != trained_at[0.5]
        config = write_config(tmp_path / "run.cfg", tmp_path / "0.3", threshold=0.5)
        assert entrypoint(["evaluate", "--config", str(config)]) == 0
        assert (tmp_path / "0.3" / "eval_metrics.txt").read_bytes() == trained_at[0.3]

    def test_missing_checkpoint(self, tmp_path, capsys):
        config = write_config(tmp_path / "run.cfg", tmp_path / "out")
        assert entrypoint(["evaluate", "--config", str(config)]) == 2
        assert "checkpoint" in capsys.readouterr().err


class TestCorruptCheckpoint:
    """`predict` and `evaluate` end in a named error and exit 2 on a
    checkpoint whose header the parser refuses or whose model computes
    non-finite outputs."""

    @staticmethod
    def command(name, checkpoint, tmp_path):
        if name == "predict":
            return ["predict", str(checkpoint), "joyword"]
        config = write_config(tmp_path / "run.cfg", tmp_path / "out")
        return ["evaluate", "--config", str(config), "--checkpoint", str(checkpoint)]

    @pytest.mark.parametrize("name", ["predict", "evaluate"])
    @pytest.mark.parametrize("header", UNPARSABLE_HEADERS.values(), ids=UNPARSABLE_HEADERS)
    def test_unparsable_header_exits_2_naming_the_file(self, tmp_path, name, header):
        broken = tmp_path / "broken.bin"
        broken.write_bytes(MAGIC + len(header).to_bytes(8, "big") + header)
        proc = run_cli(*self.command(name, broken, tmp_path))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"error: checkpoint: {broken}: corrupt header: ")

    @pytest.mark.parametrize("name", ["predict", "evaluate"])
    def test_non_finite_outputs_exit_2_naming_the_example(
        self, trained, tmp_path, capsys, name
    ):
        ckpt = load_checkpoint(trained.out / "checkpoint.bin")
        params = init_parameters(ckpt.config, vocab_size=len(ckpt.vocab), seed=3)
        finite, broken = tmp_path / "finite.bin", tmp_path / "broken.bin"
        save_checkpoint(finite, ckpt.config, params, ckpt.vocab, ckpt.thesaurus, ckpt.lexicon)
        assert entrypoint(self.command(name, finite, tmp_path)) == 0
        assert "nan" not in capsys.readouterr().out
        for tensor, value in (("sentiment/V", np.nan), ("emotion/c", np.inf)):
            data = params[tensor].data.copy()
            data.flat[0] = value
            params[tensor] = nd.Tensor(data)
        save_checkpoint(broken, ckpt.config, params, ckpt.vocab, ckpt.thesaurus, ckpt.lexicon)
        assert entrypoint(self.command(name, broken, tmp_path)) == 2
        first = "input" if name == "predict" else load_corpus(
            FIXTURES / "corpus_test.tsv").examples[0].id
        assert f"non-finite sentiment logits for example {first!r}" in capsys.readouterr().err


class TestGradcheckCommand:
    @pytest.mark.parametrize("mode", MODES)
    def test_probe_gradients_clear_of_zero_at_the_default_seed(self, monkeypatch, mode):
        # So a finite-difference reading measures the gradient, not rounding.
        monkeypatch.setattr(
            cli, "grad_check", lambda loss_fn, params: assert_gradients_clear_of_zero(
                loss_fn, params, 1e-7)
        )
        cli._gradcheck_mode(mode)

    def test_requested_modes_pass(self, capsys):
        assert entrypoint(["gradcheck", "--modes", "S1,M2"]) == 0
        out = capsys.readouterr().out
        assert out.count("ok") == 2 and "S1:" in out and "M2:" in out

    def test_corrupted_backward_rule_detected(self, capsys, monkeypatch):
        corrupt_affine_pool_backward(monkeypatch)
        assert entrypoint(["gradcheck", "--modes", "M2"]) == 1
        assert "failing tensors: " in capsys.readouterr().out

    def test_unknown_mode_is_usage_error(self, capsys):
        assert entrypoint(["gradcheck", "--modes", "Q7"]) == 2
        assert "unknown mode" in capsys.readouterr().err


class TestPreprocessAndVocabCommands:
    def test_preprocess_writes_token_lines(self, tmp_path):
        raw = tmp_path / "raw.txt"
        raw.write_text(
            "@John check http://t.co/ab #BeautifulDay\nWe've got 42 reasons\n",
            encoding="utf-8",
        )
        config = write_config(tmp_path / "run.cfg", tmp_path / "out")
        assert entrypoint(["preprocess", "--config", str(config), str(raw)]) == 0
        lines = (tmp_path / "out" / "preprocessed.txt").read_text(encoding="utf-8")
        assert lines == (
            "<user> check <url> # beautiful day\n"
            "we have got <number> reasons\n"
        )

    def test_negative_lexicon_count_is_usage_error(self, tmp_path, capsys):
        raw = tmp_path / "raw.txt"
        raw.write_text("#BadDay\n", encoding="utf-8")
        lexicon = tmp_path / "lex.txt"
        lexicon.write_text("day\t50\nbad\t-30\n", encoding="utf-8")
        config = write_config(tmp_path / "run.cfg", tmp_path / "out", lexicon=lexicon)
        assert entrypoint(["preprocess", "--config", str(config), str(raw)]) == 2
        err = capsys.readouterr().err
        assert "lexicon:" in err and "line 2" in err
        assert not (tmp_path / "out" / "preprocessed.txt").exists()

    def test_preprocess_missing_input(self, tmp_path, capsys):
        config = write_config(tmp_path / "run.cfg", tmp_path / "out")
        assert entrypoint(["preprocess", "--config", str(config), str(tmp_path / "no.txt")]) == 2
        assert "input" in capsys.readouterr().err

    def test_build_vocab_writes_sorted_vocabulary(self, tmp_path):
        config = write_config(tmp_path / "run.cfg", tmp_path / "out")
        assert entrypoint(["build-vocab", "--config", str(config)]) == 0
        words = (tmp_path / "out" / "vocab.txt").read_text(encoding="utf-8").splitlines()
        assert words[0] == "<pad>"
        assert "joyword" in words and "joysyna" in words

    def test_build_vocab_names_bad_embedding_line_in_second_block(self, tmp_path, capsys):
        lines = (FIXTURES / "embeddings.txt").read_text(encoding="utf-8").splitlines()
        filler = [f"filler{i} " + " ".join(["0.5"] * 16) for i in range(CHUNK_ROWS)]
        bad_line = len(lines) + len(filler) + 2
        rows = lines + filler + ["late " + " ".join(["0.5"] * 16), "broken 1 2 x"]
        embeddings = tmp_path / "vectors.txt"
        embeddings.write_text("\n".join(rows) + "\n", encoding="utf-8")
        config = write_config(tmp_path / "run.cfg", tmp_path / "out", embeddings=embeddings)
        assert entrypoint(["build-vocab", "--config", str(config)]) == 2
        assert f"line {bad_line}: expected 16 values for 'broken', got 3" in capsys.readouterr().err
        assert not (tmp_path / "out" / "vocab.txt").exists()

    def test_build_vocab_names_invalid_utf8_after_the_first_block(self, tmp_path, capsys):
        text = (FIXTURES / "embeddings.txt").read_bytes()
        filler = b"".join(b"filler%d " % i + b" ".join([b"0.5"] * 16) + b"\n" for i in range(5000))
        assert len(text + filler) > SCAN_BYTES
        embeddings = tmp_path / "vectors.txt"
        embeddings.write_bytes(text + filler + b"bad\xe9 " + b" ".join([b"0.5"] * 16) + b"\n")
        offset = len(text + filler) + len(b"bad")
        config = write_config(tmp_path / "run.cfg", tmp_path / "out", embeddings=embeddings)
        assert entrypoint(["build-vocab", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert f"embeddings: {embeddings}: not UTF-8 text (invalid continuation byte at byte {offset})" in err
        assert not (tmp_path / "out" / "vocab.txt").exists()

    def test_build_vocab_parses_no_values(self, tmp_path):
        text = (FIXTURES / "embeddings.txt").read_text(encoding="utf-8")
        word = text.split(" ", 1)[0]
        unused = "unusedword " + " ".join(["x"] * 16)
        repeated = f"{word} " + " ".join(["nan"] * 16)
        embeddings = tmp_path / "vectors.txt"
        embeddings.write_text(f"{text}{unused}\n{repeated}\n", encoding="utf-8")
        clean = write_config(tmp_path / "clean.cfg", tmp_path / "clean")
        config = write_config(tmp_path / "run.cfg", tmp_path / "out", embeddings=embeddings)
        assert entrypoint(["build-vocab", "--config", str(clean)]) == 0
        assert entrypoint(["build-vocab", "--config", str(config)]) == 0
        vocab = (tmp_path / "out" / "vocab.txt").read_bytes()
        assert vocab == (tmp_path / "clean" / "vocab.txt").read_bytes()
        assert b"unusedword" not in vocab


    @pytest.mark.parametrize(
        "key, value, message",
        [
            pytest.param("embed_dim", 0, "embed_dim must be positive", id="embed_dim"),
            pytest.param("dt_k", 0, "dt_k must be positive", id="dt_k"),
            pytest.param("dropout", 1.5, "dropout must be in [0, 1)", id="dropout"),
            pytest.param(
                "sentiment_loss_weight",
                -1,
                "sentiment_loss_weight must be finite and non-negative, got -1.0",
                id="sentiment_loss_weight",
            ),
            pytest.param(
                "emotion_loss_weight",
                -1,
                "emotion_loss_weight must be finite and non-negative, got -1.0",
                id="emotion_loss_weight",
            ),
            *(
                pytest.param(key, value, f"{key} must be finite and non-negative, got {value}",
                             id=f"{key}-{value}")
                for key in ("sentiment_loss_weight", "emotion_loss_weight")
                for value in ("nan", "inf")
            ),
        ],
    )
    def test_build_vocab_names_bad_model_key(self, tmp_path, capsys, key, value, message):
        config = write_config(tmp_path / "run.cfg", tmp_path / "out", **{key: value})
        assert entrypoint(["build-vocab", "--config", str(config)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestReportCommand:
    def test_renders_table_from_metrics_file(self, trained, capsys):
        metrics = str(trained.out / "metrics.txt")
        assert entrypoint(["report", "--metrics", metrics]) == 0
        out = capsys.readouterr().out
        assert "Sentiment" in out and "Emotion" in out and "macro-F1" in out

    def test_out_flag_overrides_the_configs_out_dir(self, trained, tmp_path, capsys):
        assert entrypoint(["report", "--metrics", str(trained.out / "metrics.txt")]) == 0
        expected = capsys.readouterr().out
        config = write_config(tmp_path / "run.cfg", tmp_path / "elsewhere")
        assert entrypoint(["report", "--config", str(config), "--out", str(trained.out)]) == 0
        assert capsys.readouterr().out == expected

    def test_blank_and_comment_lines_are_skipped(self, trained, tmp_path, capsys):
        text = (trained.out / "metrics.txt").read_text(encoding="utf-8")
        assert entrypoint(["report", "--metrics", str(trained.out / "metrics.txt")]) == 0
        expected = capsys.readouterr().out
        metrics = tmp_path / "metrics.txt"
        metrics.write_text("# scored by hand\n\n" + text.replace("\n", "\n  # note\n", 1),
                           encoding="utf-8")
        assert entrypoint(["report", "--metrics", str(metrics)]) == 0
        assert capsys.readouterr().out == expected

    def test_missing_metrics_file(self, tmp_path, capsys):
        assert entrypoint(["report", "--metrics", str(tmp_path / "no.txt")]) == 2
        assert "metrics" in capsys.readouterr().err

    def test_metrics_file_without_a_key_exits_2_without_traceback(self, trained, tmp_path):
        lines = (trained.out / "metrics.txt").read_text(encoding="utf-8").splitlines()
        metrics = tmp_path / "metrics.txt"
        metrics.write_text(
            "".join(line + "\n" for line in lines if not line.startswith("meta.epoch")),
            encoding="utf-8",
        )
        proc = run_cli("report", "--metrics", str(metrics))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr == "error: metrics: missing key 'meta.epoch'\n"


class TestUnreadableText:
    """A file that is not UTF-8 is a usage error naming that file."""

    BYTES = b"ok\n\xff\xfe\n"

    def assert_named(self, capsys, bad, prefix):
        err = capsys.readouterr().err
        assert err.startswith(f"error: {prefix}{bad}: not UTF-8 text (")

    def test_config(self, tmp_path, capsys):
        bad = tmp_path / "run.cfg"
        bad.write_bytes(self.BYTES)
        assert entrypoint(["build-vocab", "--config", str(bad)]) == 2
        self.assert_named(capsys, bad, "")

    def test_preprocess_input(self, tmp_path, capsys):
        bad = tmp_path / "raw.txt"
        bad.write_bytes(self.BYTES)
        config = write_config(tmp_path / "run.cfg", tmp_path / "out")
        assert entrypoint(["preprocess", "--config", str(config), str(bad)]) == 2
        self.assert_named(capsys, bad, "input: ")
        assert not (tmp_path / "out" / "preprocessed.txt").exists()

    def test_report_metrics(self, tmp_path, capsys):
        bad = tmp_path / "metrics.txt"
        bad.write_bytes(self.BYTES)
        assert entrypoint(["report", "--metrics", str(bad)]) == 2
        self.assert_named(capsys, bad, "metrics: ")

    def test_corpus(self, tmp_path, capsys):
        bad = tmp_path / "train.tsv"
        bad.write_bytes(self.BYTES)
        config = write_config(tmp_path / "run.cfg", tmp_path / "out", **{"corpus.train": bad})
        assert entrypoint(["build-vocab", "--config", str(config)]) == 2
        self.assert_named(capsys, bad, "corpus.train: ")


class TestUsage:
    def test_no_command_is_usage_error(self):
        assert entrypoint([]) == 2

    def test_help_exits_cleanly(self, capsys):
        assert entrypoint(["--help"]) == 0
        assert "preprocess" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "args",
        [
            ["preprocess", "--seed", "1", "raw.txt"],
            ["build-vocab", "--seed", "1"],
            ["evaluate", "--seed", "1"],
            ["report", "--seed", "1"],
            ["gradcheck", "--seed", "1"],
            ["gradcheck", "--config", "run.cfg"],
            ["gradcheck", "--out", "out"],
        ],
        ids=lambda args: f"{args[0]}{args[1]}",
    )
    def test_flags_a_command_does_not_read_are_usage_errors(self, capsys, args):
        assert entrypoint(args) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_readme_flag_table_matches_the_parser(self, capsys):
        readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
        section = readme[readme.index("## Quick start\n") :]
        section = section[: section.index("\n## ", 1)]
        rows = re.findall(r"^\| `emosent ([\w-]+)` \|([^|]*)\|([^|]*)\|$", section, re.M)
        documented = {
            command: (re.findall(r"`([^`]+)`", options), re.findall(r"`([^`]+)`", arguments))
            for command, options, arguments in rows
        }

        def usage(*argv):
            """The usage line `--help` prints, on one line."""
            assert entrypoint([*argv, "--help"]) == 0
            return " ".join(capsys.readouterr().out.split("\n\n", 1)[0].split())

        commands = re.search(r"\{([^}]*)\}", usage()).group(1).split(",")
        registered = {}
        for name in commands:
            line = usage(name)
            # Options show as `[--flag VALUE]`; what is left after the
            # command name are its positionals.
            options = re.findall(r"\[(--[\w-]+)", line)
            positionals = re.sub(r"\[[^\]]*\]", "", line).split()[3:]
            registered[name] = (options, positionals)
        assert len(rows) == len(documented)
        assert documented == registered
