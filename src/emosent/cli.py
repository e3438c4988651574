"""Operator commands covering the full pipeline.

Commands: preprocess, build-vocab, train, evaluate, predict, gradcheck,
report. All randomness flows from one seed fanned out by stage name, and
every command writes byte-identical artifacts given identical inputs.
Exit codes: 0 success, 1 failed check, 2 usage or configuration error.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .artifacts import read_text, write_atomic
from .checkpoint import load_checkpoint, save_checkpoint
from .config import ConfigError, RunConfig, load_run_config, require_files
from .model import (
    MODES, TASK_EMOTION, TASK_SENTIMENT, ModelConfig, forward, init_parameters,
)
from .nd import grad_check, set_blas_threads
from .preprocess import SegmentationLexicon, join, normalize
from .resources import (
    EMOTIONS,
    EncodedExample,
    Example,
    OTHER_SENTIMENT,
    SENTIMENTS,
    Thesaurus,
    build_vocab,
    encode_corpus,
    encode_example,
    load_corpus,
    load_embeddings,
    vocab_embedding_rows,
)
from .train import (
    EMOTION_THRESHOLD, evaluate, infer, joint_loss, train as train_model, write_report,
)
from .metrics import parse_metrics, render_table

GRADCHECK_TOLERANCE = 1e-3


def _load_config(args, required: bool) -> RunConfig:
    if args.config is None:
        if required:
            raise ConfigError("this command needs --config")
        cfg = RunConfig()
    else:
        cfg = load_run_config(args.config)
    if args.out is not None:
        cfg.out_dir = args.out
    return cfg


def _ensure_out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _staged(stage: str, fn, *args, **kwargs):
    """Run one pipeline stage; a failure names the stage and its cause."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{stage}: {exc}") from None


def _load_optional(cfg: RunConfig, key: str, cls):
    """The resource file `key` names, loaded by `cls.from_file`; an unset
    key gives the empty resource, `cls({})`."""
    path = getattr(cfg, key)
    if path is None:
        return cls({})
    require_files(cfg, key)
    return _staged(key, cls.from_file, path)


def _load_checkpoint(path):
    if not Path(path).is_file():
        raise ConfigError(f"checkpoint: no such file: {path}")
    return _staged("checkpoint", load_checkpoint, path)


def cmd_preprocess(args) -> int:
    cfg = _load_config(args, required=False)
    if not Path(args.input).is_file():
        raise ConfigError(f"input: no such file: {args.input}")
    lexicon = _load_optional(cfg, "lexicon", SegmentationLexicon)
    out_dir = _ensure_out_dir(cfg)
    lines = _staged("input", read_text, args.input).splitlines()
    rendered = "".join(join(normalize(line, lexicon)) + "\n" for line in lines)
    target = out_dir / "preprocessed.txt"
    write_atomic(target, rendered)
    print(f"wrote {target} ({len(lines)} lines)")
    return 0


def _vocabulary(cfg: RunConfig, embedding_rows: bool):
    """Load the embeddings, thesaurus and training corpus and build their
    vocabulary; returns (vocab, thesaurus, corpus, rows), where rows are the
    vocabulary's embedding rows when `embedding_rows`, else None. The
    embeddings file text is freed on return, once its rows are built."""
    require_files(cfg, "embeddings", "corpus.train")
    embeddings = _staged(
        "embeddings", load_embeddings, cfg.embeddings, cfg.model.embed_dim, seed=cfg.train.seed
    )
    thesaurus = _load_optional(cfg, "thesaurus", Thesaurus)
    corpus = _staged("corpus.train", load_corpus, cfg.corpus_train)
    vocab = build_vocab(corpus, embeddings, thesaurus, cfg.model.dt_k)
    if not embedding_rows:
        return vocab, thesaurus, corpus, None
    return vocab, thesaurus, corpus, _staged("embeddings", vocab_embedding_rows, vocab, embeddings)


def cmd_build_vocab(args) -> int:
    cfg = _load_config(args, required=True)
    vocab = _vocabulary(cfg, embedding_rows=False)[0]
    out_dir = _ensure_out_dir(cfg)
    target = out_dir / "vocab.txt"
    write_atomic(target, "".join(w + "\n" for w in vocab.words))
    print(f"wrote {target} ({len(vocab.words)} words)")
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args, required=True)
    if args.seed is not None:
        cfg.train = dataclasses.replace(cfg.train, seed=args.seed)
    model_cfg, train_cfg = cfg.model, cfg.train
    lexicon = _load_optional(cfg, "lexicon", SegmentationLexicon)
    vocab, thesaurus, train_corpus, rows = _vocabulary(cfg, embedding_rows=True)
    train_examples = encode_corpus(train_corpus, vocab, thesaurus, model_cfg.dt_k)
    if cfg.corpus_test is not None:
        require_files(cfg, "corpus.test")
        test_corpus = _staged("corpus.test", load_corpus, cfg.corpus_test)
        eval_examples = encode_corpus(test_corpus, vocab, thesaurus, model_cfg.dt_k)
    else:
        eval_examples = train_examples
    params = init_parameters(model_cfg, embedding_rows=rows, seed=train_cfg.seed)
    params, log = _staged("train", train_model, train_examples, params, train_cfg, model_cfg)
    report = _staged("evaluate", evaluate, eval_examples, params, model_cfg,
                     threshold=cfg.threshold, seed=train_cfg.seed, epoch=len(log))
    out_dir = _ensure_out_dir(cfg)
    meta = {"epochs": len(log), "final_loss": log[-1], "seed": train_cfg.seed,
            "threshold": cfg.threshold}
    save_checkpoint(out_dir / "checkpoint.bin", model_cfg, params, vocab, thesaurus, lexicon, meta)
    write_report(report, out_dir / "metrics.txt", out_dir / "table.txt")
    write_atomic(
        out_dir / "train_log.txt",
        "".join(f"{epoch}\t{loss!r}\n" for epoch, loss in enumerate(log, start=1)),
    )
    print(f"trained {model_cfg.mode} for {len(log)} epochs, final loss {log[-1]:.6f}")
    print(f"wrote {out_dir / 'checkpoint.bin'}")
    print(f"wrote {out_dir / 'metrics.txt'}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = _load_config(args, required=True)
    ckpt = _load_checkpoint(Path(args.checkpoint or Path(cfg.out_dir) / "checkpoint.bin"))
    require_files(cfg, "corpus.test")
    corpus = _staged("corpus.test", load_corpus, cfg.corpus_test)
    examples = encode_corpus(corpus, ckpt.vocab, ckpt.thesaurus, ckpt.config.dt_k)
    report = _staged("evaluate", evaluate, examples, ckpt.params, ckpt.config,
                     threshold=cfg.threshold, seed=ckpt.meta.get("seed", 0),
                     epoch=ckpt.meta.get("epochs", 0))
    out_dir = _ensure_out_dir(cfg)
    write_report(report, out_dir / "eval_metrics.txt")
    print(render_table(report))
    return 0


def cmd_predict(args) -> int:
    ckpt = _load_checkpoint(args.checkpoint)
    if not args.text.strip():
        raise ConfigError("empty input text; pass the message to classify")
    tokens = normalize(args.text, ckpt.lexicon)
    if not tokens:
        raise ConfigError("input text produced no tokens")
    unlabeled = Example("input", tokens, OTHER_SENTIMENT, tuple(0 for _ in EMOTIONS))
    example = encode_example(unlabeled, ckpt.vocab, ckpt.thesaurus, ckpt.config.dt_k)
    threshold = ckpt.meta.get("threshold", EMOTION_THRESHOLD)
    [(probs, decisions)] = _staged(
        "predict", infer, [example], ckpt.params, ckpt.config, threshold
    )
    print(f"tokens: {join(tokens)}")
    if TASK_SENTIMENT in probs:
        print(f"sentiment: {SENTIMENTS[decisions[TASK_SENTIMENT]]}")
        print("sentiment probabilities: "
              + " ".join(f"{n}={p:.6f}" for n, p in zip(SENTIMENTS, probs[TASK_SENTIMENT])))
    if TASK_EMOTION in probs:
        active = [n for n, on in zip(EMOTIONS, decisions[TASK_EMOTION]) if on]
        print(f"emotions: {' '.join(active)}")
        print("emotion probabilities: "
              + " ".join(f"{n}={p:.6f}" for n, p in zip(EMOTIONS, probs[TASK_EMOTION])))
    return 0


def _gradcheck_mode(mode: str):
    """Tiny random model and loss for one architecture.

    The probe and the seed-0 initial parameters, scaled by 5, give every
    true gradient coordinate of all six modes exactly zero or at least 1e-7
    in magnitude; central differences on a near-zero one would measure
    float64 rounding of the loss rather than the gradient.
    """
    config = ModelConfig(
        mode=mode,
        embed_dim=6,
        lstm_hidden=3,
        context_dim=2,
        dt_k=2,
        dropout_rate=0.0,
        train_embeddings=True,
    )
    params = init_parameters(config, vocab_size=9, seed=0)
    for p in params.values():
        p.data *= 5.0
    example = EncodedExample(
        "probe",
        [1, 2, 3],
        [[4, 5], [5, 6], [7, 8]],
        "negative",
        np.array([0, 1, 1, 0, 0, 1, 0, 1], dtype=np.float64),
    )

    def loss_fn(p):
        return joint_loss(forward(example, p, config), example, config)

    return grad_check(loss_fn, params)


def cmd_gradcheck(args) -> int:
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    if not modes:
        raise ConfigError("no modes requested")
    for mode in modes:
        if mode not in MODES:
            raise ConfigError(f"unknown mode {mode!r}; choose from {', '.join(MODES)}")
    failing: list[str] = []
    for mode in modes:
        report = _gradcheck_mode(mode)
        status = "ok" if report.ok(GRADCHECK_TOLERANCE) else "FAIL"
        print(
            f"{mode}: max_rel_err={report.max_rel_err:.3e} "
            f"worst={report.worst_param} {status}"
        )
        if not report.ok(GRADCHECK_TOLERANCE):
            failing.extend(
                f"{mode}:{name}"
                for name, err in sorted(report.per_param.items())
                if err >= GRADCHECK_TOLERANCE
            )
    if failing:
        print("failing tensors: " + " ".join(failing))
        return 1
    print(f"gradcheck: all modes below {GRADCHECK_TOLERANCE:g}")
    return 0


def cmd_report(args) -> int:
    cfg = _load_config(args, required=args.metrics is None)
    path = Path(args.metrics) if args.metrics else Path(cfg.out_dir) / "metrics.txt"
    if not path.is_file():
        raise ConfigError(f"metrics: no such file: {path}")
    report = _staged("metrics", lambda: parse_metrics(read_text(path)))
    print(render_table(report))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emosent",
        description="Multi-task sentiment and emotion classifier for tweets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help_text: str, run_config: bool = True):
        p = sub.add_parser(name, help=help_text, description=help_text)
        if run_config:
            p.add_argument("--config", help="run config file (flat key = value lines)")
            p.add_argument("--out", help="override the config out_dir")
        p.set_defaults(func=func)
        return p

    p = command("preprocess", cmd_preprocess, "tokenize raw tweets, one per line")
    p.add_argument("input", help="text file with one raw tweet per line")
    command("build-vocab", cmd_build_vocab, "write the vocabulary for a corpus")
    p = command("train", cmd_train, "train a model and write all artifacts")
    p.add_argument("--seed", type=int, help="override the config seed")
    p = command("evaluate", cmd_evaluate, "score a checkpoint on the test corpus")
    p.add_argument("--checkpoint", help="checkpoint path (default: out_dir/checkpoint.bin)")
    p = command("predict", cmd_predict, "classify one message with a checkpoint",
                run_config=False)
    p.add_argument("checkpoint", help="checkpoint file from a train run")
    p.add_argument("text", help="the message to classify")
    p = command("gradcheck", cmd_gradcheck, "verify gradients against finite differences",
                run_config=False)
    p.add_argument(
        "--modes",
        default=",".join(MODES),
        help="comma-separated architecture list (default: all six)",
    )
    p = command("report", cmd_report, "render a metrics file as a table")
    p.add_argument("--metrics", help="metrics path (default: out_dir/metrics.txt)")
    return parser


def entrypoint(argv=None) -> int:
    """Run one command; BLAS runs one thread meanwhile (see README, Threads)."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    before = set_blas_threads(1)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if before is not None:
            set_blas_threads(before)


if __name__ == "__main__":
    sys.exit(entrypoint())
