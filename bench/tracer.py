"""Outside-in tracer: spans around the program's public functions.

`Tracer.install` replaces each traced function in every `emosent` module
namespace that binds it (so `train.forward` and `model.forward` are both
covered) and `uninstall` puts the originals back. Nothing in the program
changes on disk.

Spans live in memory as (name, phase, start, end, parent) and are written
out once, at the end of a run. Backward time is attributed per model layer
without touching the program: while a tape is active, every span boundary
marks which layer recorded the tape entries since the previous boundary,
and before `Tape.gradients` runs, each entry's backward closure is wrapped
in a timer for its layer, inside a `trace.wrap_backward` span so that this
work of the tracer's own is not charged to the program. What remains of
the `Tape.gradients` span after the closures is its bookkeeping self time.
"""
from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

# Span name -> model layer charged with the tape entries the span records
# itself (not through a traced child).
TAPE_LAYERS = {
    "model.forward": "gather",
    "model.bilstm": "bilstm",
    "model.word_attention": "word_attention",
    "model.sentence_attention": "sentence_attention",
    "model.heads": "heads",
    "train.joint_loss": "loss",
}
LAYERS = tuple(TAPE_LAYERS.values())
UNATTRIBUTED = "unattributed"
FORWARD_PARTS = ("bilstm", "word_attention", "sentence_attention", "heads")
PHASES = ("train", "evaluate", "predict")


def _functions(emosent):
    """(span name, owner, attribute) of every traced module-level function."""
    m, t, nd = emosent.model, emosent.train, emosent.nd
    r, p, c, met = emosent.resources, emosent.preprocess, emosent.checkpoint, emosent.metrics
    return [
        ("model.forward", m, "forward"),
        ("model.bilstm", m, "bilstm_forward"),
        ("model.word_attention", m, "primary_attention"),
        ("model.sentence_attention", m, "secondary_attention"),
        ("model.heads", m, "task_heads"),
        ("model.init_parameters", m, "init_parameters"),
        ("train.train", t, "train"),
        ("train.evaluate", t, "evaluate"),
        ("train.joint_loss", t, "joint_loss"),
        ("nd.adam_step", nd, "adam_step"),
        ("checkpoint.load", c, "load_checkpoint"),
        ("preprocess.normalize", p, "normalize"),
        ("resources.load_embeddings", r, "load_embeddings"),
        ("resources.load_corpus", r, "load_corpus"),
        ("resources.build_vocab", r, "build_vocab"),
        ("resources.vocab_embedding_rows", r, "vocab_embedding_rows"),
        ("resources.encode_corpus", r, "encode_corpus"),
        ("resources.encode_example", r, "encode_example"),
        ("metrics.sentiment", met, "sentiment_metrics"),
        ("metrics.emotion", met, "emotion_metrics"),
    ]


def _classmethods(emosent):
    return [
        ("resources.load_thesaurus", emosent.resources.Thesaurus, "from_file"),
        ("resources.load_lexicon", emosent.preprocess.SegmentationLexicon, "from_file"),
    ]


class Tracer:
    """Records spans, counts and per-layer backward time for one run."""

    def __init__(self):
        self.phase = "setup"
        self.spans: list[list] = []  # [name, phase, start, end, parent]
        self._open: list[int] = []
        self._tapes: list[list] = []  # [tape, mark, ranges] of active tapes
        self._ranges = weakref.WeakKeyDictionary()  # tape -> [(lo, hi, layer)]
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.backward_s: dict[str, float] = defaultdict(float)
        self.bookkeeping_s = 0.0
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _flush(self) -> None:
        """Charge tape entries recorded since the last boundary to the layer
        of the innermost open span."""
        if not self._tapes:
            return
        state = self._tapes[-1]
        n = len(state[0].entries)
        if n > state[1]:
            top = self.spans[self._open[-1]][0] if self._open else None
            state[2].append((state[1], n, TAPE_LAYERS.get(top, UNATTRIBUTED)))
            state[1] = n

    def _start(self, name: str) -> int:
        self._flush()
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, self.phase, time.perf_counter(), None, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _end(self, idx: int) -> None:
        self._flush()
        self.spans[idx][3] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._start(name)
        try:
            yield
        finally:
            self._end(idx)

    def count(self, key: str, value: float = 1.0) -> None:
        self.counts[(self.phase, key)] += value

    @property
    def unattributed_entries(self) -> int:
        """Tape entries recorded outside every model-layer span; 0 when the
        layer spans cover the whole forward pass and loss."""
        return int(self.counts[("train", "tape_entries." + UNATTRIBUTED)])

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._start(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(idx)
            if hook is not None:
                hook(result, args)
            return result

        return traced

    def _after_preprocess_normalize(self, tokens, args) -> None:
        self.count("tweets")
        self.count("hashtags", tokens.count("#"))

    def _after_resources_encode_example(self, encoded, args) -> None:
        self.count("tokens", len(encoded.token_ids))
        self.count("tokens_with_candidates", sum(1 for c in encoded.candidate_ids if c))
        self.count("candidates", sum(len(c) for c in encoded.candidate_ids))

    def _after_resources_load_embeddings(self, embeddings, args) -> None:
        self.count("embedding_rows", len(embeddings.index))

    def _after_resources_build_vocab(self, vocab, args) -> None:
        self.count("vocab_rows", len(vocab))

    def _after_checkpoint_load(self, ckpt, args) -> None:
        self.count("checkpoint_bytes", os.path.getsize(args[0]))

    def _timed_backward(self, fn, layer: str):
        acc = self.backward_s

        def run(g):
            t0 = time.perf_counter()
            try:
                return fn(g)
            finally:
                acc[layer] += time.perf_counter() - t0

        return run

    def install(self, emosent) -> None:
        """Patch every traced function in every emosent module binding it."""
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "emosent"]
        for name, owner, attr in _functions(emosent):
            original = getattr(owner, attr)
            traced = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, value))
                        setattr(module, key, traced)
        for name, cls, attr in _classmethods(emosent):
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, classmethod(self._wrap(name, original.__func__)))
        self._install_tape(emosent.nd.Tape)

    def _install_tape(self, tape_cls) -> None:
        tracer = self
        enter, exit_, gradients = (
            tape_cls.__dict__[a] for a in ("__enter__", "__exit__", "gradients")
        )

        def traced_enter(tape):
            tracer._flush()
            tracer._tapes.append([tape, len(tape.entries), []])
            return enter(tape)

        def traced_exit(tape, *exc):
            tracer._flush()
            state = tracer._tapes.pop()
            tracer._ranges[tape] = state[2]
            return exit_(tape, *exc)

        def traced_gradients(tape, loss, wrt):
            ranges = tracer._ranges.pop(tape, [(0, len(tape.entries), UNATTRIBUTED)])
            with tracer.span("trace.wrap_backward"):
                for lo, hi, layer in ranges:
                    tracer.count("tape_entries." + layer, hi - lo)
                    for i in range(lo, hi):
                        inputs, output, backward = entry = tape.entries[i]
                        tape.entries[i] = type(entry)(
                            inputs, output, tracer._timed_backward(backward, layer)
                        )
            before = sum(tracer.backward_s.values())
            idx = tracer._start("nd.gradients")
            try:
                return gradients(tape, loss, wrt)
            finally:
                tracer._end(idx)
                start, end = tracer.spans[idx][2:4]
                tracer.bookkeeping_s += (end - start) - (sum(tracer.backward_s.values()) - before)

        for attr, fn in (
            ("__enter__", traced_enter),
            ("__exit__", traced_exit),
            ("gradients", traced_gradients),
        ):
            self._restore.append((tape_cls, attr, tape_cls.__dict__[attr]))
            setattr(tape_cls, attr, fn)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, phase, start, end, parent) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": name, "phase": phase, "start": start,
                         "end": end, "parent": parent}
                    )
                    + "\n"
                )

    def summary(self) -> dict[str, float]:
        """Per-layer metrics, keyed by metric name (units in PER_LAYER_UNITS)."""
        total: dict[tuple[str, str], float] = defaultdict(float)
        self_time: dict[tuple[str, str], float] = defaultdict(float)
        calls: dict[tuple[str, str], int] = defaultdict(int)
        durations: dict[str, list[float]] = defaultdict(list)
        child = [0.0] * len(self.spans)
        for name, phase, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, phase, start, end, parent) in enumerate(self.spans):
            total[(phase, name)] += end - start
            self_time[(phase, name)] += end - start - child[i]
            calls[(phase, name)] += 1
            durations[name].append(end - start)

        def per(num: float, den: float, scale: float = 1.0) -> float:
            return scale * num / den if den else 0.0

        out: dict[str, float] = {}
        for phase in PHASES:
            n = calls[(phase, "model.forward")]
            out[f"model.forward_ms_per_ex.{phase}"] = per(total[(phase, "model.forward")], n, 1e3)
            out[f"model.gather_ms_per_ex.{phase}"] = per(self_time[(phase, "model.forward")], n, 1e3)
            for part in FORWARD_PARTS:
                out[f"model.{part}_ms_per_ex.{phase}"] = per(total[(phase, "model." + part)], n, 1e3)

        n_train = calls[("train", "model.forward")]
        entries = {layer: self.counts[("train", "tape_entries." + layer)] for layer in LAYERS}
        out["nd.tape_entries_per_ex"] = per(sum(entries.values()), n_train)
        for layer in LAYERS:
            out[f"nd.tape_entries_per_ex.{layer}"] = per(entries[layer], n_train)
            out[f"nd.backward.{layer}_ms_per_ex"] = per(self.backward_s[layer], n_train, 1e3)
        out["nd.tape_bookkeeping_ms_per_ex"] = per(self.bookkeeping_s, n_train, 1e3)
        out["nd.gradients_ms_per_ex"] = per(total[("train", "nd.gradients")], n_train, 1e3)
        steps = calls[("train", "nd.adam_step")]
        out["nd.adam_ms_per_step"] = per(total[("train", "nd.adam_step")], steps, 1e3)

        step_ms = self._step_durations()
        out["train.step_ms_p50"] = _percentile(step_ms, 50)
        out["train.step_ms_p90"] = _percentile(step_ms, 90)
        out["train.joint_loss_ms_per_ex"] = per(total[("train", "train.joint_loss")], n_train, 1e3)
        out["train.batch_loop_self_ms_per_step"] = per(self_time[("train", "train.train")], steps, 1e3)
        out["trace.wrap_backward_ms_per_ex"] = per(
            total[("train", "trace.wrap_backward")], n_train, 1e3
        )

        scored = total[("evaluate", "metrics.sentiment")] + total[("evaluate", "metrics.emotion")]
        out["metrics.score_ms"] = per(scored, calls[("evaluate", "train.evaluate")], 1e3)

        out["checkpoint.load_ms"] = _median(durations["checkpoint.load"]) * 1e3
        loads = sum(calls[(p, "checkpoint.load")] for p in ("setup",) + PHASES)
        out["checkpoint.bytes"] = per(
            sum(self.counts[(p, "checkpoint_bytes")] for p in ("setup",) + PHASES), loads
        )

        builds = calls[("setup", "resources.build_vocab")]
        out["resources.load_embeddings_s"] = _median(durations["resources.load_embeddings"])
        out["resources.embedding_rows_kept_ratio"] = per(
            self.counts[("setup", "vocab_rows")], self.counts[("setup", "embedding_rows")]
        )
        out["resources.build_vocab_ms"] = _median(durations["resources.build_vocab"]) * 1e3
        out["resources.encode_ms"] = per(total[("setup", "resources.encode_corpus")], builds, 1e3)
        tokens = self.counts[("setup", "tokens")]
        out["resources.tokens_with_candidates_ratio"] = per(
            self.counts[("setup", "tokens_with_candidates")], tokens
        )
        out["resources.candidates_per_token"] = per(self.counts[("setup", "candidates")], tokens)
        out["resources.encode_us_per_tweet"] = per(
            total[("predict", "resources.encode_example")],
            calls[("predict", "resources.encode_example")],
            1e6,
        )

        tweets = self.counts[("predict", "tweets")]
        out["preprocess.normalize_us_per_tweet"] = per(
            total[("predict", "preprocess.normalize")], tweets, 1e6
        )
        out["preprocess.hashtags_per_tweet"] = per(self.counts[("predict", "hashtags")], tweets)
        return out

    def _step_durations(self) -> list[float]:
        """Milliseconds from one optimizer step's end to the next, per train run."""
        steps: list[float] = []
        loops = {i: s[2] for i, s in enumerate(self.spans) if s[0] == "train.train"}
        for name, phase, start, end, parent in self.spans:
            if name == "nd.adam_step" and parent in loops:
                steps.append((end - loops[parent]) * 1e3)
                loops[parent] = end
        return steps


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _percentile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(len(ordered) * q / 100))]


def _units() -> dict[str, str]:
    units: dict[str, str] = {}
    for phase in PHASES:
        for part in ("forward", "gather") + FORWARD_PARTS:
            units[f"model.{part}_ms_per_ex.{phase}"] = "ms"
    units["nd.tape_entries_per_ex"] = "count"
    for layer in LAYERS:
        units[f"nd.tape_entries_per_ex.{layer}"] = "count"
        units[f"nd.backward.{layer}_ms_per_ex"] = "ms"
    units.update(
        {
            "nd.tape_bookkeeping_ms_per_ex": "ms",
            "nd.gradients_ms_per_ex": "ms",
            "nd.adam_ms_per_step": "ms",
            "train.step_ms_p50": "ms",
            "train.step_ms_p90": "ms",
            "train.joint_loss_ms_per_ex": "ms",
            "train.batch_loop_self_ms_per_step": "ms",
            "metrics.score_ms": "ms",
            "checkpoint.load_ms": "ms",
            "checkpoint.bytes": "bytes",
            "resources.load_embeddings_s": "s",
            "resources.embedding_rows_kept_ratio": "ratio",
            "resources.build_vocab_ms": "ms",
            "resources.encode_ms": "ms",
            "resources.tokens_with_candidates_ratio": "ratio",
            "resources.candidates_per_token": "count",
            "resources.encode_us_per_tweet": "us",
            "preprocess.normalize_us_per_tweet": "us",
            "preprocess.hashtags_per_tweet": "count",
        }
    )
    units["trace.wrap_backward_ms_per_ex"] = "ms"
    for phase in PHASES:
        units[f"trace.overhead_ms_per_ex.{phase}"] = "ms"
    return units


PER_LAYER_UNITS = _units()
