"""emosent benchmark: one workload per process, end-to-end or traced.

Usage, from the repository root:

    python3 bench/run.py --workload train-paper-m2 --seed 1 --seconds 40 --trace 0

The workloads are defined in `bench/workloads.py` and listed in
`BENCHMARK.json`. A run generates its inputs from `--seed`, drives the
program through its public Python API (resources, model, train, nd,
checkpoint, preprocess, metrics) and checks the outputs:

- repeated train runs give a bit-identical loss log and parameter digest;
- repeated evaluations and predictions give identical results;
- every loss is finite and every probability is in [0, 1];
- training lowers the mean loss on its own rows; `train_loss_final` is
  that loss after training, taken with dropout off and outside the timing;
- `Tape.gradients` agrees with central differences of the loss along a
  seeded random direction in every trainable parameter;
- for a shared example, the predict path (normalize, encode, forward on
  the loaded checkpoint) gives exactly the evaluate path's probabilities.

Each time is taken in calibrated blocks and reported at a reference
machine speed (see `bench/reference.py`), which takes out most of the
speed changes of a shared host; the `report` line holds the same metrics
as measured. A run's first round is a warm-up and is not timed.

`--trace 0` reports the end-to-end metrics. `--trace 1` measures once
untraced and once with `bench/tracer.py` wrapped around the program, and
reports the per-layer metrics plus the traced-minus-untraced overhead;
the spans go to `.bench_out/spans-<workload>.jsonl`.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. The exit code is 1 when any check
fails and 2 when the program's sources are missing.
"""
from __future__ import annotations

import os

# Pinned before numpy loads BLAS. One thread: the model's products are
# vector-matrix and small, and a single thread is steadier on a shared box.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from reference import NOMINAL_MS, Reference  # noqa: E402
from tracer import PER_LAYER_UNITS, Tracer  # noqa: E402
from workloads import WORKLOADS, Inputs, Workload, generate  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

E2E_UNITS = {
    "setup_s": "s",
    "train_examples_per_s": "examples/s",
    "train_loss_final": "nats",
    "eval_examples_per_s": "examples/s",
    "predict_ms_p50": "ms",
    "predict_ms_p90": "ms",
    "cold_predict_ms": "ms",
    "peak_rss_mb": "MB",
}
MIN_ROUNDS = 2  # timed rounds after the warm-up one; the repeat checks compare them
MIN_WARM = 100  # p90 needs at least ten samples beyond it
SETUP_SHARE = 0.1  # set-up samples stop once they have used this share of a pass
# Gradient check: the step along each direction, and the agreement required.
# Central differences at this step agree with exact float64 gradients to
# about 1e-6 relative, down to about 1e-9 absolute (rounding in the loss).
GRAD_EPS = 1e-6
GRAD_RTOL = 1e-4
GRAD_ATOL = 1e-7


def import_program():
    """Import emosent from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "emosent" / "__init__.py").is_file():
        raise FileNotFoundError(f"no program sources under {src}")
    sys.path.insert(0, str(src))
    import emosent
    import emosent.cli  # noqa: F401  binds every module the tracer patches

    return emosent


@dataclass
class Checks:
    """Attempted operations and the failed ones, with what failed."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def _params_digest(params) -> str:
    return _digest(params[name].data for name in sorted(params))


def _probs_ok(probabilities) -> bool:
    return all(
        np.all(np.isfinite(p)) and np.all((p >= 0.0) & (p <= 1.0))
        for p in probabilities.values()
    )


def _quantile(values: list[float], q: int) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(len(ordered) * q / 100))]


class Runner:
    """One measured pass over a workload, traced or not.

    The pass runs rounds (see `Workload`) until its seconds are used; each
    metric is the median of its samples from every round.
    """

    def __init__(self, emosent, w: Workload, inputs: Inputs, seed: int, checks: Checks,
                 reference: Reference, tracer: Tracer | None = None):
        self.E, self.w, self.inputs, self.seed = emosent, w, inputs, seed
        self.checks, self.reference, self.tracer = checks, reference, tracer
        self.model_cfg = emosent.model.ModelConfig(
            mode=w.mode,
            embed_dim=w.embed_dim,
            lstm_hidden=w.lstm_hidden,
            context_dim=w.context_dim,
            dt_k=w.dt_k,
            dropout_rate=w.dropout,
        )
        self.train_cfg = emosent.train.TrainConfig(
            batch_size=w.batch_size, lr=w.lr, epochs=w.epochs, seed=seed
        )
        kinds = ("setup", "train", "evaluate", "cold", "warm")
        # Seconds per sample: as measured, and at the reference speed.
        self.pending: dict[str, list[float]] = {k: [] for k in kinds}
        self.raw: dict[str, list[float]] = {k: [] for k in kinds}
        self.samples: dict[str, list[float]] = {k: [] for k in kinds}
        self.reference_ms: list[float] = []
        self.train_runs: list[tuple[list[float], str]] = []
        self.reports: list[str] = []
        self.cold_digests: list[str] = []
        self.warm_digests: dict[int, str] = {}
        self.hashtags: list[int] = []
        self.requests = 0
        self.served = None
        # The first round fills caches and the allocator's pools; it is run
        # and checked but not timed.
        self.warming_up = True

    def _phase(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.phase = name

    def _span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def _timed(self, kind: str, op):
        with self._span("bench." + kind):
            t0 = time.perf_counter()
            result = op()
            self.pending[kind].append(time.perf_counter() - t0)
        return result

    def _block(self, sample, times: int = 1) -> None:
        """Take `times` samples, then scale them to the reference speed
        measured just before and just after them. Warm-up samples are
        dropped, except set-up, which is paid once."""
        for _ in range(times):
            sample()
        before, self.reference_point = self.reference_point, self.reference.calibrate()
        self.reference_ms.append(self.reference_point)
        factor = NOMINAL_MS / ((before + self.reference_point) / 2)
        for kind, values in self.pending.items():
            if kind == "setup" or not self.warming_up:
                self.raw[kind] += values
                self.samples[kind] += [v * factor for v in values]
            values.clear()

    # -- samples ---------------------------------------------------------------

    def load_resources(self) -> None:
        """Parse the resources up to init_parameters: the train workloads' set-up."""
        E, w, inp = self.E, self.w, self.inputs
        R = E.resources
        self.emb = R.load_embeddings(inp.embeddings, w.embed_dim, seed=self.seed)
        self.thesaurus = R.Thesaurus.from_file(inp.thesaurus)
        self.lexicon = E.preprocess.SegmentationLexicon.from_file(inp.lexicon)
        self.train_corpus = R.load_corpus(inp.train)
        self.test_corpus = R.load_corpus(inp.test)
        self.vocab = R.build_vocab(self.train_corpus, self.emb, self.thesaurus, w.dt_k)
        rows = R.vocab_embedding_rows(self.vocab, self.emb)
        self.train_set = R.encode_corpus(self.train_corpus, self.vocab, self.thesaurus, w.dt_k)
        self.test_set = R.encode_corpus(self.test_corpus, self.vocab, self.thesaurus, w.dt_k)
        self.params0 = E.model.init_parameters(self.model_cfg, embedding_rows=rows, seed=self.seed)

    def setup_sample(self) -> None:
        self._phase("setup")
        self._timed("setup", self.load_resources)

    def train_sample(self) -> None:
        self._phase("train")
        params, log = self._timed(
            "train",
            lambda: self.E.train.train(self.train_set, self.params0, self.train_cfg, self.model_cfg),
        )
        self.params = params
        self.train_runs.append((list(log), _params_digest(params)))

    def serve(self) -> None:
        """Save the trained model and load it as the served one (untimed)."""
        E = self.E
        self._phase("serve")
        self.checkpoint_path = self.inputs.directory / "checkpoint.bin"
        E.checkpoint.save_checkpoint(
            self.checkpoint_path, self.model_cfg, self.params, self.vocab,
            thesaurus=self.thesaurus, lexicon=self.lexicon, meta={"seed": self.seed},
        )
        self.served = E.checkpoint.load_checkpoint(self.checkpoint_path)
        self.checks.record(
            all(np.array_equal(self.served.params[n].data, self.params[n].data)
                for n in self.params),
            "checkpoint round-trip changed the parameters",
        )

    def evaluate_sample(self) -> None:
        E, served = self.E, self.served
        self._phase("evaluate")
        report = self._timed(
            "evaluate", lambda: E.train.evaluate(self.test_set, served.params, served.config)
        )
        self.reports.append(E.metrics.render_metrics(report))
        if report.sentiment is not None and len(self.reports) == 1:
            scored = sum(ex.sentiment in E.resources.SENTIMENTS for ex in self.test_set)
            counted = sum(sum(row) for row in report.sentiment.confusion)
            self.checks.record(counted == scored, "sentiment confusion does not cover the test rows")

    def classify(self, ckpt, text: str):
        """The predict path: normalize, encode and forward one raw tweet."""
        E = self.E
        tokens = E.preprocess.normalize(text, ckpt.lexicon)
        example = E.resources.encode_example(
            E.resources.Example(
                "request", tokens, E.resources.OTHER_SENTIMENT, (0,) * len(E.resources.EMOTIONS)
            ),
            ckpt.vocab,
            ckpt.thesaurus,
            ckpt.config.dt_k,
        )
        trace = E.model.forward(example, ckpt.params, ckpt.config)
        self.checks.record(_probs_ok(trace.probabilities), "probability outside [0, 1]")
        return tokens, trace.probabilities

    def cold_sample(self) -> None:
        E = self.E
        self._phase("predict")

        def cold():
            return self.classify(E.checkpoint.load_checkpoint(self.checkpoint_path),
                                 self.inputs.raw[0])

        _, probs = self._timed("cold", cold)
        self.cold_digests.append(_digest(probs[t] for t in sorted(probs)))

    def warm_sample(self) -> None:
        """One request of a closed loop with one client."""
        self._phase("predict")
        i = self.requests % len(self.inputs.raw)
        self.requests += 1
        tokens, probs = self._timed("warm", lambda: self.classify(self.served, self.inputs.raw[i]))
        digest = _digest(probs[t] for t in sorted(probs))
        if i in self.warm_digests:
            self.checks.record(digest == self.warm_digests[i],
                               f"prediction {i} differs between repeats")
        else:
            self.warm_digests[i] = digest
            self.hashtags.append(tokens.count("#"))

    def shared_example_check(self) -> None:
        """The evaluate path and the predict path agree on shared examples."""
        E, served = self.E, self.served
        self._phase("check")
        captured = []
        forward = E.train.forward

        def capture(*args, **kwargs):
            trace = forward(*args, **kwargs)
            captured.append(trace.probabilities)
            return trace

        shared = self.test_corpus.examples[:2]
        E.train.forward = capture
        try:
            E.train.evaluate(self.test_set[: len(shared)], served.params, served.config)
        finally:
            E.train.forward = forward
        for ex, evaluated in zip(shared, captured):
            tokens, predicted = self.classify(served, E.preprocess.join(ex.tokens))
            self.checks.record(tokens == ex.tokens, f"normalize changed test row {ex.id}")
            self.checks.record(
                predicted.keys() == evaluated.keys()
                and all(np.array_equal(predicted[t], evaluated[t]) for t in predicted),
                f"predict and evaluate disagree on {ex.id}",
            )

    # -- the pass --------------------------------------------------------------

    def run(self, seconds: float) -> dict[str, float]:
        start = time.perf_counter()
        w = self.w
        self.reference_point = self.reference.calibrate()
        rounds = 0
        round_s = 0.0
        while rounds < 1 + MIN_ROUNDS or time.perf_counter() + round_s <= start + seconds:
            t0 = time.perf_counter()
            if rounds == 0 or sum(self.raw["setup"]) < SETUP_SHARE * seconds:
                self._block(self.setup_sample)
            self._block(self.train_sample)
            if self.served is None:
                self.serve()
            self._block(self.evaluate_sample)
            self._block(self.cold_sample, w.cold)
            self._block(self.warm_sample, w.warm)
            round_s = time.perf_counter() - t0
            rounds += 1
            self.warming_up = False
        while len(self.samples["warm"]) < MIN_WARM:
            self._block(self.warm_sample, w.warm)
        self.shared_example_check()
        self._check_repeats()
        self._check_training()
        self._check_gradients()
        self.info = self._properties(rounds)
        self.raw_metrics = self._metrics(self.raw)
        return self._metrics(self.samples)

    def _check_repeats(self) -> None:
        first_log, first_digest = self.train_runs[0]
        self.checks.record(all(math.isfinite(x) for x in first_log), "train loss not finite")
        for log, digest in self.train_runs[1:]:
            self.checks.record(log == first_log, "train loss log differs between runs")
            self.checks.record(digest == first_digest, "trained parameters differ between runs")
        for text in self.reports[1:]:
            self.checks.record(text == self.reports[0], "evaluate results differ between runs")
        for digest in self.cold_digests:
            self.checks.record(digest == self.warm_digests[0], "cold and warm predictions differ")

    def _trainable(self) -> list:
        """The rows train() learns from: all but `other` in sentiment-only modes."""
        E = self.E
        sentiment_only = self.model_cfg.tasks == (E.model.TASK_SENTIMENT,)
        return [
            ex for ex in self.train_set
            if not (sentiment_only and ex.sentiment == E.resources.OTHER_SENTIMENT)
        ]

    def _train_loss(self, params) -> float:
        """Mean joint loss over the trainable rows, dropout off."""
        E, cfg = self.E, self.model_cfg
        rows = self._trainable()
        return sum(
            E.train.joint_loss(E.model.forward(ex, params, cfg), ex, cfg).item() for ex in rows
        ) / len(rows)

    def _check_training(self) -> None:
        """Training lowers the loss on its own rows (untimed)."""
        self._phase("check")
        self.loss_before = self._train_loss(self.params0)
        self.loss_after = self._train_loss(self.params)
        self.checks.record(math.isfinite(self.loss_after), "trained loss not finite")
        self.checks.record(self.loss_after < self.loss_before, "training did not lower the loss")

    def _check_gradients(self) -> None:
        """Tape gradients equal central differences (untimed).

        On the shortest trainable row, with a fixed dropout mask, each
        trainable parameter's gradient is dotted with a seeded Gaussian
        direction and compared with the loss's central difference along it;
        zeroed, skipped or wrong backward rules change that product.
        """
        E, cfg, params = self.E, self.model_cfg, self.params0
        self._phase("check")
        example = min(self._trainable(), key=lambda ex: len(ex.token_ids))

        def loss(p):
            trace = E.model.forward(example, p, cfg, train_mode=True,
                                    dropout_rng=np.random.default_rng(self.seed))
            return E.train.joint_loss(trace, example, cfg)

        names = E.model.trainable_names(params)
        with E.nd.Tape() as tape:
            value = loss(params)
        grads = tape.gradients(value, [params[n] for n in names])
        rng = np.random.default_rng([self.seed, 1])
        self.grad_errors = {}
        for name, grad in zip(names, grads):
            direction = rng.standard_normal(grad.shape)
            base = params[name].data
            plus, minus = (
                loss({**params, name: E.nd.Tensor(base + sign * GRAD_EPS * direction)}).item()
                for sign in (1.0, -1.0)
            )
            numeric = (plus - minus) / (2 * GRAD_EPS)
            exact = float(np.sum(grad * direction))
            self.grad_errors[name] = abs(exact - numeric) / max(abs(numeric), GRAD_ATOL)
            self.checks.record(
                abs(exact - numeric) <= GRAD_ATOL + GRAD_RTOL * abs(numeric),
                f"gradient of {name} disagrees with central differences",
            )

    def _metrics(self, samples: dict[str, list[float]]) -> dict[str, float]:
        warm_ms = [t * 1e3 for t in samples["warm"]]
        return {
            "setup_s": statistics.median(samples["setup"]),
            "train_examples_per_s": statistics.median(
                len(self._trainable()) * self.w.epochs / t for t in samples["train"]
            ),
            "train_loss_final": self.loss_after,
            "eval_examples_per_s": statistics.median(
                len(self.test_set) / t for t in samples["evaluate"]
            ),
            "predict_ms_p50": statistics.median(warm_ms),
            "predict_ms_p90": _quantile(warm_ms, 90),
            "cold_predict_ms": statistics.median(samples["cold"]) * 1e3,
        }

    def _properties(self, rounds: int) -> dict[str, object]:
        E = self.E
        examples = self.train_corpus.examples
        tokens = sum(len(ex.tokens) for ex in examples)
        warm_ms = [t * 1e3 for t in self.samples["warm"]]
        return {
            "rounds": rounds,
            "samples": {k: len(v) for k, v in self.samples.items()},
            "reference_ms": {
                "min": min(self.reference_ms),
                "median": statistics.median(self.reference_ms),
                "max": max(self.reference_ms),
            },
            "train_examples_per_run": len(self._trainable()) * self.w.epochs,
            "train_loss_before": self.loss_before,
            "gradient_check_max_rel_err": max(self.grad_errors.values()),
            "predict_beyond_p90": sum(m > _quantile(warm_ms, 90) for m in warm_ms),
            "tokens_per_example": tokens / len(examples),
            "tokens_with_candidates_share": sum(
                1 for ex in self.train_set for c in ex.candidate_ids if c
            ) / tokens,
            "other_share": sum(ex.sentiment == E.resources.OTHER_SENTIMENT for ex in examples)
            / len(examples),
            "embedding_lines_parsed": self.inputs.embedding_lines,
            "embedding_rows_kept": len(self.vocab),
            "hashtags_per_raw_tweet": sum(self.hashtags) / len(self.hashtags),
            "checkpoint_bytes": self.checkpoint_path.stat().st_size,
        }


def _commit() -> str | None:
    """The checked-out commit, or None outside a git work tree."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance() -> dict[str, object]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_pinned": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _commit(),
        "src_lines": sum(p.read_bytes().count(b"\n") for p in (ROOT / "src").rglob("*.py")),
    }


def measure(emosent, w: Workload, seed: int, seconds: float,
            trace: bool) -> tuple[dict, dict, Checks]:
    """Run the workload; returns (metrics, report, checks)."""
    checks = Checks()
    workdir = OUT / f"run-{os.getpid()}"
    try:
        inputs = generate(w, seed, workdir)
        budget = seconds / 2 if trace else seconds
        reference = Reference()
        plain = Runner(emosent, w, inputs, seed, checks, reference)
        e2e = plain.run(budget)
        e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        report = {"workload": w.name, "seed": seed, "seconds": seconds,
                  "properties": plain.info, "as_measured": plain.raw_metrics}
        if not trace:
            return e2e, report, checks
        tracer = Tracer()
        tracer.install(emosent)
        try:
            traced = Runner(emosent, w, inputs, seed, checks, reference, tracer).run(budget)
        finally:
            tracer.uninstall()
        tracer.write(OUT / f"spans-{w.name}.jsonl")
        layers = tracer.summary()
        checks.record(
            tracer.unattributed_entries == 0,
            f"{tracer.unattributed_entries} tape entries outside every layer span",
        )
        for phase, key, per_s in (("train", "train_examples_per_s", True),
                                  ("evaluate", "eval_examples_per_s", True),
                                  ("predict", "predict_ms_p50", False)):
            off, on = e2e[key], traced[key]
            layers[f"trace.overhead_ms_per_ex.{phase}"] = (1e3 / on - 1e3 / off) if per_s else on - off
        report.update(untraced=e2e, traced=traced)
        return layers, report, checks
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="emosent benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink the inputs to a seconds-long self-test")
    args = parser.parse_args(argv)
    # A terminated run still removes its generated inputs.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        emosent = import_program()
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    if args.smoke:
        w = w.smoke_sized()
    metrics, report, checks = measure(emosent, w, args.seed, args.seconds, bool(args.trace))
    units = PER_LAYER_UNITS if args.trace else E2E_UNITS
    for name, unit in units.items():
        print(f"{name:48s} {metrics[name]:>16.6f} {unit}")
    print(f"{'failed_share':48s} {checks.failed / checks.attempted:>16.6f} failed/attempted")
    report.update(provenance=provenance(), failures=checks.failures)
    print("report " + json.dumps(report, sort_keys=True, default=str))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
