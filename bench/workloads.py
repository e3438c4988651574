"""Workload specifications and the seeded input generator.

Every input the program sees is written here from the workload seed: the
embeddings, thesaurus, lexicon, train and test corpora, and raw tweets.
The seed decides the word strings, the Zipf draws, the vectors and so the
labels. The structural properties that set the cost of a run are fixed
per workload and do not depend on the seed, so the spread between seeds
is the machine's and not the data's:

- tweet lengths are an evenly spaced multiset over the length range;
- exactly one row in three is labelled `other`;
- every raw tweet holds exactly one token of each kind the predict path
  handles specially (see RAW_KINDS); the rest are Zipf-drawn words;
- every other Zipf rank has a thesaurus entry, so the share of tokens
  with candidates barely moves between seeds.

Labels follow the text: a row's sentiment and emotion bits are read off
its mean embedding along fixed seeded directions, so training on them
lowers the loss and a broken backward pass or optimizer shows.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

EMOTION_BITS = 8
# Share of 1 bits among the emotion labels of the corpora in tests/fixtures
# (30 of 160).
EMOTION_SHARE = 0.1875
# Word frequencies follow Zipf's law, frequency ~ 1 / rank (Zipf, "Human
# Behavior and the Principle of Least Effort", 1949; Piantadosi, "Zipf's
# word frequency law in natural language", Psychon. Bull. Rev. 2014).
ZIPF_EXPONENT = 1.0
CONTRACTIONS = ("we've", "don't", "can't", "it's", "i'm", "they're", "you'll", "won't")
# One token of each kind in every raw tweet: the fewest that gives every
# raw tweet each feature the predict path treats specially. These are not
# measured tweet rates; no such rates are known for this workload.
RAW_KINDS = (
    "camel_hashtag",
    "joined_hashtag",
    "mention",
    "url",
    "number",
    "contraction",
    "oov",
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mode: str
    embed_dim: int
    lstm_hidden: int
    context_dim: int
    dt_k: int
    dropout: float
    batch_size: int
    # Each train run makes `epochs` passes over its rows at learning rate
    # `lr`. At paper dims that lowers the loss by about a third, so broken
    # gradients or a broken optimizer move train_loss_final by more than
    # its bound. At small dims the four steps lower it by under 1%; more
    # would make the loss differ widely between seeds, so there the
    # gradient and loss-decrease checks in run.py catch broken training.
    epochs: int
    lr: float
    min_len: int
    max_len: int
    universe: int  # distinct corpus words, Zipf-ranked
    embedding_rows: int  # lines in the embeddings file
    # One measuring round runs, in order: a set-up sample (while set-up has
    # used less than its share of the run), one train run over the n_train
    # rows, one evaluate run over n_test examples, `cold` cold predicts
    # of the median-length raw tweet, and one warm request for each of the
    # `warm` raw tweets. Rounds repeat until the run's seconds are used, so
    # every metric samples the whole run and not one stretch of it, and
    # every round sees the same tweet lengths.
    n_train: int
    n_test: int
    cold: int
    warm: int

    def smoke_sized(self) -> "Workload":
        """A seconds-long version of the workload for the self-test."""
        return replace(
            self,
            embedding_rows=min(self.embedding_rows, 2_000),
            universe=min(self.universe, 300),
            n_train=min(self.n_train, 4),
            n_test=min(self.n_test, 4),
            cold=1,
            warm=min(self.warm, 10),
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train-paper-m2",
            why=(
                "paper configuration M2 at 300/300/150: BLAS-bound backward pass, large "
                "Adam state, word attention and both heads on, set-up parsing 20k "
                "embedding rows, cold and warm predict on a 17 MB checkpoint"
            ),
            mode="M2",
            embed_dim=300,
            lstm_hidden=300,
            context_dim=150,
            dt_k=4,
            dropout=0.6,
            batch_size=16,
            epochs=1,
            lr=0.005,
            min_len=8,
            max_len=30,
            universe=1_500,
            embedding_rows=20_000,
            n_train=32,
            n_test=48,
            cold=3,
            warm=60,
        ),
        Workload(
            name="train-small-s1-long",
            why=(
                "S1 at fixture dims 16/8/4 on 30-60 token tweets: tiny ops, so time "
                "goes to per-op overhead; word attention and the emotion head are off"
            ),
            mode="S1",
            embed_dim=16,
            lstm_hidden=8,
            context_dim=4,
            dt_k=4,
            dropout=0.6,
            batch_size=16,
            epochs=2,
            lr=0.05,
            min_len=30,
            max_len=60,
            universe=800,
            embedding_rows=2_000,
            n_train=48,
            n_test=32,
            cold=10,
            warm=15,
        ),
    )
}


def _word_strings(rng: np.random.Generator, count: int) -> list[str]:
    """Distinct lowercase pronounceable words of two to four syllables."""
    onsets = list("bdfghjklmnprstvz") + ["ch", "sh", "th", "br", "st", "pl"]
    vowels = ["a", "e", "i", "o", "u", "ai", "ou", "ee"]
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < count:
        n = int(rng.integers(2, 5))
        word = "".join(
            onsets[rng.integers(len(onsets))] + vowels[rng.integers(len(vowels))]
            for _ in range(n)
        )
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def _lengths(w: Workload, count: int, rng: np.random.Generator) -> list[int]:
    """An evenly spaced multiset over [min_len, max_len], in seeded order."""
    lengths = np.round(np.linspace(w.min_len, w.max_len, count)).astype(int)
    return [int(n) for n in rng.permutation(lengths)]


def _sentiments(scores: np.ndarray, rng: np.random.Generator) -> list[str]:
    """Exactly a third `other`; of the rest, the higher-scoring half is
    positive and the other half negative."""
    count = len(scores)
    other = set(rng.permutation(count)[: count // 3].tolist())
    rated = sorted((i for i in range(count) if i not in other), key=lambda i: scores[i])
    labels = ["other"] * count
    for rank, i in enumerate(rated):
        labels[i] = "positive" if 2 * rank >= len(rated) else "negative"
    return labels


def _emotions(scores: np.ndarray) -> np.ndarray:
    """Per emotion, the EMOTION_SHARE of rows that score highest get a 1."""
    ones = int(round(EMOTION_SHARE * len(scores)))
    bits = np.zeros(scores.shape, dtype=int)
    for j in range(scores.shape[1]):
        bits[np.argsort(-scores[:, j], kind="stable")[:ones], j] = 1
    return bits


@dataclass
class Inputs:
    """Paths of the generated files plus what the generator knows of them."""

    directory: Path
    embeddings: Path
    thesaurus: Path
    lexicon: Path
    train: Path
    test: Path
    raw: list[str]  # raw[0] has the median length
    embedding_lines: int


def generate(w: Workload, seed: int, directory: Path) -> Inputs:
    """Write the workload's input files for `seed` into `directory`."""
    rng = np.random.default_rng([seed, 0x656D6F])
    directory.mkdir(parents=True, exist_ok=True)
    filler = max(w.embedding_rows - w.universe, 0)
    strings = _word_strings(rng, w.universe + filler + w.warm)
    universe = strings[: w.universe]
    embedded = strings[: w.universe + filler]
    oov = strings[w.universe + filler :]  # in no resource file
    zipf = 1.0 / np.arange(1, w.universe + 1) ** ZIPF_EXPONENT
    zipf /= zipf.sum()

    # Embeddings: word2vec text with a count/dim header.
    vectors = rng.normal(0.0, 0.3, size=(len(embedded), w.embed_dim))
    row_fmt = " ".join(["%.5f"] * w.embed_dim)
    with open(directory / "vectors.txt", "w", encoding="utf-8") as fh:
        fh.write(f"{len(embedded)} {w.embed_dim}\n")
        for i in rng.permutation(len(embedded)):
            fh.write(embedded[i] + " " + row_fmt % tuple(vectors[i]) + "\n")

    # Thesaurus: every other Zipf rank lists dt_k candidates, the most that
    # expansion reads, drawn from all embedded words, so candidates reach
    # well beyond the corpus vocabulary.
    with open(directory / "thesaurus.tsv", "w", encoding="utf-8") as fh:
        for r in range(0, w.universe, 2):
            picks = rng.choice(len(embedded), size=w.dt_k + 1, replace=False)
            cands = [embedded[p] for p in picks if p != r][: w.dt_k]
            fh.write(universe[r] + "\t" + ",".join(cands) + "\n")

    # Lexicon: Zipf counts so hashtag bodies made of lexicon words segment.
    with open(directory / "lexicon.txt", "w", encoding="utf-8") as fh:
        for r, word in enumerate(universe):
            fh.write(f"{word}\t{int(1_000_000 * zipf[r]) + 1}\n")

    # Directions in embedding space that the labels are read along.
    axes = rng.normal(size=(w.embed_dim, 1 + EMOTION_BITS))

    def corpus(path: Path, prefix: str, count: int) -> None:
        rows = [
            [universe[r] for r in rng.choice(w.universe, size=n, p=zipf)]
            for n in _lengths(w, count, rng)
        ]
        index = {word: i for i, word in enumerate(universe)}
        means = np.array([vectors[[index[t] for t in row]].mean(axis=0) for row in rows])
        scores = means @ axes
        sentiments = _sentiments(scores[:, 0], rng)
        emotions = _emotions(scores[:, 1:])
        with open(path, "w", encoding="utf-8") as fh:
            for i, row in enumerate(rows):
                bits = " ".join(str(b) for b in emotions[i])
                fh.write(f"{prefix}{i}\t{' '.join(row)}\t{sentiments[i]}\t{bits}\n")

    corpus(directory / "train.tsv", "tr", w.n_train)
    corpus(directory / "test.tsv", "te", w.n_test)

    def word() -> str:
        return universe[rng.choice(w.universe, p=zipf)]

    def part(kind: str, i: int) -> str:
        if kind == "camel_hashtag":
            return "#" + word().capitalize() + word().capitalize()
        if kind == "joined_hashtag":
            return "#" + word() + word()
        if kind == "mention":
            return f"@{word()}{rng.integers(100)}"
        if kind == "url":
            return f"https://t.co/{word()[:4]}{rng.integers(1000)}"
        if kind == "number":
            return str(rng.integers(2000))
        if kind == "contraction":
            return CONTRACTIONS[rng.integers(len(CONTRACTIONS))]
        if kind == "oov":
            return oov[i]
        return word()

    def tweet(n: int, i: int) -> str:
        kinds = list(RAW_KINDS) + ["word"] * max(n - len(RAW_KINDS), 0)
        return " ".join(part(kinds[j], i) for j in rng.permutation(len(kinds)))

    lengths = _lengths(w, w.warm, rng)
    lengths.remove(median := sorted(lengths)[len(lengths) // 2])
    raw = [tweet(n, i) for i, n in enumerate([median] + lengths)]
    (directory / "raw.txt").write_text("\n".join(raw) + "\n", encoding="utf-8")
    return Inputs(
        directory,
        directory / "vectors.txt",
        directory / "thesaurus.tsv",
        directory / "lexicon.txt",
        directory / "train.tsv",
        directory / "test.tsv",
        raw,
        len(embedded),
    )
