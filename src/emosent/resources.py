"""External inputs: pretrained embeddings, thesaurus expansions, corpora.

File formats (all UTF-8):
  embeddings  word2vec text, `word v1 .. v_dim` per line, single spaces,
              optional `count dim` header line; the first line of a word
              wins. Parsed in blocks by numpy's C text reader, with values
              equal to `float()`'s; an error names the first bad line;
  thesaurus   `word<TAB>cand1,cand2,...` with candidates ranked most-similar
              first;
  corpus      `id<TAB>text<TAB>sentiment<TAB>b1 b2 .. b8` with the text column
              holding space-joined normalized tokens, '#' lines are comments.

The eight emotion bits follow the fixed order in EMOTIONS; sentiment is one
of negative/positive/other. The sentiment classifier itself is binary:
"other" rows train only the emotion head and are skipped entirely by
single-task sentiment training and sentiment metrics.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .rng import stage_rng, truncated_normal

PAD = "<pad>"
OOV = "<oov>"
SPECIALS = (PAD, OOV, "<user>", "<number>", "<url>")

SENTIMENTS = ("negative", "positive")
OTHER_SENTIMENT = "other"
EMOTIONS = (
    "anger",
    "anticipation",
    "disgust",
    "fear",
    "joy",
    "sadness",
    "surprise",
    "trust",
)
# Embedding lines per np.loadtxt call.
CHUNK_ROWS = 4096


class ResourceFormatError(ValueError):
    """A resource file violates its documented format."""


class CorpusIntegrityError(ValueError):
    """A corpus is internally inconsistent (e.g. duplicate ids)."""


@dataclass
class EmbeddingMatrix:
    dim: int
    index: dict[str, int]
    matrix: np.ndarray

    def __contains__(self, word: str) -> bool:
        return word in self.index

    def row_id(self, word: str) -> int:
        idx = self.index.get(word)
        return self.index[OOV] if idx is None else idx

    def lookup(self, word: str) -> np.ndarray:
        return self.matrix[self.row_id(word)]


def load_embeddings(path, expected_dim: int, seed: int = 0) -> EmbeddingMatrix:
    """Parse word2vec text vectors and attach the special rows.

    The first occurrence of a word is kept; later ones are still parsed, so
    a malformed repeat is an error too. Values are parsed in blocks of
    CHUNK_ROWS lines by numpy's C text reader; a block it rejects is parsed
    again line by line with `float()`, which names the first bad line and
    accepts the spellings numpy refuses (`1_0`, non-ASCII digits). Both
    round correctly, so every value is the double `float()` gives.

    <pad> is all zeros and <oov> is a seeded truncated-normal draw, both
    regardless of file contents; placeholder rows (<user>, <number>, <url>)
    are taken from the file when present, otherwise drawn the same way.
    """
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    start = 0
    if lines:
        head = lines[0].split()
        if len(head) == 2 and all(p.lstrip("-").isdigit() for p in head):
            start = 1
    entries: list[tuple[int, str]] = []  # (line number, text) of each vector line
    targets: list[int] = []  # its matrix row, -1 for a repeated word
    index: dict[str, int] = {}
    first_lines: list[int] = []  # line number of each kept row
    for lineno, line in enumerate(lines[start:], start=start + 1):
        if not line.strip():
            continue
        line = line.rstrip()
        word = line.split(" ", 1)[0]
        entries.append((lineno, line))
        if word in index:
            targets.append(-1)
        else:
            index[word] = len(first_lines)
            targets.append(len(first_lines))
            first_lines.append(lineno)
    if not entries:
        raise ResourceFormatError(f"{path}: no embedding vectors found")
    appended = [s for s in SPECIALS if s not in index]
    for special in appended:
        index[special] = len(index)
    # A negative dim must fail on the first line below, not here.
    matrix = np.zeros((len(index), max(expected_dim, 0)))
    targets_arr = np.array(targets, dtype=np.intp)
    for lo in range(0, len(entries), CHUNK_ROWS):
        values = _parse_block(path, entries[lo : lo + CHUNK_ROWS], expected_dim)
        rows = targets_arr[lo : lo + CHUNK_ROWS]
        kept = rows >= 0
        matrix[rows[kept]] = values[kept]
    bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
    if bad.size:  # one check here: a check per parsed row slows loading
        word = list(index)[bad[0]]
        raise ResourceFormatError(
            f"{path}: line {first_lines[bad[0]]}: non-finite value for {word!r}"
        )
    matrix[index[PAD]] = 0.0
    matrix[index[OOV]] = truncated_normal(stage_rng(seed, "embeddings/<oov>"), expected_dim)
    for special in SPECIALS[2:]:
        if special in appended:
            matrix[index[special]] = truncated_normal(
                stage_rng(seed, f"embeddings/{special}"), expected_dim
            )
    return EmbeddingMatrix(expected_dim, index, matrix)


def _parse_block(path, block: list[tuple[int, str]], dim: int) -> np.ndarray:
    """Values [len(block), dim] of (line number, rstripped line) pairs."""
    text = [line for _, line in block]
    if all(line.count(" ") == dim for line in text):
        try:
            return np.loadtxt(
                text,
                dtype=np.float64,
                delimiter=" ",
                usecols=range(1, dim + 1),
                comments=None,
                ndmin=2,
            )
        except ValueError:
            pass  # parsed again below, line by line
    return np.array(
        [_parse_row(path, lineno, line, dim) for lineno, line in block], dtype=np.float64
    ).reshape(len(block), dim)


def _parse_row(path, lineno: int, line: str, dim: int) -> list[float]:
    """One vector line's values, or the error that names the line."""
    parts = line.split(" ")
    word, values = parts[0], parts[1:]
    if len(values) != dim:
        raise ResourceFormatError(
            f"{path}: line {lineno}: expected {dim} values for {word!r}, got {len(values)}"
        )
    try:
        return [float(v) for v in values]
    except ValueError:
        raise ResourceFormatError(
            f"{path}: line {lineno}: non-numeric value for {word!r}"
        ) from None


class Thesaurus:
    """Ranked similar-word lists keyed by headword."""

    def __init__(self, entries: Mapping[str, Sequence[str]]):
        """Each headword keeps its candidates once, in rank order, without
        blanks or itself. Candidates that are not a list of strings raise
        TypeError naming their headword."""
        self.entries: dict[str, list[str]] = {}
        for word, candidates in entries.items():
            if not isinstance(candidates, (list, tuple)) or not all(
                isinstance(c, str) for c in candidates
            ):
                raise TypeError(f"candidates of {word!r} are not a list of words: {candidates!r}")
            self.entries[word] = [c for c in dict.fromkeys(candidates) if c and c != word]

    @classmethod
    def from_file(cls, path) -> "Thesaurus":
        path = Path(path)
        entries: dict[str, list[str]] = {}
        for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ResourceFormatError(
                    f"{path}: line {lineno}: expected 'word<TAB>candidates'"
                )
            word, cands = parts
            entries[word] = [c.strip() for c in cands.split(",") if c.strip()]
        return cls(entries)

    def expand(self, word: str, k: int = 4) -> list[str]:
        """Top-k candidates for a word, most similar first; absent → empty."""
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        return list(self.entries.get(word, ())[:k])


@dataclass
class Example:
    id: str
    tokens: list[str]
    sentiment: str
    emotions: tuple[int, ...]


@dataclass
class Corpus:
    split: str
    examples: list[Example] = field(default_factory=list)


def load_corpus(path) -> Corpus:
    """Parse a corpus TSV; every malformed row is reported with its line."""
    path = Path(path)
    examples: list[Example] = []
    seen_ids: set[str] = set()
    for lineno, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise ResourceFormatError(
                f"{path}: line {lineno}: expected 4 tab-separated fields, got {len(parts)}"
            )
        ex_id, text, sentiment, bits_field = parts
        if sentiment not in SENTIMENTS and sentiment != OTHER_SENTIMENT:
            raise ResourceFormatError(
                f"{path}: line {lineno}: unknown sentiment label {sentiment!r}"
            )
        bits = bits_field.split()
        if len(bits) != len(EMOTIONS) or any(b not in ("0", "1") for b in bits):
            raise ResourceFormatError(
                f"{path}: line {lineno}: expected {len(EMOTIONS)} emotion bits of 0/1"
            )
        if ex_id in seen_ids:
            raise CorpusIntegrityError(f"{path}: line {lineno}: duplicate id {ex_id!r}")
        seen_ids.add(ex_id)
        examples.append(Example(ex_id, text.split(), sentiment, tuple(int(b) for b in bits)))
    return Corpus(path.stem, examples)


@dataclass
class Vocabulary:
    words: list[str]
    index: dict[str, int]

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self.index

    def id_of(self, word: str) -> int:
        return self.index.get(word, self.index[OOV])


def build_vocab(
    corpus: Corpus,
    embeddings: EmbeddingMatrix,
    thesaurus: Thesaurus | None = None,
    dt_k: int = 4,
) -> Vocabulary:
    """Corpus tokens plus their thesaurus candidates, kept when embedded.

    Candidates enter the vocabulary even when no training text contains
    them; a covered candidate of a seen word is how unseen test words get
    a meaningful vector. Tokens without an embedding stay out and resolve
    to <oov> at encode time.
    """
    covered: set[str] = set()
    for ex in corpus.examples:
        for token in ex.tokens:
            if token in embeddings and token not in SPECIALS:
                covered.add(token)
            if thesaurus is not None:
                for cand in thesaurus.expand(token, dt_k):
                    if cand in embeddings and cand not in SPECIALS:
                        covered.add(cand)
    words = list(SPECIALS) + sorted(covered)
    return Vocabulary(words, {w: i for i, w in enumerate(words)})


def vocab_embedding_rows(vocab: Vocabulary, embeddings: EmbeddingMatrix) -> np.ndarray:
    """Embedding matrix reordered to vocabulary ids."""
    return embeddings.matrix[[embeddings.row_id(w) for w in vocab.words]]


@dataclass
class EncodedExample:
    id: str
    token_ids: list[int]
    candidate_ids: list[list[int]]
    sentiment: str
    emotions: np.ndarray


def encode_example(
    example: Example,
    vocab: Vocabulary,
    thesaurus: Thesaurus | None = None,
    dt_k: int = 4,
) -> EncodedExample:
    """Token and candidate ids for one example.

    Candidates survive only if they are real vocabulary entries; an <oov>
    candidate would mix a meaningless vector into the word attention.
    """
    token_ids = [vocab.id_of(t) for t in example.tokens]
    candidate_ids: list[list[int]] = []
    for token in example.tokens:
        if thesaurus is None:
            candidate_ids.append([])
        else:
            candidate_ids.append(
                [vocab.index[c] for c in thesaurus.expand(token, dt_k) if c in vocab.index]
            )
    return EncodedExample(
        example.id,
        token_ids,
        candidate_ids,
        example.sentiment,
        np.array(example.emotions, dtype=np.float64),
    )


def encode_corpus(
    corpus: Corpus,
    vocab: Vocabulary,
    thesaurus: Thesaurus | None = None,
    dt_k: int = 4,
) -> list[EncodedExample]:
    return [encode_example(ex, vocab, thesaurus, dt_k) for ex in corpus.examples]
