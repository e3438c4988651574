"""External inputs: pretrained embeddings, thesaurus expansions, corpora.

File formats (all UTF-8):
  embeddings  word2vec text, `word v1 .. v_dim` per line, single spaces,
              optional `count dim` header line; the first line of a word
              wins. The file is mapped for the load, scanned in blocks of
              about SCAN_BYTES and unmapped; the matrix keeps each kept
              line's span and reads the lines it parses back from the
              file. Its lines are `str.splitlines`'s. Every line's value
              count is checked at load; values are parsed only for the
              rows a run uses, equal to `float()`'s, so a non-numeric or
              non-finite value on a line no run uses passes. An error
              names the first bad line;
  thesaurus   `word<TAB>cand1,cand2,...` with candidates ranked most-similar
              first; a run without one expands as with an empty one;
  corpus      `id<TAB>text<TAB>sentiment<TAB>b1 b2 .. b8` with the text column
              holding space-joined normalized tokens, '#' lines are comments.

The eight emotion bits follow the fixed order in EMOTIONS; sentiment is one
of negative/positive/other. The sentiment classifier itself is binary:
"other" rows train only the emotion head and are skipped entirely by
single-task sentiment training and sentiment metrics.
"""
from __future__ import annotations

import mmap
import os
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .artifacts import not_utf8, open_regular, read_text
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
# Bytes per block of the embeddings scan, which runs on to the next newline.
# A block's masks take a byte per byte of it, 256 KiB here: they stay in a
# core's L2 cache, and the scan's memory does not grow with the file.
SCAN_BYTES = 1 << 18
# Lines `EmbeddingMatrix.rows` reads that are fewer bytes apart share one read.
# A read from the page cache costs about as much as copying 16 KiB, so a
# shorter gap is cheaper to read through than to skip.
READ_GAP = 1 << 14


class ResourceFormatError(ValueError):
    """A resource file violates its documented format."""


class CorpusIntegrityError(ValueError):
    """A corpus is internally inconsistent (e.g. duplicate ids)."""


@dataclass
class EmbeddingMatrix:
    """Word vectors indexed at load, parsed on demand: `spans` [n, 3] holds
    each file row's line number and its start and end byte offsets in the
    file, rstripped; `identity` the file's (st_dev, st_ino, st_size,
    st_mtime_ns) when it was indexed; `built` the rows made at load."""

    path: Path
    dim: int
    index: dict[str, int]
    spans: np.ndarray
    identity: tuple[int, int, int, int]
    built: dict[int, np.ndarray]

    def __contains__(self, word: str) -> bool:
        return word in self.index

    def rows(self, words: Sequence[str]) -> np.ndarray:
        """Vectors [len(words), dim] of `words`; a word without a row gets <oov>'s.
        Only their lines are read from the file, decoded and parsed, in file
        order and CHUNK_ROWS blocks, so an error names the first non-numeric
        line among them, else the first non-finite one. A file that is not
        the one indexed (rewritten, or another renamed over it) is an error."""
        oov = self.index[OOV]
        ids = [self.index.get(w, oov) for w in words]
        parsed = sorted(set(ids).difference(self.built))
        values = np.empty((len(parsed), self.dim))
        non_finite = None
        with open_regular(self.path) as fh:
            if _identity(os.fstat(fh.fileno())) != self.identity:
                raise self._changed()
            for lo in range(0, len(parsed), CHUNK_ROWS):
                spans = self.spans.take(parsed[lo : lo + CHUNK_ROWS], axis=0)
                lines = self._read_lines(fh.fileno(), spans)
                chunk = values[lo : lo + len(lines)] = _parse_block(
                    self.path, spans[:, 0], lines, self.dim
                )
                bad = np.flatnonzero(~np.isfinite(chunk).all(axis=1))
                if bad.size and non_finite is None:
                    non_finite = spans[bad[0], 0], lines[bad[0]]
        if non_finite is not None:
            lineno, line = non_finite
            word = line.split(" ", 1)[0]
            raise ResourceFormatError(f"{self.path}: line {lineno}: non-finite value for {word!r}")
        table = {**self.built, **dict(zip(parsed, values))}
        return np.array([table[i] for i in ids], dtype=np.float64).reshape(len(ids), self.dim)

    def _read_lines(self, fd: int, spans: np.ndarray) -> list[str]:
        """Text of the line at each of `spans`, in file order, read with one
        `os.pread` per run of spans less than READ_GAP bytes apart."""
        starts, ends = spans[:, 1:].T.tolist()
        cut = (np.flatnonzero(spans[1:, 1] - spans[:-1, 2] >= READ_GAP) + 1).tolist()
        lines = []
        for a, b in zip([0, *cut], [*cut, len(starts)]):
            at, size = starts[a], ends[b - 1] - starts[a]
            data = os.pread(fd, size, at)
            if len(data) < size:
                raise self._changed()
            lines += [data[lo - at : hi - at].decode() for lo, hi in zip(starts[a:b], ends[a:b])]
        return lines

    def _changed(self) -> ResourceFormatError:
        return ResourceFormatError(f"{self.path}: changed since it was indexed")


def load_embeddings(path, expected_dim: int, seed: int = 0) -> EmbeddingMatrix:
    """Index word2vec text vectors and attach the special rows.

    Every vector line must hold `expected_dim` values; the first line that
    does not is an error naming it, a repeated word's line included. The
    first occurrence of a word is kept, and no value is parsed here:
    `EmbeddingMatrix.rows` parses the rows a run asks for, so a bad value
    on a line no run uses (an unused or repeated word) is never read.

    The file is mapped read-only for the load and unmapped before it
    returns; no copy of its bytes is kept. It is checked to be UTF-8 before
    any line is read. `_scan` then settles most lines from byte counts, a
    block at a time; the rest go through `_index_lines`, the rule on decoded
    text that defines line numbers, words, spans and errors.

    <pad> is all zeros and <oov> is a seeded truncated-normal draw, both
    regardless of file contents; placeholder rows (<user>, <number>, <url>)
    are taken from the file when present, otherwise drawn the same way.
    """
    path = Path(path)
    index: dict[str, int] = {}
    spans = np.empty((0, 3), dtype=np.int64)
    with open_regular(path) as fh:
        identity = _identity(os.fstat(fh.fileno()))
        # mmap refuses an empty file, which holds no vectors anyway.
        if identity[2]:
            with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as data:
                spans = _index_file(path, expected_dim, data, index)
    if not spans.size:
        raise ResourceFormatError(f"{path}: no embedding vectors found")
    drawn = [s for s in SPECIALS[2:] if s not in index]
    for special in SPECIALS:
        index.setdefault(special, len(index))
    built = {index[PAD]: np.zeros(expected_dim)}
    for special in (OOV, *drawn):
        built[index[special]] = truncated_normal(
            stage_rng(seed, f"embeddings/{special}"), expected_dim
        )
    return EmbeddingMatrix(path, expected_dim, index, spans, identity, built)


def _identity(info: os.stat_result) -> tuple[int, int, int, int]:
    return info.st_dev, info.st_ino, info.st_size, info.st_mtime_ns


def _index_file(path, dim: int, data: mmap.mmap, index: dict[str, int]) -> np.ndarray:
    """Index the lines of the mapped file `data` into `index`, word to row,
    and return the rows' (line number, start, end) spans [n, 3]."""
    ascii_only = bool(np.frombuffer(data, np.uint8).max(initial=0) < 0x80)
    if not ascii_only:
        # A quarter block at a time: decoded text takes up to 4 bytes a byte.
        for lo, hi in _blocks(data, (SCAN_BYTES + 3) // 4):
            try:
                str(data[lo:hi], "utf-8")
            except UnicodeDecodeError as exc:
                raise not_utf8(path, exc, lo) from None
    chunks = []
    lineno = 0
    for lo, hi in _blocks(data, SCAN_BYTES):
        spans = linenos, starts, ends = [], [], []
        for at, end, count, settled in zip(*_scan(data, lo, hi, ascii_only)):
            if not settled or count != dim:
                lineno = _index_lines(path, dim, data, at, end, lineno, index, spans)
                continue
            lineno += 1
            cut = data.find(b" ", at, end)
            word = data[at : cut if cut >= 0 else end].decode()
            if word not in index:
                index[word] = len(index)
                linenos.append(lineno)
                starts.append(at)
                ends.append(end)
        chunks.append(np.array(spans, dtype=np.int64))
    return np.concatenate(chunks, axis=1).T


def _blocks(data: mmap.mmap, size: int):
    """(start, end) of consecutive blocks of `data`, each of at least `size`
    bytes and ending after a newline, except the last."""
    lo = 0
    while lo < len(data):
        hi = data.find(b"\n", lo + size - 1) + 1 or len(data)
        yield lo, hi
        lo = hi


def _scan(data: mmap.mmap, lo: int, hi: int, ascii_only: bool):
    """Lists of the start, end, count of 0x20 bytes and settledness of each
    newline-ended line of data[lo:hi]; the end is the offset of its newline,
    or `hi` for an unterminated last line.

    A line is settled when its bytes give what `_index_lines` would: it is
    not the file's first (the header rule), it ends in a byte from 0x21 to
    0x7f (so nothing is stripped: not empty, no CR, no trailing space or
    non-ASCII whitespace) and it holds no other `str.splitlines` break:
    no byte below 0x20 but its newline, no U+0085, U+2028 or U+2029. Then
    its word runs to its first 0x20 byte. Each check is a pass over the
    block's bytes: control bytes are found with the newlines, and U+0085,
    U+2028 and U+2029 are looked for only in a file that is not all ASCII.
    """
    arr = np.frombuffer(data, np.uint8, hi - lo, lo)
    low = np.flatnonzero(arr < 0x20)
    newline = arr[low] == 10
    ends = low[newline]
    if not ends.size or ends[-1] != arr.size - 1:
        ends = np.append(ends, arr.size)
    starts = np.concatenate(([0], ends[:-1] + 1))
    # Spaces are summed in uint8 over pieces of at most 255 bytes of a line,
    # which is exact and needs no wider copy of the block's mask, then per line.
    pieces = np.maximum((ends - starts + 254) // 255, 1)
    first = np.cumsum(pieces) - pieces
    cuts = np.repeat(starts - 255 * first, pieces) + 255 * np.arange(pieces.sum())
    part = np.add.reduceat((arr == 0x20).view(np.uint8), cuts, dtype=np.uint8)
    counts = np.add.reduceat(part, first, dtype=np.int64)
    last = arr[ends - 1]
    settled = (ends > starts) & (last > 0x20) & (last < 0x80)
    if lo == 0:
        settled[0] = False
    breaks = [low[~newline]]
    if not ascii_only:
        # The last byte of each break's UTF-8 form; its lead byte is in the
        # block too, since a block starts a line.
        high = np.flatnonzero(arr >= 0x80)
        c = high[np.isin(arr[high], (0x85, 0xA8, 0xA9))]
        u0085 = (arr[c] == 0x85) & (arr[c - 1] == 0xC2)
        u2028 = (arr[c] != 0x85) & (arr[c - 1] == 0x80) & (arr[c - 2] == 0xE2)
        breaks.append(c[u0085 | u2028])
    for at in breaks:
        settled[np.searchsorted(ends, at)] = False
    return (starts + lo).tolist(), (ends + lo).tolist(), counts.tolist(), settled.tolist()


def _index_lines(path, dim, data, at, end, lineno, index, spans) -> int:
    """Index the text lines in the newline-ended line at data[at:end] (its
    newline at `end`, or none at the file's end) that follow line `lineno`,
    and return the number of the last.

    The rule on each line: a first line of two integers is a header; a
    blank line is skipped; otherwise the line, rstripped, must hold `dim`
    spaces, its word runs to the first, and a word's first line is kept:
    its number, start and end go to the three lists of `spans`.
    """
    for text in data[at : end + 1].decode().splitlines(keepends=True):
        lineno += 1
        line = text.rstrip()
        if line and not (lineno == 1 and _is_header(line)):
            word = line.split(" ", 1)[0]
            if line.count(" ") != dim:
                raise ResourceFormatError(
                    f"{path}: line {lineno}: expected {dim} values for {word!r}, "
                    f"got {line.count(' ')}"
                )
            if word not in index:
                index[word] = len(index)
                for column, value in zip(spans, (lineno, at, at + _utf8_len(line))):
                    column.append(value)
        at += _utf8_len(text)
    return lineno


def _is_header(line: str) -> bool:
    """A `count dim` line: two integers."""
    head = line.split()
    return len(head) == 2 and all(p.lstrip("-").isdigit() for p in head)


def _utf8_len(text: str) -> int:
    return len(text) if text.isascii() else len(text.encode())


def _parse_block(path, linenos: np.ndarray, lines: list[str], dim: int) -> np.ndarray:
    """Values [len(lines), dim] of rstripped `lines`, numbered `linenos`,
    each holding `dim` single-space-separated values after its word.

    numpy's C text reader parses the block; a block it rejects is parsed
    again line by line with `float()`, which names the first bad line and
    accepts the spellings numpy refuses (`1_0`, non-ASCII digits). Both
    round correctly, so every value is the double `float()` gives.
    """
    try:
        return np.loadtxt(
            lines,
            dtype=np.float64,
            delimiter=" ",
            usecols=range(1, dim + 1),
            comments=None,
            ndmin=2,
        )
    except ValueError:
        pass  # parsed again below, line by line
    return np.array(
        [_parse_row(path, lineno, line) for lineno, line in zip(linenos.tolist(), lines)],
        dtype=np.float64,
    ).reshape(len(lines), dim)


def _parse_row(path, lineno: int, line: str) -> list[float]:
    """One vector line's values, or the error that names the line."""
    word, *values = line.split(" ")
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
        # Two C-level passes check the types; only a failed one looks for
        # the headword to name.
        lists = entries.values()
        if not (
            all(issubclass(t, (list, tuple)) for t in set(map(type, lists)))
            and all(issubclass(t, str) for t in set(map(type, chain.from_iterable(lists))))
        ):
            for word, candidates in entries.items():
                if not isinstance(candidates, (list, tuple)) or not all(
                    isinstance(c, str) for c in candidates
                ):
                    raise TypeError(
                        f"candidates of {word!r} are not a list of words: {candidates!r}"
                    )
        self.entries: dict[str, list[str]] = {}
        for word, candidates in entries.items():
            kept = dict.fromkeys(candidates)
            kept.pop(word, None)
            kept.pop("", None)
            self.entries[word] = list(kept)

    @classmethod
    def from_file(cls, path) -> "Thesaurus":
        path = Path(path)
        entries: dict[str, list[str]] = {}
        for lineno, line in enumerate(read_text(path).splitlines(), start=1):
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ResourceFormatError(
                    f"{path}: line {lineno}: expected 'word<TAB>candidates'"
                )
            word, cands = parts
            if word in entries:
                raise ResourceFormatError(f"{path}: line {lineno}: repeated headword {word!r}")
            entries[word] = [c.strip() for c in cands.split(",") if c.strip()]
        return cls(entries)

    def expand(self, word: str, k: int) -> list[str]:
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
    examples: list[Example] = field(default_factory=list)


def load_corpus(path) -> Corpus:
    """Parse a corpus TSV; every malformed row is reported with its line."""
    path = Path(path)
    examples: list[Example] = []
    seen_ids: set[str] = set()
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
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
    return Corpus(examples)


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
    corpus: Corpus, embeddings: EmbeddingMatrix, thesaurus: Thesaurus, dt_k: int
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
            for cand in thesaurus.expand(token, dt_k):
                if cand in embeddings and cand not in SPECIALS:
                    covered.add(cand)
    words = list(SPECIALS) + sorted(covered)
    return Vocabulary(words, {w: i for i, w in enumerate(words)})


def vocab_embedding_rows(vocab: Vocabulary, embeddings: EmbeddingMatrix) -> np.ndarray:
    """Embedding rows in vocabulary id order; only these rows are parsed."""
    return embeddings.rows(vocab.words)


@dataclass
class EncodedExample:
    id: str
    token_ids: list[int]
    candidate_ids: list[list[int]]
    sentiment: str
    emotions: np.ndarray


def encode_example(
    example: Example, vocab: Vocabulary, thesaurus: Thesaurus, dt_k: int
) -> EncodedExample:
    """Token and candidate ids for one example.

    Candidates survive only if they are real vocabulary entries; an <oov>
    candidate would mix a meaningless vector into the word attention.
    """
    return EncodedExample(
        example.id,
        [vocab.id_of(t) for t in example.tokens],
        [
            [vocab.index[c] for c in thesaurus.expand(t, dt_k) if c in vocab.index]
            for t in example.tokens
        ],
        example.sentiment,
        np.array(example.emotions, dtype=np.float64),
    )


def encode_corpus(
    corpus: Corpus, vocab: Vocabulary, thesaurus: Thesaurus, dt_k: int
) -> list[EncodedExample]:
    return [encode_example(ex, vocab, thesaurus, dt_k) for ex in corpus.examples]
