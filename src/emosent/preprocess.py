"""Tweet normalization: placeholders, hashtag segmentation, contractions.

The pipeline applies, in order: URL replacement, @mention replacement,
hashtag segmentation (leading '#' kept as its own token), contraction
expansion, standalone-number replacement, whitespace tokenization, and
lowercasing. Placeholders are spelled <url>, <user>, <number>.

Hashtag bodies are split by a unigram language model: cost(word) is
log(total) - log(count) for lexicon words and log(total) + len(word)*log(10)
for unknown chunks, so known words always beat unknown ones and an unknown
string is never split (the unsplit body is the cheapest cover of itself).
"""
from __future__ import annotations

import math
import re
from pathlib import Path
from typing import Iterable, Mapping

TokenSequence = list[str]

URL_PATTERN = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)
MENTION_PATTERN = re.compile(r"@\w+")
HASHTAG_PATTERN = re.compile(r"#(\w+)")
NUMBER_PATTERN = re.compile(r"[+-]?\d+(?:[.,]\d+)*")
CAMEL_BOUNDARY = re.compile(r"(?<=[a-z0-9])(?=[A-Z])|(?<=[a-zA-Z])(?=[0-9])")

_LOG10 = math.log(10.0)

# Irregular contractions the suffix rules below would get wrong or miss.
_IRREGULAR = {
    "won't": ["will", "not"],
    "can't": ["can", "not"],
    "shan't": ["shall", "not"],
    "ain't": ["is", "not"],
    "let's": ["let", "us"],
    "y'all": ["you", "all"],
}

# Checked in order; n't must come before 's so "doesn't" splits on "not".
_SUFFIX_RULES = [
    ("n't", "not"),
    ("'ve", "have"),
    ("'ll", "will"),
    ("'re", "are"),
    ("'m", "am"),
    ("'d", "would"),
    ("'s", "is"),
]


class SegmentationLexicon:
    """Unigram word frequencies backing hashtag segmentation."""

    def __init__(self, counts: Mapping[str, int]):
        """Sum the positive counts per lowercased word; a count that is not
        an integer raises TypeError naming its word."""
        self.counts = {}
        for word, count in counts.items():
            if type(count) is not int:
                raise TypeError(f"count of {word!r} is not an integer: {count!r}")
            if count > 0:
                key = word.lower()
                self.counts[key] = self.counts.get(key, 0) + count
        self.total = max(sum(self.counts.values()), 1)

    @classmethod
    def from_file(cls, path) -> "SegmentationLexicon":
        """Load `word<TAB>count` lines; blank lines are skipped and a negative
        count is an error naming its line."""
        counts: dict[str, int] = {}
        text = Path(path).read_text(encoding="utf-8")
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(f"{path}: line {lineno}: expected 'word<TAB>count'")
            word, raw_count = parts
            try:
                count = int(raw_count)
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: count {raw_count!r} is not an integer"
                ) from None
            if count < 0:
                raise ValueError(f"{path}: line {lineno}: count {count} is negative")
            counts[word] = counts.get(word, 0) + count
        return cls(counts)

    def __contains__(self, word: str) -> bool:
        return word.lower() in self.counts

    def cost(self, word: str) -> float:
        """Negative log unigram probability, with a length penalty off-lexicon."""
        count = self.counts.get(word.lower())
        if count is None:
            return math.log(self.total) + len(word) * _LOG10
        return math.log(self.total) - math.log(count)


def _viterbi_split(body: str, lexicon: SegmentationLexicon) -> list[str]:
    """Cheapest segmentation by dynamic programming over split points."""
    n = len(body)
    best = [math.inf] * (n + 1)
    best[0] = 0.0
    back = [0] * (n + 1)
    for end in range(1, n + 1):
        for start in range(end):
            cost = best[start] + lexicon.cost(body[start:end])
            if cost < best[end]:
                best[end] = cost
                back[end] = start
    words = []
    end = n
    while end > 0:
        start = back[end]
        words.append(body[start:end])
        end = start
    words.reverse()
    return words


def segment_hashtag(body: str, lexicon: SegmentationLexicon) -> list[str]:
    """Split a hashtag body into lowercase words.

    Camel-case boundaries are taken as given splits; each piece is then
    segmented by the unigram model. A body with no cheaper cover than
    itself comes back as the single unsplit (lowercased) token.
    """
    if not body:
        return []
    words = []
    for chunk in CAMEL_BOUNDARY.split(body):
        words.extend(_viterbi_split(chunk.lower(), lexicon))
    return words


def expand_contraction(token: str) -> list[str]:
    """Expand one lowercase token; anything unrecognized passes through."""
    irregular = _IRREGULAR.get(token)
    if irregular is not None:
        return list(irregular)
    for suffix, expansion in _SUFFIX_RULES:
        if token.endswith(suffix):
            stem = token[: -len(suffix)]
            if stem and stem.isalpha():
                return [stem, expansion]
    return [token]


def normalize(text: str, lexicon: SegmentationLexicon) -> TokenSequence:
    """Raw tweet text to the lowercase token stream the model consumes."""
    text = text.replace("’", "'")
    text = URL_PATTERN.sub(" <url> ", text)
    text = MENTION_PATTERN.sub(" <user> ", text)
    text = HASHTAG_PATTERN.sub(
        lambda m: " # " + " ".join(segment_hashtag(m.group(1), lexicon)) + " ", text
    )
    tokens: list[str] = []
    for raw in text.split():
        if raw in ("<url>", "<user>"):
            tokens.append(raw)
            continue
        for piece in expand_contraction(raw.lower()):
            tokens.append("<number>" if NUMBER_PATTERN.fullmatch(piece) else piece)
    return tokens


def join(tokens: Iterable[str]) -> str:
    """Inverse-ish of normalize for idempotence checks: space-joined tokens."""
    return " ".join(tokens)
