"""Self-describing binary checkpoints with bit-exact round-trips.

Layout: magic line, 8-byte big-endian header length, JSON header (sorted
keys) padded with trailing spaces so the payload starts at a multiple of
64 bytes, then the named tensors as little-endian float64 C-order payloads
in header order (names sorted). The same model state always serializes to
the same bytes, which is what the determinism guarantees rest on; zip
containers were rejected because they embed timestamps.

The header carries everything inference needs: the model config, the
vocabulary, the thesaurus entries and segmentation lexicon counts, and
tensor names/shapes. A checkpoint is therefore a standalone artifact: the
predict path needs no access to the original resource files.

Format version 2 stores each LSTM direction as three gate-stacked tensors
(version 1 files, with one tensor per gate, are rejected). Loading checks
every header field's type, the config keys against `ModelConfig`, and the
tensor names and shapes against `parameter_shapes` for that config and
vocabulary size, and the `meta` fields in META_CHECKS; each failure is a
`CheckpointError` naming its field.

Loading maps the payload copy-on-write and makes each tensor a view of the
mapping: tensors are writable, writes never reach the file, and a page is
read only when first touched. A loaded checkpoint keeps its file mapped until
its tensors are freed, so rewrite that file by rename (`write_atomic`, as
`save_checkpoint` does), never in place.
"""
from __future__ import annotations

import json
import mmap
import os
from bisect import bisect_right
from dataclasses import asdict, dataclass, fields
from itertools import accumulate
from math import prod

import numpy as np

from .artifacts import open_regular, write_atomic
from .model import ModelConfig, is_trainable, parameter_shapes
from .nd import Tensor
from .preprocess import SegmentationLexicon
from .resources import SPECIALS, Thesaurus, Vocabulary

MAGIC = b"EMOSENT-CHECKPOINT-1\n"
FORMAT_VERSION = 2
PAYLOAD_ALIGN = 64
HEADER_START = len(MAGIC) + 8
CONFIG_KEYS = {f.name for f in fields(ModelConfig)}
# The meta fields commands read, checked when present; readers supply defaults.
META_CHECKS = {
    "threshold": ("a number in (0, 1)", lambda v: type(v) in (int, float) and 0 < v < 1),
    "seed": ("a non-negative int", lambda v: type(v) is int and v >= 0),
    "epochs": ("a non-negative int", lambda v: type(v) is int and v >= 0),
}


class CheckpointError(ValueError):
    """A checkpoint file is malformed or inconsistent with its request."""


@dataclass
class Checkpoint:
    config: ModelConfig
    params: dict[str, Tensor]
    vocab: Vocabulary
    thesaurus: Thesaurus
    lexicon: SegmentationLexicon
    meta: dict


def save_checkpoint(
    path,
    config: ModelConfig,
    params: dict[str, Tensor],
    vocab: Vocabulary,
    thesaurus: Thesaurus | None = None,
    lexicon: SegmentationLexicon | None = None,
    meta: dict | None = None,
) -> None:
    names = sorted(params)
    header = {
        "format_version": FORMAT_VERSION,
        "config": asdict(config),
        "vocab": vocab.words,
        "thesaurus": dict(sorted(thesaurus.entries.items())) if thesaurus else {},
        "lexicon": dict(sorted(lexicon.counts.items())) if lexicon else {},
        "tensors": [{"name": n, "shape": list(params[n].shape)} for n in names],
        "meta": dict(sorted((meta or {}).items())),
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    blob += b" " * (-(HEADER_START + len(blob)) % PAYLOAD_ALIGN)
    payload = [np.ascontiguousarray(params[n].data, dtype="<f8").tobytes() for n in names]
    write_atomic(path, b"".join([MAGIC, len(blob).to_bytes(8, "big"), blob, *payload]))


def load_checkpoint(path) -> Checkpoint:
    """Read and check a checkpoint; its tensors view the mapped payload. A
    path that is not a regular file is a NotRegularFileError."""
    with open_regular(path) as fh:
        return _read_checkpoint(path, fh)


def _read_checkpoint(path, fh) -> Checkpoint:
    size = os.fstat(fh.fileno()).st_size
    if fh.read(len(MAGIC)) != MAGIC:
        raise CheckpointError(f"{path}: not a model checkpoint (bad magic)")
    header_len = int.from_bytes(fh.read(8), "big")
    if header_len > size - HEADER_START:
        raise CheckpointError(
            f"{path}: corrupt header: header length {header_len} exceeds the "
            f"{max(size - HEADER_START, 0)} bytes after it"
        )
    try:
        header = json.loads(fh.read(header_len).decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise CheckpointError(f"{path}: corrupt header: {exc}") from None
    if type(header) is not dict:
        raise CheckpointError(
            f"{path}: corrupt header: expected an object, got {type(header).__name__}"
        )
    if header.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported format version {header.get('format_version')!r}"
        )
    config = _config(path, _field(path, header, "config", dict))
    words = _field(path, header, "vocab", list)
    vocab = _vocabulary(path, words)
    shapes = _tensor_shapes(path, _field(path, header, "tensors", list))
    expected = parameter_shapes(config, len(words))
    if shapes != expected:
        wrong = {
            n: f"{s} not {expected[n]}"
            for n, s in shapes.items()
            if n in expected and s != expected[n]
        }
        raise CheckpointError(
            f"{path}: tensors do not fit the config and a {len(words)}-word vocabulary: "
            f"missing {sorted(expected.keys() - shapes.keys())}, "
            f"unexpected {sorted(shapes.keys() - expected.keys())}, wrong shapes {wrong}"
        )
    thesaurus = _resource(path, header, "thesaurus", Thesaurus)
    lexicon = _resource(path, header, "lexicon", SegmentationLexicon)
    meta = _field(path, header, "meta", dict)
    for key, (kind, fits) in META_CHECKS.items():
        if key in meta and not fits(meta[key]):
            raise CheckpointError(f"{path}: meta.{key}: expected {kind}, got {meta[key]!r}")
    # Header order, with the expected shapes: a stored shape may be [2.0, 3].
    layout = [(name, expected[name]) for name in shapes]
    ends = list(accumulate(prod(shape) for _, shape in layout))
    offset = HEADER_START + header_len
    available, needed = size - offset, 8 * ends[-1]
    if available < needed:
        name = layout[bisect_right(ends, available // 8)][0]
        raise CheckpointError(f"{path}: truncated payload at tensor {name!r}")
    if available > needed:
        raise CheckpointError(f"{path}: {available - needed} trailing bytes")
    mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY)
    arena = np.frombuffer(mapped, dtype="<f8", count=ends[-1], offset=offset)
    params = {
        name: Tensor(arena[start:end].reshape(shape), requires_grad=is_trainable(name, config))
        for (name, shape), start, end in zip(layout, [0, *ends], ends)
    }
    return Checkpoint(config, params, vocab, thesaurus, lexicon, meta)


_JSON_TYPES = {dict: "an object", list: "a list"}


def _field(path, header: dict, key: str, kind: type):
    """A header field of JSON type `kind`; absent fields are empty."""
    value = header.get(key, kind())
    if type(value) is not kind:
        raise CheckpointError(
            f"{path}: {key}: expected {_JSON_TYPES[kind]}, got {type(value).__name__}"
        )
    return value


def _resource(path, header: dict, key: str, cls):
    """Build a Thesaurus or SegmentationLexicon from its header field."""
    try:
        return cls(_field(path, header, key, dict))
    except TypeError as exc:
        raise CheckpointError(f"{path}: {key}: {exc}") from None


def _config(path, stored: dict) -> ModelConfig:
    unknown = sorted(stored.keys() - CONFIG_KEYS)
    missing = sorted(CONFIG_KEYS - stored.keys())
    if unknown or missing:
        raise CheckpointError(f"{path}: config keys unknown {unknown}, missing {missing}")
    try:
        return ModelConfig(**stored)
    except TypeError as exc:
        raise CheckpointError(f"{path}: config.{exc}") from None
    except ValueError as exc:
        raise CheckpointError(f"{path}: bad config: {exc}") from None


def _vocabulary(path, words: list) -> Vocabulary:
    if not set(map(type, words)) <= {str}:
        bad = next(w for w in words if not isinstance(w, str))
        raise CheckpointError(f"{path}: vocab: entry {bad!r} is not a word")
    index = {w: i for i, w in enumerate(words)}
    if len(index) < len(words):
        raise CheckpointError(f"{path}: vocab: {len(words) - len(index)} repeated words")
    missing = [w for w in SPECIALS if w not in index]
    if missing:
        raise CheckpointError(f"{path}: vocab: missing the special tokens {missing}")
    return Vocabulary(words, index)


def _tensor_shapes(path, entries: list) -> dict[str, tuple]:
    shapes = {}
    for i, entry in enumerate(entries):
        if not (
            type(entry) is dict
            and type(entry.get("name")) is str
            and type(entry.get("shape")) is list
        ):
            raise CheckpointError(
                f"{path}: tensors[{i}]: expected a name and a shape list, got {entry!r}"
            )
        shapes[entry["name"]] = tuple(entry["shape"])
    if len(shapes) < len(entries):
        raise CheckpointError(f"{path}: tensors: {len(entries) - len(shapes)} repeated names")
    return shapes
