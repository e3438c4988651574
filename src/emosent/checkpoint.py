"""Self-describing binary checkpoints with bit-exact round-trips.

Layout: magic line, 8-byte big-endian header length, JSON header (sorted
keys), then the named tensors as little-endian float64 C-order payloads in
header order (names sorted). The same model state always serializes to
the same bytes, which is what the determinism guarantees rest on; zip
containers were rejected because they embed timestamps.

The header carries everything inference needs: the model config, the
vocabulary, the thesaurus entries and segmentation lexicon counts, and
tensor names/shapes. A checkpoint is therefore a standalone artifact: the
predict path needs no access to the original resource files.

Format version 2 stores each LSTM direction as three gate-stacked tensors
(version 1 files, with one tensor per gate, are rejected). Loading checks
the header's config keys against `ModelConfig`, and its tensor names and
shapes against `parameter_shapes` for that config and vocabulary size.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from .artifacts import write_atomic
from .model import ModelConfig, is_trainable, parameter_shapes
from .nd import Tensor
from .preprocess import SegmentationLexicon
from .resources import Thesaurus, Vocabulary

MAGIC = b"EMOSENT-CHECKPOINT-1\n"
FORMAT_VERSION = 2
CONFIG_KEYS = frozenset(f.name for f in fields(ModelConfig))


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
    payload = [np.ascontiguousarray(params[n].data, dtype="<f8").tobytes() for n in names]
    write_atomic(path, b"".join([MAGIC, len(blob).to_bytes(8, "big"), blob, *payload]))


def load_checkpoint(path) -> Checkpoint:
    """Read and check a checkpoint. The payload is read once, straight into
    one float64 arena, and each tensor is a view of it."""
    with open(path, "rb") as fh:
        return _read_checkpoint(path, fh)


def _read_checkpoint(path, fh) -> Checkpoint:
    if fh.read(len(MAGIC)) != MAGIC:
        raise CheckpointError(f"{path}: not a model checkpoint (bad magic)")
    header_len = int.from_bytes(fh.read(8), "big")
    try:
        header = json.loads(fh.read(header_len).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt header: {exc}") from None
    if header.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported format version {header.get('format_version')!r}"
        )
    stored_config = header.get("config", {})
    unknown = sorted(stored_config.keys() - CONFIG_KEYS)
    missing = sorted(CONFIG_KEYS - stored_config.keys())
    if unknown or missing:
        raise CheckpointError(f"{path}: config keys unknown {unknown}, missing {missing}")
    try:
        config = ModelConfig(**stored_config)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: bad config: {exc}") from None
    words = list(header.get("vocab", []))
    expected = parameter_shapes(config, len(words))
    shapes = {entry["name"]: tuple(entry["shape"]) for entry in header.get("tensors", [])}
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
    ends = np.cumsum([int(np.prod(shape)) for shape in shapes.values()])
    arena = np.empty(int(ends[-1]), dtype="<f8")
    filled = fh.readinto(arena.view(np.uint8)) // 8
    if filled < arena.size:
        name = list(shapes)[int(np.searchsorted(ends, filled, side="right"))]
        raise CheckpointError(f"{path}: truncated payload at tensor {name!r}")
    trailing = len(fh.read())
    if trailing:
        raise CheckpointError(f"{path}: {trailing} trailing bytes")
    params = {
        name: Tensor(data.reshape(shape), requires_grad=is_trainable(name, config))
        for (name, shape), data in zip(shapes.items(), np.split(arena, ends[:-1]))
    }
    vocab = Vocabulary(words, {w: i for i, w in enumerate(words)})
    return Checkpoint(
        config=config,
        params=params,
        vocab=vocab,
        thesaurus=Thesaurus(header.get("thesaurus", {})),
        lexicon=SegmentationLexicon(header.get("lexicon", {})),
        meta=header.get("meta", {}),
    )
