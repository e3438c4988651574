"""Flat `key = value` run configuration shared by every CLI command.

One file fully describes a run: the resource paths and `threshold` held by
`RunConfig`, and every field of `ModelConfig` and `TrainConfig`, which own
each setting's default and check. The key table is derived from the fields
of the three dataclasses and their type hints, so a new field is a new key;
a key is spelled as its field except where `_KEY_NAMES` says otherwise.
Loading builds all three dataclasses, so every command checks every key.
Unknown keys are rejected so a config cannot silently drift from the code,
and required paths are checked before any work starts.
"""
from __future__ import annotations

import typing
from dataclasses import dataclass, field, fields
from pathlib import Path

from .artifacts import read_text
from .model import ModelConfig
from .train import EMOTION_THRESHOLD, TrainConfig


class ConfigError(ValueError):
    """Invalid run configuration: unknown key, bad value, or missing path."""


@dataclass
class RunConfig:
    corpus_train: str | None = None
    corpus_test: str | None = None
    embeddings: str | None = None
    thesaurus: str | None = None
    lexicon: str | None = None
    out_dir: str = "."
    threshold: float = EMOTION_THRESHOLD
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(f"threshold must be in (0, 1), got {self.threshold}")


_KEY_NAMES = {
    "corpus_train": "corpus.train",
    "corpus_test": "corpus.test",
    "dropout_rate": "dropout",
}
_KINDS = {int: "an integer", float: "a number", bool: "true or false", str: "text"}
_BOOL_WORDS = {"true": True, "false": False, "yes": True, "no": False, "1": True, "0": False}


def _key_table() -> dict[str, tuple[str, str, type]]:
    """Config key -> (section, field, value type) for every plain-valued
    field; `int | None` parses as int."""
    table = {}
    for section, cls in (("run", RunConfig), ("model", ModelConfig), ("train", TrainConfig)):
        hints = typing.get_type_hints(cls)
        for f in fields(cls):
            hint = hints[f.name]
            kind = next(t for t in typing.get_args(hint) or (hint,) if t is not type(None))
            if kind in _KINDS:
                table[_KEY_NAMES.get(f.name, f.name)] = (section, f.name, kind)
    return table


KEYS = _key_table()


def _parse_value(key: str, kind: type, raw: str, where: str):
    if not raw:
        raise ConfigError(f"{where}: empty value for {key!r}")
    try:
        return _BOOL_WORDS[raw.lower()] if kind is bool else kind(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"{where}: {key} must be {_KINDS[kind]}, got {raw!r}") from None


def load_run_config(path) -> RunConfig:
    if not Path(path).is_file():
        raise ConfigError(f"config file not found: {path}")
    values: dict[str, dict] = {"run": {}, "model": {}, "train": {}}
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, raw = stripped.partition("=")
        if not sep:
            raise ConfigError(f"{path}: line {lineno}: expected 'key = value'")
        key = key.strip()
        if key not in KEYS:
            raise ConfigError(f"{path}: line {lineno}: unknown config key {key!r}")
        section, name, kind = KEYS[key]
        if name in values[section]:
            raise ConfigError(f"{path}: line {lineno}: duplicate key {key!r}")
        values[section][name] = _parse_value(key, kind, raw.strip(), f"{path}: line {lineno}")
    try:
        return RunConfig(
            **values["run"],
            model=ModelConfig(**values["model"]),
            train=TrainConfig(**values["train"]),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def require_files(cfg: RunConfig, *keys: str) -> None:
    """Fail fast if any named path key is unset or not an existing file."""
    for key in keys:
        value = getattr(cfg, KEYS[key][1])
        if value is None:
            raise ConfigError(f"{key} is required but not set")
        if not Path(value).is_file():
            raise ConfigError(f"{key}: no such file: {value}")
