"""Flat `key = value` run configuration shared by every CLI command.

One file fully describes a run: resource paths, architecture, and training
hyperparameters. Unknown keys are rejected so a config cannot silently
drift from the code, and required paths are checked before any work starts.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .model import ModelConfig
from .train import TrainConfig


class ConfigError(ValueError):
    """Invalid run configuration: unknown key, bad value, or missing path."""


PATH_KEYS = (
    "corpus.train",
    "corpus.test",
    "embeddings",
    "thesaurus",
    "lexicon",
    "out_dir",
)
INT_KEYS = (
    "embed_dim",
    "lstm_hidden",
    "context_dim",
    "dt_k",
    "batch_size",
    "epochs",
    "seed",
    "patience",
)
FLOAT_KEYS = ("dropout", "lr", "sentiment_loss_weight", "emotion_loss_weight", "threshold")
BOOL_KEYS = ("train_embeddings",)
STR_KEYS = ("mode",)
KNOWN_KEYS = frozenset(PATH_KEYS + INT_KEYS + FLOAT_KEYS + BOOL_KEYS + STR_KEYS)

_BOOL_WORDS = {"true": True, "false": False, "yes": True, "no": False, "1": True, "0": False}


@dataclass
class RunConfig:
    corpus_train: str | None = None
    corpus_test: str | None = None
    embeddings: str | None = None
    thesaurus: str | None = None
    lexicon: str | None = None
    out_dir: str = "."
    mode: str = "M2"
    embed_dim: int = 300
    lstm_hidden: int = 300
    context_dim: int = 150
    dt_k: int = 4
    dropout: float = 0.6
    train_embeddings: bool = False
    batch_size: int = 64
    lr: float = 0.001
    epochs: int = 1
    seed: int = 0
    sentiment_loss_weight: float = 1.0
    emotion_loss_weight: float = 1.0
    threshold: float = 0.5
    patience: int | None = None

    def model_config(self) -> ModelConfig:
        try:
            return ModelConfig(
                mode=self.mode,
                embed_dim=self.embed_dim,
                lstm_hidden=self.lstm_hidden,
                context_dim=self.context_dim,
                dt_k=self.dt_k,
                dropout_rate=self.dropout,
                train_embeddings=self.train_embeddings,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def train_config(self) -> TrainConfig:
        try:
            return TrainConfig(
                batch_size=self.batch_size,
                lr=self.lr,
                epochs=self.epochs,
                seed=self.seed,
                sentiment_loss_weight=self.sentiment_loss_weight,
                emotion_loss_weight=self.emotion_loss_weight,
                patience=self.patience,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


def _attr(key: str) -> str:
    return key.replace(".", "_")


def _parse_value(key: str, raw: str, where: str):
    if not raw:
        raise ConfigError(f"{where}: empty value for {key!r}")
    if key in INT_KEYS:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{where}: {key} must be an integer, got {raw!r}") from None
    if key in FLOAT_KEYS:
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{where}: {key} must be a number, got {raw!r}") from None
    if key in BOOL_KEYS:
        try:
            return _BOOL_WORDS[raw.lower()]
        except KeyError:
            raise ConfigError(f"{where}: {key} must be true or false, got {raw!r}") from None
    return raw


def load_run_config(path) -> RunConfig:
    if not Path(path).is_file():
        raise ConfigError(f"config file not found: {path}")
    cfg = RunConfig()
    seen: set[str] = set()
    for lineno, line in enumerate(
        Path(path).read_text(encoding="utf-8").splitlines(), start=1
    ):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, raw = stripped.partition("=")
        if not sep:
            raise ConfigError(f"{path}: line {lineno}: expected 'key = value'")
        key = key.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError(f"{path}: line {lineno}: unknown config key {key!r}")
        if key in seen:
            raise ConfigError(f"{path}: line {lineno}: duplicate key {key!r}")
        seen.add(key)
        setattr(cfg, _attr(key), _parse_value(key, raw.strip(), f"{path}: line {lineno}"))
    if not 0.0 < cfg.threshold < 1.0:
        raise ConfigError(f"{path}: threshold must be in (0, 1), got {cfg.threshold}")
    return cfg


def require_files(cfg: RunConfig, *keys: str) -> None:
    """Fail fast if any named path key is unset or not an existing file."""
    for key in keys:
        value = getattr(cfg, _attr(key))
        if value is None:
            raise ConfigError(f"{key} is required but not set")
        if not Path(value).is_file():
            raise ConfigError(f"{key}: no such file: {value}")
