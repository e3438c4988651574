"""Run config files: the derived key table and the README's key listing."""
import re
from dataclasses import fields
from pathlib import Path

import pytest

from emosent.config import KEYS, ConfigError, RunConfig, load_run_config
from emosent.model import ModelConfig
from emosent.train import TrainConfig

README = Path(__file__).resolve().parent.parent / "README.md"

EVERY_KEY = """\
corpus.train = a/train.tsv
corpus.test = a/test.tsv
embeddings = a/vectors.txt
thesaurus = a/thesaurus.tsv
lexicon = a/lexicon.txt
out_dir = runs/x
threshold = 0.25
mode = S1
embed_dim = 12
lstm_hidden = 7
context_dim = 5
dt_k = 3
dropout = 0.125
train_embeddings = yes
batch_size = 9
lr = 0.5
epochs = 11
seed = 13
sentiment_loss_weight = 0.75
emotion_loss_weight = 2.5
patience = 4
"""


def _section(cfg: RunConfig, section: str):
    return cfg if section == "run" else getattr(cfg, section)


def _load(tmp_path, text: str) -> RunConfig:
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    return load_run_config(path)


def test_every_key_sets_its_field(tmp_path):
    expected = RunConfig(
        corpus_train="a/train.tsv",
        corpus_test="a/test.tsv",
        embeddings="a/vectors.txt",
        thesaurus="a/thesaurus.tsv",
        lexicon="a/lexicon.txt",
        out_dir="runs/x",
        threshold=0.25,
        model=ModelConfig(
            mode="S1",
            embed_dim=12,
            lstm_hidden=7,
            context_dim=5,
            dt_k=3,
            dropout_rate=0.125,
            train_embeddings=True,
        ),
        train=TrainConfig(
            batch_size=9,
            lr=0.5,
            epochs=11,
            seed=13,
            sentiment_loss_weight=0.75,
            emotion_loss_weight=2.5,
            patience=4,
        ),
    )
    loaded = _load(tmp_path, EVERY_KEY)
    assert loaded == expected
    # Every plain field of the three dataclasses is a key, and the file
    # above sets each one away from its default.
    assert {(section, name) for section, name, _ in KEYS.values()} == (
        {("run", f.name) for f in fields(RunConfig) if f.name not in ("model", "train")}
        | {("model", f.name) for f in fields(ModelConfig)}
        | {("train", f.name) for f in fields(TrainConfig)}
    )
    assert [line.split(" = ")[0] for line in EVERY_KEY.splitlines()] == list(KEYS)
    default = RunConfig()
    for key, (section, name, _) in KEYS.items():
        assert getattr(_section(loaded, section), name) != getattr(
            _section(default, section), name
        ), key


def test_empty_file_gives_defaults(tmp_path):
    assert _load(tmp_path, "# nothing set\n") == RunConfig()


@pytest.mark.parametrize(
    "line, message",
    [
        ("patience = soon", "patience must be an integer, got 'soon'"),
        ("lr = fast", "lr must be a number, got 'fast'"),
        ("train_embeddings = maybe", "train_embeddings must be true or false, got 'maybe'"),
        ("dropout_rate = 0.5", "unknown config key 'dropout_rate'"),
        ("seed = -1", "seed must be non-negative, got -1"),
    ],
)
def test_bad_value_names_the_key(tmp_path, line, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        _load(tmp_path, line + "\n")


def _readme_section(title: str) -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index(f"## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:end]


def test_readme_ini_block_loads_and_sets_every_key(tmp_path):
    block = re.search(r"```ini\n(.*?)```", _readme_section("Quick start"), re.S).group(1)
    _load(tmp_path, block)
    assert [line.split("=")[0].strip() for line in block.splitlines()] == list(KEYS)


def test_readme_key_table_matches_defaults(tmp_path):
    rows = re.findall(r"^\| `([\w.]+)` \| ([^|]*) \|", _readme_section("Quick start"), re.M)
    assert [key for key, _ in rows] == list(KEYS)
    default = RunConfig()
    for key, documented in rows:
        section, name, _ = KEYS[key]
        actual = getattr(_section(default, section), name)
        if documented.strip() == "unset":
            assert actual is None, key
        else:
            loaded = _load(tmp_path, f"{key} = {documented.strip().strip('`')}\n")
            assert getattr(_section(loaded, section), name) == actual, key
