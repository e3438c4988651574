"""The exit-code contract, case by case: every command ends in exit 0 or in
exit 2 with an `error: ` line on stderr that names the failing stage, never
in a traceback, and prints no `nan` on exit 0.

Each case is one entry of an explicit table, and its id is the whole
mutation: `<key>:<edit>@<line>` edits one line of a fixture input (the
`train` config's key), `<key>=<value>` sets one config value, and
`<edit>@<anchor>+<offset>` damages a trained fixture checkpoint that
`predict` and `evaluate` then read, and a refused command line is its own
id. A failing id reproduces by itself."""
import re

import pytest

from emosent.checkpoint import HEADER_START, MAGIC
from emosent.cli import entrypoint

from conftest import FIXTURES, write_config

# Fixture file and field separator by config key; the key names its errors.
INPUTS = {
    "corpus.train": ("corpus_train.tsv", b"\t"),
    "corpus.test": ("corpus_test.tsv", b"\t"),
    "embeddings": ("embeddings.txt", b" "),
    "thesaurus": ("thesaurus.tsv", b"\t"),
    "lexicon": ("lexicon.txt", b"\t"),
}
# What a `field<j>=<name>` edit writes in place of field j.
FIELD_VALUES = {"nan": b"nan", "inf": b"inf", "nul": b"\x00", "bad-utf8": b"\xff\xfe",
                "long": b"x" * 5000}

LINE_EDITS = [
    "corpus.train:delete@0", "corpus.train:duplicate@4", "corpus.train:swap@0",
    "corpus.train:cut@7", "corpus.train:field0=nul@11", "corpus.train:field1=nan@2",
    "corpus.train:field1=nul@3", "corpus.train:field1=bad-utf8@5", "corpus.train:field1=long@6",
    "corpus.train:field2=inf@8", "corpus.train:field3=nan@9", "corpus.train:field3=inf@10",
    "corpus.test:delete@0", "corpus.test:duplicate@5", "corpus.test:swap@4",
    "corpus.test:cut@2", "corpus.test:field1=bad-utf8@1", "corpus.test:field3=nan@3",
    "embeddings:delete@0", "embeddings:duplicate@1", "embeddings:swap@2", "embeddings:cut@3",
    "embeddings:field0=nul@6", "embeddings:field0=bad-utf8@7", "embeddings:field0=long@8",
    "embeddings:field1=nan@4", "embeddings:field1=inf@5", "embeddings:field16=nan@9",
    "thesaurus:delete@0", "thesaurus:duplicate@1", "thesaurus:swap@6", "thesaurus:cut@2",
    "thesaurus:field0=bad-utf8@5", "thesaurus:field1=nul@3", "thesaurus:field1=long@4",
    "lexicon:delete@0", "lexicon:duplicate@1", "lexicon:cut@2", "lexicon:field0=nul@5",
    "lexicon:field0=long@7", "lexicon:field1=nan@3", "lexicon:field1=inf@4",
    "lexicon:field1=bad-utf8@6",
]
# Command lines the parser accepts and the command refuses, with the error
# line each prints.
COMMAND_LINES = {
    "train": "this command needs --config",
    "build-vocab": "this command needs --config",
    "evaluate": "this command needs --config",
    "gradcheck --modes ,": "no modes requested",
}
# numpy refuses a [16, 4e18] array before allocating it; a size such as
# 1e9 could be granted by a host that overcommits.
CONFIG_VALUES = {"lstm_hidden=1000000000000000000": "model"}

CHECKPOINT_EDITS = [
    # Bit <n> of the byte flipped.
    "flip0@magic+0", "flip0@length+7", "flip7@length+0", "flip1@header+0", "flip0@header+40",
    "flip3@header+200", "flip0@payload+0", "flip6@payload+7", "flip7@payload+1000",
    "flip7@end-1",
    # The top exponent bit of a value in the embedding rows of `angersynb`
    # and `joyword`, which the predict text and the test corpus read: their
    # products overflow, and the logits are not finite.
    "flip6@payload+975", "flip6@payload+2959",
    # The file cut before the byte.
    "cut@magic+0", "cut@magic+10", "cut@header+0", "cut@header+100", "cut@payload+0",
    "cut@end-1",
    # The byte set to a character.
    "set[@header+0", 'set"@header+5', "set9@header+1", "set @header+2", "set}@payload-1",
    "set9@lstm_hidden+14", "setx@mode+8", "set1@threshold+12", "set7@seed+7",
    "set9@shape+10",
]


def mutate_lines(data: bytes, edit: str, line: int, sep: bytes) -> bytes:
    """`data` with one line edited: deleted, duplicated, swapped with the
    next, cut to its first half, or `field<j>=<name>`."""
    lines = data.split(b"\n")
    if edit == "delete":
        del lines[line]
    elif edit == "duplicate":
        lines.insert(line, lines[line])
    elif edit == "swap":
        lines[line], lines[line + 1] = lines[line + 1], lines[line]
    elif edit == "cut":
        lines[line] = lines[line][: len(lines[line]) // 2]
    else:
        field, value = re.fullmatch(r"field(\d+)=(.+)", edit).groups()
        fields = lines[line].split(sep)
        fields[int(field)] = FIELD_VALUES[value]
        lines[line] = sep.join(fields)
    return b"\n".join(lines)


def damage(data: bytes, case: str) -> bytes:
    """The checkpoint bytes `data` with one `CHECKPOINT_EDITS` edit. An
    anchor is a place in the layout (magic, length, header, payload, end)
    or a header key, at its opening quote."""
    edit, anchor, sign, offset = re.fullmatch(r"(.+)@(\w+)([+-])(\d+)", case).groups()
    payload = HEADER_START + int.from_bytes(data[len(MAGIC):HEADER_START], "big")
    places = {"magic": 0, "length": len(MAGIC), "header": HEADER_START, "payload": payload,
              "end": len(data)}
    base = places[anchor] if anchor in places else data.index(b'"%s"' % anchor.encode())
    at = base + int(offset) * (1 if sign == "+" else -1)
    if edit == "cut":
        return data[:at]
    if edit.startswith("flip"):
        byte = data[at] ^ (1 << int(edit[4:]))
    else:
        byte = ord(edit[3:])
    return data[:at] + bytes([byte]) + data[at + 1:]


def check_exit(argv, stages, out_dir, capsys):
    """Run `argv` in-process: exit 0 with no `nan` or `inf` printed, or exit
    2 with an error line naming one of `stages`."""
    code = entrypoint(argv)
    captured = capsys.readouterr()
    assert code in (0, 2), captured.err
    if code == 0:
        out = captured.out.replace(str(out_dir), "")
        assert not re.search(r"\b(nan|inf)\b", out, re.IGNORECASE), out
    else:
        assert re.match(rf"error: ({'|'.join(map(re.escape, stages))}): ", captured.err), \
            captured.err


@pytest.mark.parametrize("case", LINE_EDITS)
def test_train_on_an_edited_input(case, tmp_path, capsys):
    key, edit, line = re.fullmatch(r"([\w.]+):(.+)@(\d+)", case).groups()
    name, sep = INPUTS[key]
    edited = tmp_path / name
    edited.write_bytes(mutate_lines((FIXTURES / name).read_bytes(), edit, int(line), sep))
    config = write_config(tmp_path / "run.cfg", tmp_path / "out", epochs=2,
                          **{key: edited})
    check_exit(["train", "--config", str(config)], [key], tmp_path, capsys)


@pytest.mark.parametrize("case", COMMAND_LINES)
def test_refused_command_line(case, capsys):
    assert entrypoint(case.split()) == 2
    assert capsys.readouterr().err == f"error: {COMMAND_LINES[case]}\n"


@pytest.mark.parametrize("case", CONFIG_VALUES)
def test_train_with_a_bad_config_value(case, tmp_path, capsys):
    key, value = case.split("=")
    config = write_config(tmp_path / "run.cfg", tmp_path / "out", epochs=2, **{key: value})
    assert entrypoint(["train", "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {CONFIG_VALUES[case]}: ")


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """The bytes of a fixture checkpoint trained for two epochs."""
    root = tmp_path_factory.mktemp("contract")
    config = write_config(root / "run.cfg", root / "out", epochs=2)
    assert entrypoint(["train", "--config", str(config)]) == 0
    return (root / "out" / "checkpoint.bin").read_bytes()


@pytest.mark.parametrize("command", ["predict", "evaluate"])
@pytest.mark.parametrize("case", CHECKPOINT_EDITS)
def test_damaged_checkpoint(case, command, checkpoint, tmp_path, capsys):
    damaged = tmp_path / "damaged.bin"
    damaged.write_bytes(damage(checkpoint, case))
    if command == "predict":
        argv = ["predict", str(damaged), "joyword angerword was"]
    else:
        config = write_config(tmp_path / "run.cfg", tmp_path / "out")
        argv = ["evaluate", "--config", str(config), "--checkpoint", str(damaged)]
    check_exit(argv, ["checkpoint", command], tmp_path, capsys)
