"""Checkpoint byte format: exact round-trips and corruption detection."""
import json
import mmap

import numpy as np
import pytest

from emosent.checkpoint import (
    CheckpointError,
    FORMAT_VERSION,
    HEADER_START,
    MAGIC,
    load_checkpoint,
    save_checkpoint,
)
from emosent.model import TASK_EMOTION, TASK_SENTIMENT, forward, init_parameters
from emosent.nd import Tensor
from emosent.resources import Vocabulary

from conftest import UNPARSABLE_HEADERS, small_config


@pytest.fixture
def saved(bundle, lexicon, tmp_path):
    config = small_config("M2")
    params = init_parameters(config, embedding_rows=bundle.embedding_rows, seed=0)
    path = tmp_path / "model.bin"
    save_checkpoint(
        path,
        config,
        params,
        bundle.vocab,
        thesaurus=bundle.thesaurus,
        lexicon=lexicon,
        meta={"epochs": 3, "final_loss": 0.25, "split": "train"},
    )
    return config, params, path


class TestRoundTrip:
    def test_everything_survives(self, saved, bundle, lexicon):
        config, params, path = saved
        ckpt = load_checkpoint(path)
        assert ckpt.config == config
        assert ckpt.vocab.words == bundle.vocab.words
        assert ckpt.vocab.index == bundle.vocab.index
        assert ckpt.thesaurus.entries == bundle.thesaurus.entries
        assert ckpt.lexicon.counts == lexicon.counts
        assert ckpt.meta == {"epochs": 3, "final_loss": 0.25, "split": "train"}
        assert set(ckpt.params) == set(params)
        for name, tensor in params.items():
            loaded = ckpt.params[name]
            assert loaded.data.dtype == np.float64
            assert loaded.data.tobytes() == tensor.data.tobytes()

    def test_forward_logits_bit_identical_after_reload(self, saved, bundle):
        config, params, path = saved
        ckpt = load_checkpoint(path)
        ex = bundle.test_examples[0]
        before = forward(ex, params, config)
        after = forward(ex, ckpt.params, ckpt.config)
        for task in (TASK_SENTIMENT, TASK_EMOTION):
            assert (
                before.logits[task].data.tobytes() == after.logits[task].data.tobytes()
            )

    def test_embedding_stays_frozen_after_reload(self, saved):
        _, _, path = saved
        ckpt = load_checkpoint(path)
        assert not ckpt.params["embedding"].requires_grad
        assert ckpt.params["sentiment/u"].requires_grad

    def test_trainable_embedding_flag_restored(self, bundle, tmp_path):
        config = small_config("S1", train_embeddings=True)
        params = init_parameters(config, embedding_rows=bundle.embedding_rows, seed=1)
        path = tmp_path / "model.bin"
        save_checkpoint(path, config, params, bundle.vocab)
        assert load_checkpoint(path).params["embedding"].requires_grad

    def test_optional_resources_default_to_empty(self, bundle, tmp_path):
        config = small_config("E1")
        params = init_parameters(config, embedding_rows=bundle.embedding_rows, seed=2)
        path = tmp_path / "bare.bin"
        save_checkpoint(path, config, params, bundle.vocab)
        ckpt = load_checkpoint(path)
        assert ckpt.thesaurus.entries == {}
        assert ckpt.lexicon.counts == {}
        assert ckpt.meta == {}


class TestDeterminism:
    def test_same_state_same_bytes(self, saved, bundle, lexicon, tmp_path):
        config, params, path = saved
        again = tmp_path / "again.bin"
        save_checkpoint(
            again,
            config,
            params,
            bundle.vocab,
            thesaurus=bundle.thesaurus,
            lexicon=lexicon,
            meta={"epochs": 3, "final_loss": 0.25, "split": "train"},
        )
        assert again.read_bytes() == path.read_bytes()

    def test_resave_of_loaded_checkpoint_is_identical(self, saved, tmp_path):
        _, _, path = saved
        ckpt = load_checkpoint(path)
        resaved = tmp_path / "resaved.bin"
        save_checkpoint(
            resaved,
            ckpt.config,
            ckpt.params,
            ckpt.vocab,
            thesaurus=ckpt.thesaurus,
            lexicon=ckpt.lexicon,
            meta=ckpt.meta,
        )
        assert resaved.read_bytes() == path.read_bytes()


class TestCorruptionDetection:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"GIF89a" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        header = b'{"format_version":%d}' % (FORMAT_VERSION + 1)
        path = tmp_path / "future.bin"
        path.write_bytes(MAGIC + len(header).to_bytes(8, "big") + header)
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_corrupt_header(self, tmp_path):
        header = b"not json at all"
        path = tmp_path / "broken.bin"
        path.write_bytes(MAGIC + len(header).to_bytes(8, "big") + header)
        with pytest.raises(CheckpointError, match="header"):
            load_checkpoint(path)

    @pytest.mark.parametrize("header", UNPARSABLE_HEADERS.values(), ids=UNPARSABLE_HEADERS)
    def test_unparsable_header_names_the_file(self, tmp_path, header):
        path = tmp_path / "broken.bin"
        path.write_bytes(MAGIC + len(header).to_bytes(8, "big") + header)
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path)
        assert str(info.value).startswith(f"{path}: corrupt header: ")

    def test_truncated_payload(self, saved, tmp_path):
        _, _, path = saved
        cut = tmp_path / "cut.bin"
        cut.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(CheckpointError, match="truncated payload at tensor 'sentiment/u'"):
            load_checkpoint(cut)

    def test_trailing_bytes(self, saved, tmp_path):
        _, _, path = saved
        padded = tmp_path / "padded.bin"
        padded.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CheckpointError, match="1 trailing bytes"):
            load_checkpoint(padded)

    @pytest.mark.parametrize("length", [2**40, 2**62, 2**64 - 1])
    def test_header_length_beyond_the_file(self, saved, length):
        _, _, path = saved
        raw = path.read_bytes()
        path.write_bytes(MAGIC + length.to_bytes(8, "big") + raw[HEADER_START:])
        expected = rf"corrupt header: header length {length} exceeds the {len(raw) - HEADER_START}"
        with pytest.raises(CheckpointError, match=expected):
            load_checkpoint(path)


def payload_offset(path) -> int:
    raw = path.read_bytes()
    return HEADER_START + int.from_bytes(raw[len(MAGIC) : HEADER_START], "big")


def rewrite_header(path, edit):
    """Apply `edit` to a saved checkpoint's parsed header, keeping the payload.
    An edit that returns a value replaces the header with it. The header is
    written without padding, as files from before the padding were."""
    raw = path.read_bytes()
    end = payload_offset(path)
    header = json.loads(raw[HEADER_START:end])
    edited = edit(header)
    blob = json.dumps(header if edited is None else edited).encode("utf-8")
    path.write_bytes(MAGIC + len(blob).to_bytes(8, "big") + blob + raw[end:])


def is_mapped(array) -> bool:
    """Whether `array` views a memory-mapped file."""
    while isinstance(array, np.ndarray):
        array = array.base
    return isinstance(array, memoryview) and isinstance(array.obj, mmap.mmap)


class TestMappedLoad:
    def test_payload_starts_at_a_multiple_of_64(self, saved):
        _, _, path = saved
        assert payload_offset(path) % 64 == 0
        header = path.read_bytes()[HEADER_START : payload_offset(path)]
        json_end = len(header.rstrip(b" "))
        assert header[json_end - 1 : json_end] == b"}" and len(header) - json_end < 64

    def test_tensors_are_aligned_writable_views_of_the_file(self, saved):
        _, _, path = saved
        before = path.read_bytes()
        ckpt = load_checkpoint(path)
        for tensor in ckpt.params.values():
            assert is_mapped(tensor.data)
            assert tensor.data.flags.aligned and tensor.data.flags.writeable
            assert tensor.data.flags.c_contiguous
        ckpt.params["lstm_fw/U"].data[...] = 7.0
        assert path.read_bytes() == before
        assert (ckpt.params["lstm_fw/U"].data == 7.0).all()

    def test_saving_over_a_loaded_checkpoint_keeps_its_tensors(self, saved, bundle):
        config, params, path = saved
        ckpt = load_checkpoint(path)
        loaded = {n: t.data.tobytes() for n, t in ckpt.params.items()}
        retrained = {n: Tensor(p.data + 1.0) for n, p in params.items()}
        save_checkpoint(path, config, retrained, bundle.vocab)
        assert {n: t.data.tobytes() for n, t in ckpt.params.items()} == loaded
        assert load_checkpoint(path).params["lstm_fw/U"].data.tobytes() != loaded["lstm_fw/U"]

    def test_unpadded_header_loads_bit_identically(self, saved, tmp_path):
        _, params, path = saved
        raw = path.read_bytes()
        blob = raw[HEADER_START : payload_offset(path)].rstrip(b" ")
        if (HEADER_START + len(blob)) % 8 == 0:
            blob += b" "
        unpadded = tmp_path / "unpadded.bin"
        unpadded.write_bytes(
            MAGIC + len(blob).to_bytes(8, "big") + blob + raw[payload_offset(path) :]
        )
        mapped, shifted = load_checkpoint(path), load_checkpoint(unpadded)
        for name, tensor in params.items():
            assert shifted.params[name].data.tobytes() == tensor.data.tobytes()
            assert mapped.params[name].data.tobytes() == tensor.data.tobytes()
        assert shifted.vocab == mapped.vocab and shifted.meta == mapped.meta


class TestHeaderValidation:
    def test_format_version_one_rejected(self, saved):
        _, _, path = saved
        rewrite_header(path, lambda h: h.update(format_version=1))
        with pytest.raises(CheckpointError, match="unsupported format version 1"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda h: [h], r"corrupt header: expected an object, got list"),
            (lambda h: h.update(config=[]), r"config: expected an object, got list"),
            (
                lambda h: h["config"].update(train_embeddings="no"),
                r"config\.train_embeddings: expected bool, got 'no'",
            ),
            (
                lambda h: h["config"].update(embed_dim=16.5),
                r"config\.embed_dim: expected int, got 16\.5",
            ),
            (
                lambda h: h["tensors"][0].__delitem__("shape"),
                r"tensors\[0\]: expected a name and a shape list",
            ),
            (lambda h: h["tensors"].append(h["tensors"][0]), r"tensors: 1 repeated names"),
            (
                lambda h: h["lexicon"].update(zzq="x"),
                r"lexicon: count of 'zzq' is not an integer: 'x'",
            ),
            (
                lambda h: h["thesaurus"].update(zzq=5),
                r"thesaurus: candidates of 'zzq' are not a list of words: 5",
            ),
            (
                lambda h: h["vocab"].__setitem__(slice(0, 5), list(range(5))),
                r"vocab: entry 0 is not a word",
            ),
            (
                lambda h: h["vocab"].__setitem__(1, "<unk>"),
                r"vocab: missing the special tokens \['<oov>'\]",
            ),
            (lambda h: h["vocab"].append(h["vocab"][-1]), r"vocab: 1 repeated words"),
            (lambda h: h.update(meta=[1]), r"meta: expected an object, got list"),
            (
                lambda h: h["meta"].update(threshold=True),
                r"meta\.threshold: expected a number in \(0, 1\), got True",
            ),
            (
                lambda h: h["meta"].update(seed=2.0),
                r"meta\.seed: expected a non-negative int, got 2\.0",
            ),
            (
                lambda h: h["meta"].update(epochs=-1),
                r"meta\.epochs: expected a non-negative int, got -1",
            ),
        ],
        ids=[
            "header-list",
            "config-list",
            "config-bool-as-text",
            "config-int-as-float",
            "tensor-without-shape",
            "tensor-repeated",
            "lexicon-count-text",
            "thesaurus-value-number",
            "vocab-specials-numbers",
            "vocab-without-oov",
            "vocab-repeated-word",
            "meta-list",
            "meta-threshold-bool",
            "meta-seed-float",
            "meta-epochs-negative",
        ],
    )
    def test_wrong_typed_field_is_named(self, saved, edit, message):
        _, _, path = saved
        rewrite_header(path, edit)
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)

    def test_unknown_config_key(self, saved):
        _, _, path = saved
        rewrite_header(path, lambda h: h["config"].update(banana=1))
        with pytest.raises(CheckpointError, match=r"unknown \['banana'\], missing \[\]"):
            load_checkpoint(path)

    def test_missing_tensor(self, saved, bundle, tmp_path):
        config, params, _ = saved
        path = tmp_path / "missing.bin"
        kept = {n: p for n, p in params.items() if n != "lstm_fw/W"}
        save_checkpoint(path, config, kept, bundle.vocab)
        with pytest.raises(CheckpointError, match=r"missing \['lstm_fw/W'\], unexpected \[\]"):
            load_checkpoint(path)

    def test_extra_tensor(self, saved, bundle, tmp_path):
        config, params, _ = saved
        path = tmp_path / "extra.bin"
        stale = {**params, "lstm_fw/W_i": Tensor(np.zeros((16, 8)))}
        save_checkpoint(path, config, stale, bundle.vocab)
        with pytest.raises(CheckpointError, match=r"missing \[\], unexpected \['lstm_fw/W_i'\]"):
            load_checkpoint(path)

    def test_misshapen_tensor(self, saved, bundle, tmp_path):
        config, params, _ = saved
        path = tmp_path / "misshapen.bin"
        misshapen = {**params, "sentiment/u": Tensor(np.zeros(5))}
        save_checkpoint(path, config, misshapen, bundle.vocab)
        expected = r"wrong shapes \{'sentiment/u': '\(5,\) not \(4,\)'\}"
        with pytest.raises(CheckpointError, match=expected):
            load_checkpoint(path)

    def test_embedding_rows_differ_from_vocabulary(self, saved, bundle, tmp_path):
        config, params, _ = saved
        words = bundle.vocab.words[:-1]
        path = tmp_path / "short_vocab.bin"
        vocab = Vocabulary(words, {w: i for i, w in enumerate(words)})
        save_checkpoint(path, config, params, vocab)
        expected = rf"{len(words)}-word vocabulary: .*'embedding': '\({len(words) + 1}, 16\) not"
        with pytest.raises(CheckpointError, match=expected):
            load_checkpoint(path)


class TestAtomicWrites:
    def test_failed_write_keeps_the_earlier_files(self, saved, bundle, monkeypatch):
        import emosent.artifacts
        from emosent.train import evaluate, write_report

        config, params, path = saved
        metrics = path.with_name("metrics.txt")
        write_report(evaluate(bundle.test_examples[:2], params, config), metrics)
        before = {p: p.read_bytes() for p in (path, metrics)}

        def disk_full(fd):
            raise OSError("no space left on device")

        # Each write fails after its bytes reached the temp file, before the rename.
        monkeypatch.setattr(emosent.artifacts.os, "fsync", disk_full)
        retrained = {
            n: Tensor(p.data + 1.0, requires_grad=p.requires_grad) for n, p in params.items()
        }
        with pytest.raises(OSError, match="no space"):
            save_checkpoint(path, config, retrained, bundle.vocab)
        with pytest.raises(OSError, match="no space"):
            write_report(evaluate(bundle.test_examples, retrained, config), metrics)
        assert {p: p.read_bytes() for p in (path, metrics)} == before
        assert sorted(p.name for p in path.parent.iterdir()) == ["metrics.txt", "model.bin"]
