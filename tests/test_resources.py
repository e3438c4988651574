"""Loader contracts: embeddings, thesaurus, corpus, vocabulary."""
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emosent import resources
from emosent.resources import (
    Corpus,
    CorpusIntegrityError,
    EMOTIONS,
    Example,
    OOV,
    PAD,
    ResourceFormatError,
    SPECIALS,
    Thesaurus,
    build_vocab,
    encode_example,
    load_corpus,
    load_embeddings,
    vocab_embedding_rows,
)
from emosent.rng import stage_rng, truncated_normal

from oracles import load_embeddings_per_line


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


# Values `float()` accepts or rejects, numpy's reader agreeing or not.
ODD_VALUES = (
    "1e400", "-1e400", "1e-320", "nan", "-NaN", "inf", "Infinity", "-0", "1_0", "\uff11",
    "\u0661", "+1", ".5", "1.", "x", "", "\t1", "1\xa0", "0x10", "1e",
)
WORDS = ("a", "b", "c", "\u00e9", "1", "a\tb", "", *SPECIALS)


@st.composite
def decimals(draw):
    digits = draw(st.text("0123456789", min_size=1, max_size=17))
    point = draw(st.none() | st.integers(0, len(digits)))
    if point is not None:
        digits = digits[:point] + "." + digits[point:]
    exponent = draw(st.none() | st.integers(-330, 330))
    sign = draw(st.sampled_from(["", "-"]))
    return sign + digits + ("" if exponent is None else f"e{exponent}")


@st.composite
def embedding_files(draw):
    """(dim, text) of a word2vec file: headers, blank and whitespace lines,
    duplicates, specials, trailing whitespace, odd values, wrong counts and
    three line endings."""
    dim = draw(st.integers(1, 4))
    lines = []
    if draw(st.booleans()):
        lines.append(draw(st.sampled_from([f"7 {dim}", f"-3 {dim}", f"7 {dim} 1", "x 3"])))
    for _ in range(draw(st.integers(0, 10))):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["", "  ", "\t", " \t "])))
            continue
        count = dim if draw(st.integers(0, 19)) else draw(st.integers(0, dim + 2))
        odd = draw(st.integers(0, 4)) == 0
        values = [
            draw(st.sampled_from(ODD_VALUES)) if odd and draw(st.booleans()) else draw(decimals())
            for _ in range(count)
        ]
        trailing = draw(st.sampled_from(["", "", "", "\t", " ", "  ", "\xa0"]))
        lines.append(" ".join([draw(st.sampled_from(WORDS)), *values]) + trailing)
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return dim, eol.join(lines) + draw(st.sampled_from(["", eol]))


class TestLoadEmbeddings:
    def test_round_trip_exact(self, tmp_path):
        f = write(tmp_path / "e.txt", "good 0.1 -0.25 3.0 4.5\nbad 1 2 3 4\n")
        emb = load_embeddings(f, 4)
        np.testing.assert_array_equal(emb.lookup("good"), [0.1, -0.25, 3.0, 4.5])

    def test_absent_word_gets_oov_row(self, tmp_path):
        f = write(tmp_path / "e.txt", "good 1 2 3 4\n")
        emb = load_embeddings(f, 4)
        np.testing.assert_array_equal(emb.lookup("missing"), emb.matrix[emb.index[OOV]])

    def test_header_line_skipped(self, tmp_path):
        f = write(tmp_path / "e.txt", "2 3\nalpha 1 2 3\nbeta 4 5 6\n")
        emb = load_embeddings(f, 3)
        assert set(emb.index) == {"alpha", "beta", *SPECIALS}

    def test_wrong_dimension_names_line(self, tmp_path):
        f = write(tmp_path / "e.txt", "alpha 1 2 3\nbeta 4 5\n")
        with pytest.raises(ResourceFormatError, match="line 2"):
            load_embeddings(f, 3)

    def test_non_numeric_value_names_line(self, tmp_path):
        f = write(tmp_path / "e.txt", "alpha 1 x 3\n")
        with pytest.raises(ResourceFormatError, match="line 1"):
            load_embeddings(f, 3)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_value_names_file_line_and_word(self, tmp_path, value):
        f = write(tmp_path / "e.txt", f"alpha 1 2 3\nbeta 4 {value} 6\n")
        with pytest.raises(ResourceFormatError, match=r"e\.txt: line 2: .*'beta'"):
            load_embeddings(f, 3)

    def test_empty_file_rejected(self, tmp_path):
        f = write(tmp_path / "e.txt", "")
        with pytest.raises(ResourceFormatError, match="no embedding"):
            load_embeddings(f, 3)

    def test_pad_is_zeros_oov_is_seeded_draw(self, tmp_path):
        f = write(tmp_path / "e.txt", "alpha 1 2 3\n")
        emb1 = load_embeddings(f, 3, seed=5)
        emb2 = load_embeddings(f, 3, seed=5)
        emb3 = load_embeddings(f, 3, seed=6)
        np.testing.assert_array_equal(emb1.lookup(PAD), np.zeros(3))
        np.testing.assert_array_equal(emb1.lookup(OOV), emb2.lookup(OOV))
        assert not np.array_equal(emb1.lookup(OOV), emb3.lookup(OOV))
        assert np.all(np.abs(emb1.lookup(OOV)) <= 0.2)

    def test_placeholders_get_dedicated_rows(self, tmp_path):
        f = write(tmp_path / "e.txt", "alpha 1 2 3\n")
        emb = load_embeddings(f, 3)
        rows = {emb.row_id(s) for s in SPECIALS}
        assert len(rows) == len(SPECIALS)
        for s in ("<user>", "<number>", "<url>"):
            assert np.any(emb.lookup(s) != 0.0)

    def test_bad_line_in_a_later_block_is_named(self, tmp_path, monkeypatch):
        monkeypatch.setattr(resources, "CHUNK_ROWS", 2)
        f = write(tmp_path / "e.txt", "a 1 2\nb 3 4\nc 5 6\nd 7 8\ne 9 x\n")
        with pytest.raises(ResourceFormatError, match=r"line 5: non-numeric value for 'e'"):
            load_embeddings(f, 2)

    def test_first_bad_line_of_a_block_is_named(self, tmp_path, monkeypatch):
        monkeypatch.setattr(resources, "CHUNK_ROWS", 4)
        f = write(tmp_path / "e.txt", "a 1 2 3\nb 1 x 3\nc 1 2\n")
        with pytest.raises(ResourceFormatError, match=r"line 2: non-numeric value for 'b'"):
            load_embeddings(f, 3)

    def test_repeated_word_keeps_first_row_but_must_parse(self, tmp_path):
        f = write(tmp_path / "e.txt", "a 1 2\nb 3 4\na 5 6\n")
        np.testing.assert_array_equal(load_embeddings(f, 2).lookup("a"), [1.0, 2.0])
        f = write(tmp_path / "e.txt", "a 1 2\nb 3 4\na 5\n")
        with pytest.raises(ResourceFormatError, match="line 3: expected 2 values for 'a', got 1"):
            load_embeddings(f, 2)

    def test_spellings_numpy_rejects_get_float_values(self, tmp_path):
        f = write(tmp_path / "e.txt", "a 1_0 \uff11 \u0661\nb 1 2 3\n")
        emb = load_embeddings(f, 3)
        np.testing.assert_array_equal(emb.lookup("a"), [10.0, 1.0, 1.0])
        np.testing.assert_array_equal(emb.lookup("b"), [1.0, 2.0, 3.0])

    def test_non_finite_row_of_empty_word_names_its_own_line(self, tmp_path):
        f = write(tmp_path / "e.txt", "\n 1 nan\n")
        with pytest.raises(ResourceFormatError, match=r"line 2: non-finite value for ''"):
            load_embeddings(f, 2)

    @given(case=embedding_files(), chunk=st.sampled_from([2, 3]))
    @settings(max_examples=300, deadline=None)
    def test_matches_per_line_oracle(self, case, chunk):
        dim, text = case

        def draw(special):
            return truncated_normal(stage_rng(3, f"embeddings/{special}"), dim)

        with tempfile.TemporaryDirectory() as d, mock.patch.object(resources, "CHUNK_ROWS", chunk):
            f = Path(d) / "e.txt"
            f.write_text(text, encoding="utf-8", newline="")
            try:
                words, matrix = load_embeddings_per_line(f, dim, SPECIALS, draw)
            except ValueError as exc:
                with pytest.raises(ResourceFormatError) as raised:
                    load_embeddings(f, dim, seed=3)
                assert str(raised.value) == str(exc)
                return
            emb = load_embeddings(f, dim, seed=3)
        assert list(emb.index) == words
        assert emb.matrix.dtype == np.float64 and emb.matrix.shape == matrix.shape
        assert emb.matrix.tobytes() == matrix.tobytes()


class TestThesaurus:
    def test_expansion_preserves_file_ranking(self, fixtures_dir):
        thes = Thesaurus.from_file(fixtures_dir / "thesaurus.tsv")
        assert thes.expand("good", 4) == ["great", "nice", "awesome", "superb"]

    def test_absent_headword(self):
        assert Thesaurus({}).expand("zzzq") == []

    def test_short_list_not_padded(self):
        thes = Thesaurus({"big": ["large", "huge"]})
        assert thes.expand("big", 4) == ["large", "huge"]

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            Thesaurus({"a": ["b"]}).expand("a", 0)

    def test_duplicates_and_headword_removed(self):
        thes = Thesaurus({"good": ["great", "good", "great", "nice"]})
        assert thes.expand("good", 4) == ["great", "nice"]

    @pytest.mark.parametrize("candidates", [5, "great", ["great", None]])
    def test_candidates_must_be_a_list_of_words(self, candidates):
        with pytest.raises(TypeError, match="candidates of 'good' are not a list of words"):
            Thesaurus({"big": ["large"], "good": candidates})

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_prefix_property(self, fixtures_dir, k):
        thes = Thesaurus.from_file(fixtures_dir / "thesaurus.tsv")
        assert thes.expand("good", k) == thes.expand("good", 4)[:k]

    def test_malformed_line_reported(self, tmp_path):
        f = write(tmp_path / "t.tsv", "good\tgreat\nbroken row\n")
        with pytest.raises(ResourceFormatError, match="line 2"):
            Thesaurus.from_file(f)


class TestLoadCorpus:
    def test_field_mapping(self, tmp_path):
        f = write(tmp_path / "c.tsv", "7\ti love this\tpositive\t0 1 0 0 1 0 0 1\n")
        corpus = load_corpus(f)
        ex = corpus.examples[0]
        assert ex.id == "7"
        assert ex.tokens == ["i", "love", "this"]
        assert ex.sentiment == "positive"
        set_emotions = {EMOTIONS[i] for i, b in enumerate(ex.emotions) if b}
        assert set_emotions == {"anticipation", "joy", "trust"}

    def test_seven_bits_rejected_with_line(self, tmp_path):
        f = write(tmp_path / "c.tsv", "1\tok\tpositive\t0 1 0 0 1 0 0 1\n2\tbad\tnegative\t0 1 0 0 1 0 0\n")
        with pytest.raises(ResourceFormatError, match="line 2"):
            load_corpus(f)

    def test_duplicate_id_rejected(self, tmp_path):
        f = write(
            tmp_path / "c.tsv",
            "1\ta\tpositive\t1 0 0 0 0 0 0 0\n1\tb\tnegative\t1 0 0 0 0 0 0 0\n",
        )
        with pytest.raises(CorpusIntegrityError, match="duplicate id"):
            load_corpus(f)

    def test_unknown_sentiment_rejected(self, tmp_path):
        f = write(tmp_path / "c.tsv", "1\ta\tmeh\t1 0 0 0 0 0 0 0\n")
        with pytest.raises(ResourceFormatError, match="line 1"):
            load_corpus(f)

    def test_wrong_field_count_rejected(self, tmp_path):
        f = write(tmp_path / "c.tsv", "1\tonly text\n")
        with pytest.raises(ResourceFormatError, match="line 1"):
            load_corpus(f)

    def test_comments_and_blanks_ignored(self, tmp_path):
        f = write(
            tmp_path / "c.tsv",
            "# header comment\n\n1\ta b\tother\t0 0 0 0 0 0 0 1\n",
        )
        assert len(load_corpus(f).examples) == 1

    def test_serialize_round_trips(self, tmp_path):
        text = (
            "1\tposword joyword\tpositive\t0 0 0 0 1 0 0 0\n"
            "2\tnegword\tnegative\t1 0 1 0 0 0 0 0\n"
        )
        f = write(tmp_path / "c.tsv", text)
        assert load_corpus(f).examples == [
            Example("1", ["posword", "joyword"], "positive", (0, 0, 0, 0, 1, 0, 0, 0)),
            Example("2", ["negword"], "negative", (1, 0, 1, 0, 0, 0, 0, 0)),
        ]


def tiny_embeddings(tmp_path, words, dim=4):
    rng = np.random.default_rng(1)
    lines = [w + " " + " ".join(str(round(v, 4)) for v in rng.normal(size=dim)) for w in words]
    f = write(tmp_path / "emb.txt", "\n".join(lines) + "\n")
    return load_embeddings(f, dim)


class TestBuildVocab:
    def test_candidates_enter_vocab_even_when_unseen(self, tmp_path):
        emb = tiny_embeddings(tmp_path, ["good", "great", "nice", "awesome", "superb"])
        thes = Thesaurus({"good": ["great", "nice", "awesome", "superb"]})
        corpus = Corpus("t", [Example("1", ["good"], "positive", (0,) * 8)])
        vocab = build_vocab(corpus, emb, thes)
        assert "superb" in vocab

    def test_uncovered_token_resolves_to_oov(self, tmp_path):
        emb = tiny_embeddings(tmp_path, ["good"])
        corpus = Corpus("t", [Example("1", ["good", "florble"], "positive", (0,) * 8)])
        vocab = build_vocab(corpus, emb)
        assert "florble" not in vocab
        assert vocab.id_of("florble") == vocab.index[OOV]

    def test_empty_thesaurus_gives_covered_tokens_plus_specials(self, tmp_path):
        emb = tiny_embeddings(tmp_path, ["good", "day"])
        corpus = Corpus("t", [Example("1", ["good", "day", "zzz"], "other", (0,) * 8)])
        vocab = build_vocab(corpus, emb, Thesaurus({}))
        assert vocab.words == list(SPECIALS) + ["day", "good"]

    def test_ids_round_trip_stably(self, tmp_path):
        emb = tiny_embeddings(tmp_path, ["good", "day", "great"])
        thes = Thesaurus({"good": ["great"]})
        corpus = Corpus("t", [Example("1", ["good", "day"], "positive", (0,) * 8)])
        vocab = build_vocab(corpus, emb, thes)
        rows = vocab_embedding_rows(vocab, emb)
        for word in vocab.words:
            i = vocab.index[word]
            assert vocab.words[i] == word
            np.testing.assert_array_equal(rows[i], emb.lookup(word))
            assert vocab.id_of(word) == i

    def test_embedding_rows_equal_per_word_lookup(self, fixtures_dir):
        emb = load_embeddings(fixtures_dir / "embeddings.txt", 16)
        thes = Thesaurus.from_file(fixtures_dir / "thesaurus.tsv")
        vocab = build_vocab(load_corpus(fixtures_dir / "corpus_train.tsv"), emb, thes)
        rows = vocab_embedding_rows(vocab, emb)
        expected = np.vstack([emb.lookup(w) for w in vocab.words])
        assert rows.dtype == expected.dtype and rows.shape == expected.shape
        assert rows.flags.c_contiguous
        assert rows.tobytes() == expected.tobytes()


class TestEncodeExample:
    def test_candidates_filtered_to_vocabulary(self, tmp_path):
        emb = tiny_embeddings(tmp_path, ["good", "great", "nice"])
        thes = Thesaurus({"good": ["great", "nice", "awesome", "superb"]})
        corpus = Corpus("t", [Example("1", ["good", "day"], "positive", (0, 0, 0, 0, 1, 0, 0, 0))])
        vocab = build_vocab(corpus, emb, thes)
        enc = encode_example(corpus.examples[0], vocab, thes)
        assert enc.token_ids == [vocab.index["good"], vocab.index[OOV]]
        assert enc.candidate_ids == [[vocab.index["great"], vocab.index["nice"]], []]
        assert enc.emotions.dtype == np.float64
        np.testing.assert_array_equal(enc.emotions, [0, 0, 0, 0, 1, 0, 0, 0])

    def test_without_thesaurus_candidates_empty(self, tmp_path):
        emb = tiny_embeddings(tmp_path, ["good"])
        corpus = Corpus("t", [Example("1", ["good"], "positive", (0,) * 8)])
        vocab = build_vocab(corpus, emb)
        enc = encode_example(corpus.examples[0], vocab)
        assert enc.candidate_ids == [[]]


class TestBundledFixtures:
    def test_full_pipeline_loads(self, fixtures_dir):
        emb = load_embeddings(fixtures_dir / "embeddings.txt", 16)
        thes = Thesaurus.from_file(fixtures_dir / "thesaurus.tsv")
        train = load_corpus(fixtures_dir / "corpus_train.tsv")
        test = load_corpus(fixtures_dir / "corpus_test.tsv")
        assert len(train.examples) == 32 and len(test.examples) == 8
        vocab = build_vocab(train, emb, thes)
        encoded = resources.encode_corpus(train, vocab, thes)
        assert all(len(e.token_ids) == len(e.candidate_ids) for e in encoded)
        assert "joysyna" in vocab
        labels = {e.sentiment for e in train.examples}
        assert labels == {"positive", "negative", "other"}
