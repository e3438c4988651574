"""Loader contracts: embeddings, thesaurus, corpus, vocabulary."""
import numpy as np
import pytest

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
    serialize_corpus,
    vocab_embedding_rows,
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


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
        assert serialize_corpus(load_corpus(f)) == text


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
