"""Normalization pipeline: golden examples, segmentation oracle, invariants."""
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emosent.preprocess import (
    SegmentationLexicon,
    expand_contraction,
    join,
    normalize,
    segment_hashtag,
)

from oracles import enumerate_segmentations


class TestNormalizeGoldenExamples:
    def test_hashtag_is_segmented_with_hash_retained(self, lexicon):
        assert normalize("#BeautifulDay", lexicon) == ["#", "beautiful", "day"]

    def test_contraction_expanded(self, lexicon):
        assert normalize("we've", lexicon) == ["we", "have"]

    def test_mention_becomes_placeholder(self, lexicon):
        assert normalize("@John", lexicon) == ["<user>"]

    def test_standalone_number_becomes_placeholder(self, lexicon):
        assert normalize("call me at 42", lexicon) == ["call", "me", "at", "<number>"]

    def test_url_becomes_placeholder(self, lexicon):
        assert normalize("see http://t.co/ab", lexicon) == ["see", "<url>"]

    def test_combined_tweet(self, lexicon):
        tokens = normalize(
            "@Ana we've seen 42 cats #BeautifulDay www.cats.example/x", lexicon
        )
        assert tokens == [
            "<user>", "we", "have", "seen", "<number>", "cats",
            "#", "beautiful", "day", "<url>",
        ]

    def test_lowercasing_is_last(self, lexicon):
        assert normalize("GOOD Morning", lexicon) == ["good", "morning"]


class TestSegmentHashtag:
    def test_camel_body_splits_on_known_words(self, lexicon):
        assert segment_hashtag("BeautifulDay", lexicon) == ["beautiful", "day"]

    def test_single_word(self, lexicon):
        assert segment_hashtag("cat", lexicon) == ["cat"]

    def test_unknown_body_falls_back_unsplit(self, lexicon):
        assert segment_hashtag("qzxqzx", lexicon) == ["qzxqzx"]

    def test_camel_case_boundaries_are_prior_splits(self, lexicon):
        assert segment_hashtag("GoodMorningWorld", lexicon) == ["good", "morning", "world"]

    def test_digits_split_from_letters(self, lexicon):
        assert segment_hashtag("Top10", lexicon) == ["top", "10"]

    def test_empty_body(self, lexicon):
        assert segment_hashtag("", lexicon) == []

    @pytest.mark.parametrize(
        "body", ["thisisatest", "catsat", "sunshine", "happynewyear", "goodmorning"]
    )
    def test_matches_exhaustive_enumeration(self, body, lexicon):
        # Same cost model, independent search: every split pattern is tried.
        def cost(word):
            count = lexicon.counts.get(word)
            if count is None:
                return math.log(lexicon.total) + len(word) * math.log(10.0)
            return math.log(lexicon.total) - math.log(count)

        expected_words, _ = enumerate_segmentations(body, cost)
        assert segment_hashtag(body, lexicon) == expected_words

    def test_known_derivation_thisisatest(self, lexicon):
        assert segment_hashtag("thisisatest", lexicon) == ["this", "is", "a", "test"]

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_join_spells_body(self, body):
        lex = SegmentationLexicon({"ab": 10, "cd": 5, "abc": 2})
        assert "".join(segment_hashtag(body, lex)) == body


class TestExpandContraction:
    @pytest.mark.parametrize(
        "token,expected",
        [
            ("we've", ["we", "have"]),
            ("don't", ["do", "not"]),
            ("banana", ["banana"]),
            ("it's", ["it", "is"]),
            ("i'm", ["i", "am"]),
            ("you're", ["you", "are"]),
            ("she'll", ["she", "will"]),
            ("they'd", ["they", "would"]),
            ("won't", ["will", "not"]),
            ("can't", ["can", "not"]),
            ("let's", ["let", "us"]),
            ("'s", ["'s"]),
        ],
    )
    def test_table(self, token, expected):
        assert expand_contraction(token) == expected


def random_tweets():
    pieces = st.sampled_from(
        [
            "hello", "world", "GOOD", "day", "we've", "don't", "I'm",
            "@John", "@a_b1", "#BeautifulDay", "#cat", "#qzx",
            "http://t.co/ab", "www.example.com/x", "42", "3.14", "7",
            "cat!", "sun", "...",
        ]
    )
    return st.lists(pieces, min_size=1, max_size=8).map(" ".join)


class TestNormalizeInvariants:
    @given(random_tweets())
    @settings(max_examples=150, deadline=None)
    def test_idempotent(self, tweet):
        lex = SegmentationLexicon({"beautiful": 5, "day": 7, "cat": 3})
        once = normalize(tweet, lex)
        assert normalize(join(once), lex) == once

    @given(random_tweets())
    @settings(max_examples=150, deadline=None)
    def test_no_forbidden_tokens(self, tweet):
        lex = SegmentationLexicon({"beautiful": 5, "day": 7, "cat": 3})
        for token in normalize(tweet, lex):
            assert not token.startswith("@")
            assert not re.match(r"(?:https?://|www\.)", token)
            assert not token.isdigit()
            assert " " not in token and "\t" not in token
            assert token == token.lower()


class TestLexiconFile:
    def test_loads_counts(self, fixtures_dir):
        lex = SegmentationLexicon.from_file(fixtures_dir / "lexicon.txt")
        assert "beautiful" in lex and "qzxqzx" not in lex
        assert lex.counts["the"] == 22038615

    def test_malformed_line_is_reported_with_number(self, tmp_path):
        bad = tmp_path / "lex.txt"
        bad.write_text("good\t10\nbad line\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            SegmentationLexicon.from_file(bad)

    def test_non_integer_count(self, tmp_path):
        bad = tmp_path / "lex.txt"
        bad.write_text("good\tten\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 1"):
            SegmentationLexicon.from_file(bad)

    def test_negative_count_names_file_and_line(self, tmp_path):
        bad = tmp_path / "lex.txt"
        bad.write_text("good\t10\nbad\t-30\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"lex\.txt: line 2: count -30 is negative"):
            SegmentationLexicon.from_file(bad)
