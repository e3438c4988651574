"""Loader contracts: embeddings, thesaurus, corpus, vocabulary."""
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emosent import resources
from emosent.artifacts import NotRegularFileError, read_text
from emosent.checkpoint import load_checkpoint
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


# Values `float()` accepts as finite numbers, numpy's reader agreeing or
# not, and values it rejects or reads as non-finite.
FLOAT_VALUES = ("1e-320", "-0", "1_0", "\uff11", "\u0661", "+1", ".5", "1.", "\t1", "1\xa0")
BAD_VALUES = ("1e400", "-1e400", "nan", "-NaN", "inf", "Infinity", "x", "", "0x10", "1e")
WORDS = ("a", "b", "c", "\u00e9", "\u20ac", "\u4e2d\u6587", "\U0001f600", "1", "a\tb", "", *SPECIALS)
# The line breaks of `str.splitlines` besides "\n" and "\r\n".
BREAKS = ("\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


@st.composite
def decimals(draw, max_exponent=330):
    digits = draw(st.text("0123456789", min_size=1, max_size=17))
    point = draw(st.none() | st.integers(0, len(digits)))
    if point is not None:
        digits = digits[:point] + "." + digits[point:]
    exponent = draw(st.none() | st.integers(-330, max_exponent))
    sign = draw(st.sampled_from(["", "-"]))
    return sign + digits + ("" if exponent is None else f"e{exponent}")


@st.composite
def embedding_files(draw):
    """(dim, text) of a word2vec file: headers, blank and whitespace lines,
    duplicates, specials, 1- to 4-byte UTF-8 words, trailing whitespace, odd
    values, every `str.splitlines` break inside a line, and one line ending
    or a mix of them.

    Most files load, so the lines after a break are compared too. One file
    in three may fail: two to four of its lines each hold a wrong count, a
    bad value or a break that splits it, so errors compete, and its first
    line may be no header."""
    dim = draw(st.integers(1, 4))
    failing = draw(st.integers(0, 2)) == 0
    lines = []
    if draw(st.booleans()):
        heads = [f"7 {dim}", f"-3 {dim}", *([f"7 {dim} 1", "x 3"] if failing else [])]
        lines.append(draw(st.sampled_from(heads)))
    size = draw(st.integers(0, 16))
    bad = {}
    if failing and size:
        at_lines = st.sets(st.integers(0, size - 1), min_size=min(2, size), max_size=min(4, size))
        bad = {i: draw(st.sampled_from(["value", "count", "break"])) for i in draw(at_lines)}
    for i in range(size):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["", "  ", "\t", " \t "])))
            continue
        kind = bad.get(i)
        count = draw(st.integers(0, dim + 2)) if kind == "count" else dim
        # Up to an exponent of 290, no 17-digit mantissa overflows.
        value = decimals() if kind else decimals(max_exponent=290)
        odd = st.sampled_from(FLOAT_VALUES)
        values = [draw(odd if draw(st.integers(0, 9)) == 0 else value) for _ in range(count)]
        if kind == "value":
            values[draw(st.integers(0, count - 1))] = draw(st.sampled_from(BAD_VALUES))
        trailing = draw(
            st.sampled_from(["", "", "", "", "", "", "", "\t", " ", "  ", "\xa0", "\u3000"])
        )
        line = " ".join([draw(st.sampled_from(WORDS)), *values]) + trailing
        if kind == "break" or draw(st.integers(0, 2)):
            # A break at 0 or at the end adds a blank line and leaves the line
            # valid; anywhere else it splits the line.
            split = kind == "break"
            at = draw(st.integers(0, len(line)) if split else st.sampled_from([0, 0, 0, len(line)]))
            line = line[:at] + draw(st.sampled_from(BREAKS)) + line[at:]
        lines.append(line)
    if draw(st.integers(0, 7)):
        eols = st.just(draw(st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"])))
    else:
        eols = st.sampled_from(["\n", "\n", "\n", "\n", "\n", "\r\n", *BREAKS])
    ends = [draw(eols) for _ in lines]
    if ends and draw(st.booleans()):
        ends[-1] = ""
    return dim, "".join(line + end for line, end in zip(lines, ends))


def break_examples(test):
    """`test` run also on each break, once after a blank line and once
    inside a line's values, in files of newline-ended lines."""
    for brk in BREAKS:
        for text in (f"a 1 2\n{brk}b 3 4\n", f"a 1 2\nb 3{brk} 4\n"):
            test = example(case=(2, text), chunk=2, scan=7)(test)
    return test


class TestLoadEmbeddings:
    def test_round_trip_exact(self, tmp_path):
        f = write(tmp_path / "e.txt", "good 0.1 -0.25 3.0 4.5\nbad 1 2 3 4\n")
        emb = load_embeddings(f, 4)
        np.testing.assert_array_equal(emb.rows(["good"]), [[0.1, -0.25, 3.0, 4.5]])

    def test_absent_word_gets_oov_row(self, tmp_path):
        f = write(tmp_path / "e.txt", "good 1 2 3 4\n")
        emb = load_embeddings(f, 4)
        np.testing.assert_array_equal(emb.rows(["missing"]), emb.rows([OOV]))

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
            load_embeddings(f, 3).rows(["alpha"])

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_value_names_file_line_and_word(self, tmp_path, value):
        f = write(tmp_path / "e.txt", f"alpha 1 2 3\nbeta 4 {value} 6\n")
        with pytest.raises(ResourceFormatError, match=r"e\.txt: line 2: .*'beta'"):
            load_embeddings(f, 3).rows(["alpha", "beta"])

    def test_empty_file_rejected(self, tmp_path):
        f = write(tmp_path / "e.txt", "")
        with pytest.raises(ResourceFormatError, match="no embedding"):
            load_embeddings(f, 3)

    def test_pad_is_zeros_oov_is_seeded_draw(self, tmp_path):
        f = write(tmp_path / "e.txt", "alpha 1 2 3\n")
        emb1 = load_embeddings(f, 3, seed=5)
        emb2 = load_embeddings(f, 3, seed=5)
        emb3 = load_embeddings(f, 3, seed=6)
        np.testing.assert_array_equal(emb1.rows([PAD]), np.zeros((1, 3)))
        np.testing.assert_array_equal(emb1.rows([OOV]), emb2.rows([OOV]))
        assert not np.array_equal(emb1.rows([OOV]), emb3.rows([OOV]))
        assert np.all(np.abs(emb1.rows([OOV])) <= 0.2)

    def test_placeholders_get_dedicated_rows(self, tmp_path):
        f = write(tmp_path / "e.txt", "alpha 1 2 3\n")
        emb = load_embeddings(f, 3)
        rows = {emb.index[s] for s in SPECIALS}
        assert len(rows) == len(SPECIALS)
        for s in ("<user>", "<number>", "<url>"):
            assert np.any(emb.rows([s]) != 0.0)

    def test_bad_line_in_a_later_block_is_named(self, tmp_path, monkeypatch):
        monkeypatch.setattr(resources, "CHUNK_ROWS", 2)
        f = write(tmp_path / "e.txt", "a 1 2\nb 3 4\nc 5 6\nd 7 8\ne 9 x\n")
        emb = load_embeddings(f, 2)
        with pytest.raises(ResourceFormatError, match=r"line 5: non-numeric value for 'e'"):
            emb.rows(list(emb.index))

    def test_first_bad_line_of_a_block_is_named(self, tmp_path, monkeypatch):
        monkeypatch.setattr(resources, "CHUNK_ROWS", 4)
        # Every line's value count is checked at load, so the later bad line
        # holds a bad value, not a short count.
        f = write(tmp_path / "e.txt", "a 1 2 3\nb 1 x 3\nc 1 2 y\n")
        with pytest.raises(ResourceFormatError, match=r"line 2: non-numeric value for 'b'"):
            load_embeddings(f, 3).rows(["c", "b", "a"])

    def test_repeated_word_keeps_first_row_but_must_parse(self, tmp_path):
        f = write(tmp_path / "e.txt", "a 1 2\nb 3 4\na 5 6\n")
        np.testing.assert_array_equal(load_embeddings(f, 2).rows(["a"]), [[1.0, 2.0]])
        f = write(tmp_path / "e.txt", "a 1 2\nb 3 4\na 5\n")
        with pytest.raises(ResourceFormatError, match="line 3: expected 2 values for 'a', got 1"):
            load_embeddings(f, 2)

    def test_spellings_numpy_rejects_get_float_values(self, tmp_path):
        f = write(tmp_path / "e.txt", "a 1_0 \uff11 \u0661\nb 1 2 3\n")
        emb = load_embeddings(f, 3)
        np.testing.assert_array_equal(emb.rows(["a", "b"]), [[10.0, 1.0, 1.0], [1.0, 2.0, 3.0]])

    def test_non_finite_row_of_empty_word_names_its_own_line(self, tmp_path):
        f = write(tmp_path / "e.txt", "\n 1 nan\n")
        with pytest.raises(ResourceFormatError, match=r"line 2: non-finite value for ''"):
            load_embeddings(f, 2).rows([""])

    @given(
        case=embedding_files(),
        chunk=st.sampled_from([2, 3]),
        scan=st.sampled_from([1, 7, 64, resources.SCAN_BYTES]),
    )
    # Competing errors. A non-numeric line in a later chunk beats a
    # non-finite one in an earlier chunk.
    @example(case=(2, "a 1 2\nb nan 1\nc 3 4\nd x 1\n"), chunk=2, scan=7)
    # A wrong count found at load beats an earlier bad value.
    @example(case=(2, "a 1 2\nb x 1\nc 3 4\nd 1\n"), chunk=2, scan=7)
    # Of two wrong counts, the earlier (unsettled by its CR) beats the later
    # (settled, in the next scan block).
    @example(case=(2, "a 1 2\r\nb 3 4\nc 5\r\nd 6 7\ne 8\n"), chunk=2, scan=7)
    @break_examples
    @settings(max_examples=300, deadline=None)
    def test_matches_per_line_oracle(self, case, chunk, scan):
        dim, text = case

        def draw(special):
            return truncated_normal(stage_rng(3, f"embeddings/{special}"), dim)

        with (
            tempfile.TemporaryDirectory() as d,
            mock.patch.object(resources, "CHUNK_ROWS", chunk),
            mock.patch.object(resources, "SCAN_BYTES", scan),
        ):
            f = Path(d) / "e.txt"
            f.write_text(text, encoding="utf-8", newline="")
            try:
                words, matrix = load_embeddings_per_line(f, dim, SPECIALS, draw)
            except ValueError as exc:
                with pytest.raises(ResourceFormatError) as raised:
                    emb = load_embeddings(f, dim, seed=3)
                    emb.rows(list(emb.index))
                assert str(raised.value) == str(exc)
                return
            emb = load_embeddings(f, dim, seed=3)
            rows = emb.rows(list(emb.index))
        assert list(emb.index) == words
        assert rows.dtype == np.float64 and rows.shape == matrix.shape
        assert rows.tobytes() == matrix.tobytes()

    @pytest.mark.parametrize(
        "bad",
        [
            pytest.param("unused 1 x", id="unused-non-numeric"),
            pytest.param("unused nan 1", id="unused-non-finite"),
            pytest.param("a 1 x", id="repeated-non-numeric"),
            pytest.param("b inf 1", id="repeated-non-finite"),
        ],
    )
    def test_bad_value_on_a_line_no_run_uses_passes(self, tmp_path, bad):
        clean = load_embeddings(write(tmp_path / "clean.txt", "a 1 2\nb 3 4\n"), 2)
        emb = load_embeddings(write(tmp_path / "e.txt", f"a 1 2\nb 3 4\n{bad}\n"), 2)
        words = ["a", "b", "missing", *SPECIALS]
        assert emb.rows(words).tobytes() == clean.rows(words).tobytes()

    @pytest.mark.parametrize("word", ["w", "\U0001f600"], ids=["ascii", "utf8"])
    def test_load_holds_one_copy_of_the_file(self, tmp_path, word):
        # Paper-shaped lines, 300 values each, over about 16 scan blocks;
        # non-ASCII words make the load check each block's UTF-8.
        values = " 0.12345" * 300
        f = write(tmp_path / "e.txt", "".join(f"{word}{i}{values}\n" for i in range(1700)))
        size = f.stat().st_size
        assert size > 4 * resources.SCAN_BYTES
        tracemalloc.start()
        try:
            emb = load_embeddings(f, 300)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(emb.spans) == 1700
        assert peak < 1.5 * size, f"peak {peak / size:.2f}x the file"

    @pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="needs /proc/self")
    @pytest.mark.parametrize("word", ["w", "\U0001f600"], ids=["ascii", "utf8"])
    def test_load_keeps_no_copy_of_the_file(self, tmp_path, word):
        # The file of the one-copy test: the load maps it, keeps none of its
        # bytes, and leaves no mapping and no descriptor open.
        values = " 0.12345" * 300
        f = write(tmp_path / "e.txt", "".join(f"{word}{i}{values}\n" for i in range(1700)))
        size = f.stat().st_size
        # A first load makes the imports and caches of a first call, which
        # are not the load's memory.
        load_embeddings(f, 300)
        fds = sorted(os.listdir("/proc/self/fd"))
        tracemalloc.start()
        try:
            emb = load_embeddings(f, 300)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert emb.spans.dtype == np.int64 and emb.spans.shape == (1700, 3)
        assert peak < 0.25 * size, f"peak {peak / size:.2f}x the file"
        assert str(f) not in Path("/proc/self/maps").read_text()
        assert sorted(os.listdir("/proc/self/fd")) == fds

    def test_long_lines_are_counted_exactly(self, tmp_path):
        # 300 spaces read as 44 in a count that wraps at 256.
        f = write(tmp_path / "e.txt", f"w{' 1' * 44}\nv{' 1' * 300}\n")
        with pytest.raises(ResourceFormatError, match="line 2: expected 44 values for 'v', got 300"):
            load_embeddings(f, 44)

    @pytest.mark.parametrize("gap", [1, 7, resources.READ_GAP])
    def test_rows_read_in_runs_equal_the_oracle(self, tmp_path, monkeypatch, gap):
        monkeypatch.setattr(resources, "READ_GAP", gap)
        f = tmp_path / "e.txt"
        f.write_text("2 2\na 1 2\n\nb 3 4\r\n\u00e9 .5 1_0\nc 5 6  \na 7 8\nd 9 1e-320", newline="")

        def draw(special):
            return truncated_normal(stage_rng(3, f"embeddings/{special}"), 2)

        words, matrix = load_embeddings_per_line(f, 2, SPECIALS, draw)
        emb = load_embeddings(f, 2, seed=3)
        for picked in (words, words[::2], words[1::3], words[::-1]):
            expected = matrix[[words.index(w) for w in picked]]
            assert emb.rows(picked).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("change", ["rewrite", "rename"])
    def test_file_changed_since_the_load_is_named(self, tmp_path, change):
        f = write(tmp_path / "e.txt", "a 1 2\nb 3 4\n")
        emb = load_embeddings(f, 2)
        assert emb.rows(["a", "b"]).tolist() == [[1.0, 2.0], [3.0, 4.0]]
        if change == "rewrite":
            write(f, "a 1 2\nb 3 4\nc 5 6\n")
        else:
            # Same bytes and times: only the file's inode tells it apart.
            times = f.stat()
            other = write(tmp_path / "other.txt", "a 1 2\nb 3 4\n")
            os.utime(other, ns=(times.st_atime_ns, times.st_mtime_ns))
            os.replace(other, f)
        with pytest.raises(ResourceFormatError, match=f"^{re.escape(str(f))}: changed since it was indexed$"):
            emb.rows(["a"])

    @pytest.mark.parametrize("scan", [64, resources.SCAN_BYTES])
    def test_invalid_utf8_after_the_first_block_names_its_offset(self, tmp_path, monkeypatch, scan):
        monkeypatch.setattr(resources, "SCAN_BYTES", scan)
        # A wrong count ahead of the bad byte: the file is checked whole first.
        head = b"short 1\n" + b"".join(b"w%d 1 2\n" % i for i in range(scan // 4))
        f = tmp_path / "e.txt"
        f.write_bytes(head + b"bad 1 \xff\nlast 1 2\n")
        offset = len(head) + len(b"bad 1 ")
        message = f"{f}: not UTF-8 text (invalid start byte at byte {offset})"
        with pytest.raises(ValueError) as raised:
            read_text(f)
        assert str(raised.value) == message
        with pytest.raises(ValueError) as raised:
            load_embeddings(f, 2)
        assert str(raised.value) == message

    def test_specials_lines_values_are_never_read(self, tmp_path):
        f = write(tmp_path / "e.txt", f"a 1 2\n{PAD} x 1\n{OOV} nan 1\n")
        emb = load_embeddings(f, 2, seed=4)
        drawn = truncated_normal(stage_rng(4, f"embeddings/{OOV}"), 2)
        np.testing.assert_array_equal(emb.rows([PAD, OOV]), [np.zeros(2), drawn])


READERS = {
    "read_text": "from emosent.artifacts import read_text as read",
    "load_embeddings": "from emosent.resources import load_embeddings\n"
    "def read(path): load_embeddings(path, 2)",
    "load_checkpoint": "from emosent.checkpoint import load_checkpoint as read",
}


class TestNotRegularFile:
    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_directory_is_named(self, tmp_path, reader):
        read = {
            "read_text": read_text,
            "load_embeddings": lambda path: load_embeddings(path, 2),
            "load_checkpoint": load_checkpoint,
        }[reader]
        with pytest.raises(NotRegularFileError, match=f"^{re.escape(str(tmp_path))}: not a regular file$"):
            read(tmp_path)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_fifo_without_a_writer_is_named_at_once(self, tmp_path, reader):
        # In a child process with a timeout: a reader that waits for a writer
        # fails the test instead of hanging it.
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        code = (
            f"import sys\n{READERS[reader]}\n"
            "from emosent.artifacts import NotRegularFileError\n"
            "try:\n    read(sys.argv[1])\n"
            "except NotRegularFileError as exc:\n    print(exc)\n"
        )
        src = str(Path(resources.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code, str(fifo)], capture_output=True, text=True,
            timeout=60, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"{fifo}: not a regular file\n"


class TestThesaurus:
    def test_expansion_preserves_file_ranking(self, fixtures_dir):
        thes = Thesaurus.from_file(fixtures_dir / "thesaurus.tsv")
        assert thes.expand("good", 4) == ["great", "nice", "awesome", "superb"]

    def test_absent_headword(self):
        assert Thesaurus({}).expand("zzzq", 4) == []

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

    def test_blank_and_comment_lines_are_skipped(self, tmp_path):
        f = write(tmp_path / "t.tsv", "# headword\tcandidates\n\ngood\tgreat, nice\n  \n")
        assert Thesaurus.from_file(f).entries == {"good": ["great", "nice"]}

    def test_malformed_line_reported(self, tmp_path):
        f = write(tmp_path / "t.tsv", "good\tgreat\nbroken row\n")
        with pytest.raises(ResourceFormatError, match="line 2"):
            Thesaurus.from_file(f)

    def test_repeated_headword_names_its_line(self, tmp_path, fixtures_dir):
        text = (fixtures_dir / "thesaurus.tsv").read_text(encoding="utf-8")
        f = write(tmp_path / "t.tsv", text + "good\tnice\n")
        line = len(text.splitlines()) + 1
        with pytest.raises(ResourceFormatError) as caught:
            Thesaurus.from_file(f)
        assert str(caught.value) == f"{f}: line {line}: repeated headword 'good'"


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
        corpus = Corpus([Example("1", ["good"], "positive", (0,) * 8)])
        vocab = build_vocab(corpus, emb, thes, 4)
        assert "superb" in vocab

    def test_uncovered_token_resolves_to_oov(self, tmp_path):
        emb = tiny_embeddings(tmp_path, ["good"])
        corpus = Corpus([Example("1", ["good", "florble"], "positive", (0,) * 8)])
        vocab = build_vocab(corpus, emb, Thesaurus({}), 4)
        assert "florble" not in vocab
        assert vocab.id_of("florble") == vocab.index[OOV]

    def test_empty_thesaurus_gives_covered_tokens_plus_specials(self, tmp_path):
        emb = tiny_embeddings(tmp_path, ["good", "day"])
        corpus = Corpus([Example("1", ["good", "day", "zzz"], "other", (0,) * 8)])
        vocab = build_vocab(corpus, emb, Thesaurus({}), 4)
        assert vocab.words == list(SPECIALS) + ["day", "good"]

    def test_ids_round_trip_stably(self, tmp_path):
        emb = tiny_embeddings(tmp_path, ["good", "day", "great"])
        thes = Thesaurus({"good": ["great"]})
        corpus = Corpus([Example("1", ["good", "day"], "positive", (0,) * 8)])
        vocab = build_vocab(corpus, emb, thes, 4)
        rows = vocab_embedding_rows(vocab, emb)
        for word in vocab.words:
            i = vocab.index[word]
            assert vocab.words[i] == word
            np.testing.assert_array_equal(rows[i], emb.rows([word])[0])
            assert vocab.id_of(word) == i

    def test_embedding_rows_equal_per_word_lookup(self, fixtures_dir):
        emb = load_embeddings(fixtures_dir / "embeddings.txt", 16)
        thes = Thesaurus.from_file(fixtures_dir / "thesaurus.tsv")
        vocab = build_vocab(load_corpus(fixtures_dir / "corpus_train.tsv"), emb, thes, 4)
        rows = vocab_embedding_rows(vocab, emb)
        expected = np.vstack([emb.rows([w]) for w in vocab.words])
        assert rows.dtype == expected.dtype and rows.shape == expected.shape
        assert rows.flags.c_contiguous
        assert rows.tobytes() == expected.tobytes()


class TestEncodeExample:
    def test_candidates_filtered_to_vocabulary(self, tmp_path):
        emb = tiny_embeddings(tmp_path, ["good", "great", "nice"])
        thes = Thesaurus({"good": ["great", "nice", "awesome", "superb"]})
        corpus = Corpus([Example("1", ["good", "day"], "positive", (0, 0, 0, 0, 1, 0, 0, 0))])
        vocab = build_vocab(corpus, emb, thes, 4)
        enc = encode_example(corpus.examples[0], vocab, thes, 4)
        assert enc.token_ids == [vocab.index["good"], vocab.index[OOV]]
        assert enc.candidate_ids == [[vocab.index["great"], vocab.index["nice"]], []]
        assert enc.emotions.dtype == np.float64
        np.testing.assert_array_equal(enc.emotions, [0, 0, 0, 0, 1, 0, 0, 0])

    def test_without_thesaurus_candidates_empty(self, tmp_path):
        emb = tiny_embeddings(tmp_path, ["good"])
        corpus = Corpus([Example("1", ["good"], "positive", (0,) * 8)])
        vocab = build_vocab(corpus, emb, Thesaurus({}), 4)
        enc = encode_example(corpus.examples[0], vocab, Thesaurus({}), 4)
        assert enc.candidate_ids == [[]]


class TestBundledFixtures:
    def test_full_pipeline_loads(self, fixtures_dir):
        emb = load_embeddings(fixtures_dir / "embeddings.txt", 16)
        thes = Thesaurus.from_file(fixtures_dir / "thesaurus.tsv")
        train = load_corpus(fixtures_dir / "corpus_train.tsv")
        test = load_corpus(fixtures_dir / "corpus_test.tsv")
        assert len(train.examples) == 32 and len(test.examples) == 8
        vocab = build_vocab(train, emb, thes, 4)
        encoded = resources.encode_corpus(train, vocab, thes, 4)
        assert all(len(e.token_ids) == len(e.candidate_ids) for e in encoded)
        assert "joysyna" in vocab
        labels = {e.sentiment for e in train.examples}
        assert labels == {"positive", "negative", "other"}
