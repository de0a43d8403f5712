"""The columnar parser and index against the dict-based reference in corpus_oracle."""

import io
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import corpus_oracle
from folkmetrics import corpus
from folkmetrics.corpus import (
    Annotation,
    AnnotationColumns,
    build_index,
    parse_annotations,
    write_annotations,
)
from folkmetrics.errors import DomainError, FormatError

from conftest import item_tag_freq, make_annotations, make_columns

# times near the top of int64 parse; 2**63 and more are malformed
WIDE = [2**63 - 1, 10**18]
TOO_BIG = [2**63, 2**70, 10**20]

# padding str.strip removes and bytes.strip keeps, a NUL, names past 8 bytes: at and just past
# each 8-byte word edge, 70 bytes, a 2-byte character across byte 8 and a 3-byte one across 16
ids = st.sampled_from(["u1", "U1", " u1", "u2 ", "ü", "Ü", "\x1cu1\x1f", "u2\x85", "\xa0u1",
                       "\x85", "u-longer-than-8", "\x00u", "abcdefgü", "abcdefghijklmno€",
                       *("u" * n for n in (8, 9, 16, 17, 32, 33, 70))])
# mixed-case Unicode, some of whose lowercase forms coincide or grow longer, and as wide as ids
tags = st.sampled_from(["Rock", "rock", " ROCK ", "İ", "i̇", "Straße", "STRASSE", "ǅ", "Σ", "σ",
                        "\x1dRock\x1e", "Straße-Und-Weg", "ABCDEFGÜ", "ABCDEFGHIJKLMNO€",
                        *("T" * n for n in (8, 9, 16, 17, 32, 33, 70))])
stamps = st.one_of(
    st.integers(0, 4).map(str),
    st.sampled_from([str(t) for t in WIDE + TOO_BIG]
                    + ["007", "0" * 20 + "5", "9" * 18, "1" * 19]),
    st.sampled_from(["-1", "", " 5", "x", "1_0", "٥", "²"]),
)
delimiters = st.sampled_from(["\t", ",", "||", "·"])


@st.composite
def texts(draw):
    """(delimiter, header, lines): lines with their own line breaks, the last one maybe without."""
    delimiter = draw(delimiters)
    good = st.tuples(ids, ids, tags, stamps).map(delimiter.join)
    bad = st.lists(ids, min_size=1, max_size=6).filter(lambda f: len(f) != 4).map(delimiter.join)
    blank = st.sampled_from(["", " ", "\t\t\t", "  \t "])
    line = st.one_of(good, good, good, bad, blank)
    body = draw(st.lists(st.tuples(line, st.sampled_from(["\n", "\r\n"])), max_size=30))
    lines = [text + ending for text, ending in body]
    if lines and draw(st.booleans()):
        lines[-1] = body[-1][0]
    header = draw(st.booleans())
    if header:
        lines.insert(0, delimiter.join(["user", "item", "tag", "time"]) + "\n")
    return delimiter, header, lines


def sources(lines):
    """The same input as a text stream and as a binary stream: one for the parser, one for the
    reference."""
    text = "".join(lines)
    yield io.StringIO(text), io.StringIO(text)
    yield io.BytesIO(text.encode()), io.BytesIO(text.encode())


@settings(max_examples=150, deadline=None)
@given(texts(), st.sampled_from([1, 2, 3, corpus.CHUNK_LINES]))
# users of two words and items of four, whose names sort by their first words
@example(("\t", False, ["abcdefgü\tabcdefghijklmno€\tt\t1\n", "u-longer-than-8\t" + "u" * 17
                        + "\tt\t2\n"]), corpus.CHUNK_LINES)
def test_parse_matches_the_reference(case, chunk):
    delimiter, header, lines = case
    with mock.patch.object(corpus, "CHUNK_LINES", chunk):
        for source, same in sources(lines):
            try:
                expected = corpus_oracle.parse_annotations(same, delimiter, header)
            except FormatError:
                with pytest.raises(FormatError):
                    parse_annotations(source, delimiter, header=header)
                continue
            got = parse_annotations(source, delimiter, header=header)
            assert list(got.annotations) == expected.annotations
            # each name list holds the names that occur, sorted, so codes compare as names do
            c = got.annotations
            assert [c.users, c.items, c.tags] == [
                sorted({a[k] for a in expected.annotations}) for k in range(3)]
            assert got.malformed == expected.malformed
            assert len(got.annotations) == len(expected.annotations)


@pytest.mark.parametrize("chunk", [1, 2, 3, corpus.CHUNK_LINES])
@pytest.mark.parametrize("delimiter, lines", [
    # padding that str.strip removes and bytes.strip keeps
    ("\t", ["\x1cu1\x1f\t\x85i\xa0\tROCK\x1e\t1\n", "u1\ti\t\x1drock\t2\n", "u1\ti\trock\t3\n"]),
    ("\t", ["a-user-longer-than-8\ti\tTag-Longer-Than-8\t1\n", "u\tan-item-ü-longer\tt\t2\n",
            "u\ti\ttag-longer-than-8\t3\n"]),
    ("\t", ["u\ti\tt\t" + "9" * 18 + "\n", "u\ti\tt\t" + "9" * 19 + "\n", "u\ti\tt\t1\n"]),
    ("\t", ["u\x00\ti\tt\t1\n", "u\ti\tt\t2\n"]),
    ("\t", ["u\t \tt\t1\n", "u\ti\t\xa0\t2\n", "u\ti\tt\t3\n", "u\ti\tt\t4\n", "u\ti\tt\t5\n"]),
    ("·", ["u·i·t·1\n", "ü·i·t·2\n"]),
    ("\t", ["u\ti\tt\t1\n", "u\ti\tt\t2"]),
])
def test_parse_edge_cases_match_the_reference(delimiter, lines, chunk):
    with mock.patch.object(corpus, "CHUNK_LINES", chunk):
        for source, same in sources(lines):
            expected = corpus_oracle.parse_annotations(same, delimiter)
            got = parse_annotations(source, delimiter)
            assert list(got.annotations) == expected.annotations
            assert got.malformed == expected.malformed


def test_well_formed_chunks_skip_the_general_parser():
    """Only a line the vector checks flag leaves the vector path, to be settled by itself."""
    lines = [b"u%d\ti%d\tT%d\t%d\n" % (k % 7, k % 5, k % 3, k) for k in range(10)]
    with mock.patch.object(corpus, "CHUNK_LINES", 4), \
            mock.patch.object(corpus, "_settle", wraps=corpus._settle) as settle:
        clean = parse_annotations(io.BytesIO(b"".join(lines)))
        assert settle.call_count == 0
        assert list(clean.annotations) == corpus_oracle.parse_annotations(lines).annotations
        lines[5] = b"u1\ti1\tt1\tx\n"
        dirty = parse_annotations(io.BytesIO(b"".join(lines)))
        assert settle.call_args_list == [mock.call("u1\ti1\tt1\tx", "\t")]
        expected = corpus_oracle.parse_annotations(lines)
        assert (list(dirty.annotations), dirty.malformed) == (expected.annotations, 1)


class Trickle(io.RawIOBase):
    """A binary stream that gives at most `step` bytes a read, so blocks end anywhere."""

    def __init__(self, data: bytes, step: int):
        self.data, self.at, self.step = data, 0, step

    def readable(self):
        return True

    def readinto(self, buffer):
        n = min(len(buffer), self.step, len(self.data) - self.at)
        buffer[:n] = self.data[self.at:self.at + n]
        self.at += n
        return n


def columns_of(parsed):
    c = parsed.annotations
    return ([column.tolist() for column in (c.user, c.item, c.tag, c.time)],
            [str(column.dtype) for column in (c.user, c.item, c.tag, c.time)],
            (c.users, c.items, c.tags), parsed.malformed)


@settings(max_examples=150, deadline=None)
@given(texts(), st.sampled_from([1, 2, 3]), st.integers(1, 40))
def test_blocks_cut_anywhere_give_the_same_columns(case, chunk, step):
    """Short reads and small blocks cut the input at every place: between the two bytes of a
    CRLF, inside a line, a field or a multi-byte character."""
    delimiter, header, lines = case
    data = "".join(lines).encode()
    try:
        expected = corpus_oracle.parse_annotations(io.BytesIO(data), delimiter, header)
    except FormatError:
        with mock.patch.object(corpus, "CHUNK_LINES", chunk), pytest.raises(FormatError):
            parse_annotations(Trickle(data, step), delimiter, header=header)
        return
    whole = parse_annotations(io.BytesIO(data), delimiter, header=header)
    with mock.patch.object(corpus, "CHUNK_LINES", chunk):
        cut = parse_annotations(Trickle(data, step), delimiter, header=header)
    assert list(cut.annotations) == expected.annotations
    assert cut.malformed == expected.malformed
    assert columns_of(cut) == columns_of(whole)


@pytest.mark.parametrize("chunk", [1, 3, corpus.CHUNK_LINES])
@pytest.mark.parametrize("delimiter", ["\t", "·", "||"])
def test_scattered_bad_lines_are_settled_in_place(delimiter, chunk):
    bad = {
        17: "x",
        40: "",  # empty: never flagged
        41: "  \t ",
        77: delimiter.join(["u\0", "i", "T1", "5"]),
        90: delimiter.join(["u", "i", "t", "1" * 25]),
        120: delimiter.join(["u", "i\0", "t", str(2**63 - 1)]),
        130: delimiter.join(["u", "i", "t", str(2**63)]),
        150: delimiter.join(["u", "", "t", "1"]),
        160: delimiter.join(["u", "i", "t", "1x"]),
        170: "u" + delimiter * 5,
        180: delimiter.join(["u", "i", "t", "1\0"]),
        190: delimiter.join(["u", "i", "t", "0" * 20 + "3"]),
    }
    lines = [bad.get(k, delimiter.join([f"u{k % 13}", f"i{k % 7}", f"T{k % 5}", str(k)]))
             + ("\r\n" if k % 3 else "\n") for k in range(200)]
    data = "".join(lines).encode()
    expected = corpus_oracle.parse_annotations(io.BytesIO(data), delimiter)
    with mock.patch.object(corpus, "CHUNK_LINES", chunk), \
            mock.patch.object(corpus, "_settle", wraps=corpus._settle) as settle:
        got = parse_annotations(io.BytesIO(data), delimiter)
    assert list(got.annotations) == expected.annotations
    assert got.malformed == expected.malformed == 7
    assert settle.call_count == len(bad) - 1
    assert got.annotations.time.dtype == np.int64
    # lines 17, 40, 41 and 90 hold no annotation
    assert list(got.annotations)[116] == Annotation("u", "i\0", "t", 2**63 - 1)


def test_a_megabyte_name_in_a_chunk_of_short_ones():
    name = "n" * 10**6
    lines = [f"u{k}\ti\tt\t{k}\n" for k in range(200)] + [f"u\t{name}\tT\t7\n"]
    source = io.BytesIO("".join(lines).encode())
    tracemalloc.start()
    try:
        got = parse_annotations(source)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert list(got.annotations)[200] == Annotation("u", name, "t", 7)
    assert list(got.annotations) == corpus_oracle.parse_annotations(lines).annotations
    # keys as wide as the widest name for all 201 lines would take over 200 MB
    assert peak < 40 * 10**6


rows = st.lists(
    st.tuples(
        st.sampled_from(["u0", "u1", "U1", "ü"]),
        st.sampled_from(["i0", "i1", "i2"]),
        st.sampled_from(["rock", "jazz", "σ"]),
        # ties, timestamps out of order, and a few near the top of int64
        st.one_of(st.integers(0, 3), st.sampled_from(WIDE)),
    ),
    max_size=40,
)

def assert_same_index(index, expected):
    c = index.columns
    assert tuple(c) == expected.annotations
    assert index.n_annotations == len(expected.annotations)
    for counts, names, view in ((index.user_counts, c.users, expected.by_user),
                                (index.item_counts, c.items, expected.by_item),
                                (index.tag_counts, c.tags, expected.by_tag)):
        assert dict(zip(names, counts.tolist())) == {k: len(p) for k, p in view.items()}
    assert item_tag_freq(index) == expected.item_tag_freq


@settings(max_examples=150, deadline=None)
@given(rows, st.booleans())
def test_index_matches_the_reference(rows, dedupe):
    expected = corpus_oracle.build_index(make_annotations(rows), dedupe=dedupe)
    assert_same_index(build_index(make_columns(rows), dedupe=dedupe), expected)


@settings(max_examples=100, deadline=None)
@given(rows)
def test_dedupe_is_idempotent(rows):
    once = build_index(make_columns(rows), dedupe=True)
    written = io.StringIO()
    write_annotations(once.columns, written)
    reparsed = parse_annotations(io.StringIO(written.getvalue())).annotations
    for source in (once.columns, reparsed):
        assert_same_index(build_index(source, dedupe=True), corpus_oracle.views(once))


def test_codes_follow_sorted_names():
    parsed = parse_annotations(io.StringIO("b\ty\tZeta\t1\na\tz\talpha\t2\nb\tx\tzeta\t3\n"))
    columns = parsed.annotations
    assert (columns.users, columns.items, columns.tags) == (["a", "b"], ["x", "y", "z"],
                                                            ["alpha", "zeta"])
    assert columns.user.dtype == columns.item.dtype == columns.tag.dtype == np.int32
    assert columns.user.tolist() == [1, 0, 1]
    assert columns.item.tolist() == [1, 2, 0]
    assert columns.tag.tolist() == [1, 0, 1]
    assert columns.time.dtype == np.int64


def test_nineteen_digit_times_skip_the_general_parser():
    """Every time below 2**63 is read by the vector checks; 2**63 and more are malformed."""
    times = [2**63 - 1, 10**18, 1234567890123456789, 7]
    text = "".join(f"u{k}\ti\tt\t{t}\n" for k, t in enumerate(times))
    with mock.patch.object(corpus, "_settle", wraps=corpus._settle) as settle:
        parsed = parse_annotations(io.StringIO(text))
    assert settle.call_count == 0
    assert parsed.annotations.time.dtype == np.int64
    assert (parsed.annotations.time.tolist(), parsed.malformed) == (times, 0)
    for big in ["9223372036854775808", "9" * 19, str(2**64), "1" + "0" * 4999]:
        parsed = parse_annotations(io.StringIO(text + f"u\ti\tt\t{big}\n"))
        assert (parsed.annotations.time.tolist(), parsed.malformed) == (times, 1)
    # zero padding does not count: the line is settled by itself
    padded = parse_annotations(io.StringIO("u\ti\tt\t" + "0" * 5000 + "7\n")).annotations
    assert padded.time.tolist() == [7]


def test_time_columns_other_than_int64_are_domain_errors():
    columns = make_columns([("u", "i", "t", 1), ("u", "j", "t", 2)])
    for time in (columns.time.astype(object), columns.time.astype(np.int32),
                 columns.time.astype(np.uint64), columns.time.astype(float)):
        with pytest.raises(DomainError, match="int64"):
            build_index(columns.take(np.arange(2), time))


@pytest.mark.parametrize("chunk", [1, 2, corpus.CHUNK_LINES])
@pytest.mark.parametrize("header", [False, True])
def test_invalid_utf8_names_its_line(chunk, header):
    for newline in (b"\n", b"\r\n", b"\r"):
        data = (b"u\ti\tt\t1\n" * 4 + b"u\t\xc3(\tt\t1\n").replace(b"\n", newline)
        with mock.patch.object(corpus, "CHUNK_LINES", chunk):
            with pytest.raises(FormatError, match=r"^line 5: invalid UTF-8 byte 0xc3$"):
                parse_annotations(io.BytesIO(data), header=header)


def test_invalid_utf8_in_the_header_names_line_1():
    with pytest.raises(FormatError, match=r"^line 1: invalid UTF-8 byte 0xff$"):
        parse_annotations(io.BytesIO(b"\xffuser\titem\ttag\ttime\nu\ti\tt\t1\n"), header=True)


def test_empty_delimiter_is_rejected():
    with pytest.raises(DomainError):
        parse_annotations(io.StringIO("u\ti\tt\t1\n"), delimiter="")


names = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\t,|\r\n"),
                min_size=1, max_size=4)


@st.composite
def any_columns(draw):
    """Columns of any names, padded and capitalized ones too, which no parse gives: each
    column's codes index a sorted name list, cut to the names that occur."""
    n = draw(st.integers(0, 40))
    coded = []
    for _ in range(3):
        vocab = sorted(draw(st.sets(names, min_size=1, max_size=6)))
        drawn = draw(st.lists(st.integers(0, len(vocab) - 1), min_size=n, max_size=n))
        present, code = np.unique(np.array(drawn, dtype=np.int32), return_inverse=True)
        coded.append((code.astype(np.int32), [vocab[k] for k in present.tolist()]))
    times = draw(st.lists(st.integers(0, 10**6) | st.sampled_from(WIDE), min_size=n, max_size=n))
    time = np.array(times, dtype=np.int64)
    return AnnotationColumns(*(code for code, _ in coded), time, *(vocab for _, vocab in coded))


@settings(max_examples=150, deadline=None)
@given(any_columns(), st.booleans(), delimiters, st.sampled_from([1, 2, 3, corpus.CHUNK_LINES]))
@example(make_columns([]), False, "\t", corpus.CHUNK_LINES)
@example(make_columns([("ü", "i", "σ", 2**63 - 1), ("u", "ĳ", "t", 1)]), False, "||", 2)
@example(make_columns([("u", "i", "t", 1), ("u", "i·j", "t", 2)]), False, "·", 1)
def test_columnar_writer_matches_the_annotation_writer(columns, dedupe, delimiter, chunk):
    columns = build_index(columns, dedupe=dedupe).columns
    assert isinstance(columns, AnnotationColumns)
    by_annotation = io.StringIO()
    write_annotations(list(columns), by_annotation, delimiter)
    by_column = io.StringIO()
    with mock.patch.object(corpus, "CHUNK_LINES", chunk):
        if any(delimiter in name for names in (columns.users, columns.items, columns.tags)
               for name in names):
            # such a line would read back as more fields: nothing is written
            with pytest.raises(DomainError, match="holds the delimiter"):
                write_annotations(columns, by_column, delimiter)
            assert by_column.getvalue() == ""
            return
        write_annotations(columns, by_column, delimiter)
    assert by_column.getvalue().encode() == by_annotation.getvalue().encode()
