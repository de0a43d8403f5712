"""Parsing, indexing, summary statistics, and the synthetic generator."""

import hashlib
import io
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from folkmetrics.corpus import (
    Annotation,
    SyntheticConfig,
    build_index,
    generate_synthetic,
    parse_annotations,
    summary,
    write_annotations,
    _distinct_pairs,
    _sorted_runs,
)
from folkmetrics.errors import DomainError, FormatError
from folkmetrics.partition import Partition, partition_summary

from conftest import (item_tag_freq, make_annotations, make_columns, make_index, random_rows,
                      user_mask)
from corpus_oracle import views


class TestParse:
    def test_single_line(self):
        result = parse_annotations(io.StringIO("u1\ti1\trock\t100\n"))
        assert list(result.annotations) == [Annotation("u1", "i1", "rock", 100)]
        assert result.malformed == 0

    def test_tag_normalization(self):
        result = parse_annotations(io.StringIO("u1\ti1\tRoCk \t100\n"))
        assert list(result.annotations)[0].tag == "rock"

    def test_unicode_lowercase(self):
        result = parse_annotations(io.StringIO("u1\ti1\tROCKMUSIKİ\t1\n"))
        assert list(result.annotations)[0].tag == "rockmusikİ".lower()

    def test_empty_stream(self):
        result = parse_annotations(io.StringIO(""))
        assert list(result.annotations) == []
        assert result.malformed == 0

    def test_malformed_lines_counted(self):
        text = "u1\ti1\trock\t1\nbadline\nu2\ti2\tjazz\t2\nu3\ti3\tpop\tnotatime\n"
        result = parse_annotations(io.StringIO(text))
        assert len(result.annotations) == 2
        assert result.malformed == 2

    def test_negative_time_malformed(self):
        result = parse_annotations(io.StringIO("u1\ti1\trock\t-5\nu2\ti2\tj\t1\n"))
        assert result.malformed == 1

    @pytest.mark.parametrize("stamp", ["1_000", " 5", "5 ", "+5", "\u0665", "\uff15", "\u00b2", ""])
    def test_timestamp_must_be_ascii_digits(self, stamp):
        result = parse_annotations(io.StringIO(f"u1\ti1\trock\t{stamp}\nu2\ti2\tj\t1\n"))
        assert list(result.annotations) == [Annotation("u2", "i2", "j", 1)]
        assert result.malformed == 1

    def test_blank_lines_skipped(self):
        result = parse_annotations(io.StringIO("\nu1\ti1\trock\t1\n\n"))
        assert len(result.annotations) == 1
        assert result.malformed == 0

    def test_header_skipped(self):
        result = parse_annotations(io.StringIO("user\titem\ttag\ttime\nu1\ti1\trock\t1\n"), header=True)
        assert len(result.annotations) == 1
        assert result.malformed == 0

    def test_wrong_delimiter_raises_format_error(self):
        text = "".join(f"u{k},i{k},rock,{k}\n" for k in range(10))
        with pytest.raises(FormatError):
            parse_annotations(io.StringIO(text), delimiter="\t")

    def test_exactly_half_malformed_is_tolerated(self):
        text = "u1\ti1\trock\t1\nbroken\nu2\ti2\tjazz\t2\nalso broken\n"
        result = parse_annotations(io.StringIO(text))
        assert len(result.annotations) == 2
        assert result.malformed == 2

    def test_byte_stream_accepted(self):
        result = parse_annotations(io.BytesIO("u1\ti1\tRock\t4\n".encode("utf-8")))
        assert list(result.annotations) == [Annotation("u1", "i1", "rock", 4)]

    def test_missing_file_raises_oserror(self):
        with pytest.raises(OSError):
            parse_annotations("/nonexistent/annotations.tsv")

    def test_lines_are_not_a_source(self):
        """A path or a stream: a list of lines is read as io.StringIO("".join(lines))."""
        lines = ["u1\ti1\trock\t1\n", "u2\ti2\tjazz\t2\n"]
        with pytest.raises(DomainError, match="path or a stream"):
            parse_annotations(lines)
        assert len(parse_annotations(io.StringIO("".join(lines))).annotations) == 2

    def test_custom_delimiter(self):
        result = parse_annotations(io.StringIO("u1|i1|rock|3\n"), delimiter="|")
        assert list(result.annotations) == [Annotation("u1", "i1", "rock", 3)]

    def test_roundtrip_exact(self):
        rng = np.random.default_rng(2)
        annotations = make_annotations(random_rows(rng, n_annotations=200))
        buf = io.StringIO()
        write_annotations(annotations, buf)
        reparsed = parse_annotations(io.StringIO(buf.getvalue()))
        assert list(reparsed.annotations) == annotations
        buf2 = io.StringIO()
        write_annotations(reparsed.annotations, buf2)
        assert buf2.getvalue() == buf.getvalue()

    def test_a_name_holding_the_delimiter_opens_no_path(self, tmp_path):
        columns = make_columns([("u1", "a|b", "rock", 1)])
        new, old = tmp_path / "new.tsv", tmp_path / "old.tsv"
        old.write_bytes(b"keep me\n")
        for path in (new, old):
            with pytest.raises(DomainError, match="holds the delimiter"):
                write_annotations(columns, path, delimiter="|")
        assert not new.exists()
        assert old.read_bytes() == b"keep me\n"


class TestBuildIndex:
    def test_dedupe_collapses_to_earliest(self):
        index = make_index([("u1", "i1", "rock", 5), ("u1", "i1", "rock", 9)], dedupe=True)
        assert index.n_annotations == 1
        assert list(index.columns)[0].time == 5
        assert item_tag_freq(index)[("i1", "rock")] == 1

    def test_two_distinct_users(self):
        index = make_index([("u1", "i1", "rock", 5), ("u2", "i1", "rock", 9)])
        assert item_tag_freq(index)[("i1", "rock")] == 2

    def test_fan_out(self):
        index = make_index([("u1", "i1", "rock", 5), ("u1", "i2", "jazz", 6)])
        assert user_stats(index, "u1")[:2] == (2, 2)

    def test_counts_sum_to_total(self):
        rng = np.random.default_rng(4)
        index = make_index(random_rows(rng))
        assert index.user_counts.sum() == index.n_annotations

    def test_dedupe_idempotent(self):
        rng = np.random.default_rng(6)
        rows = random_rows(rng, n_users=5, n_items=5, n_tags=3, n_annotations=200)
        once = make_index(rows, dedupe=True)
        twice = build_index(once.columns, dedupe=True)
        assert list(once.columns) == list(twice.columns)
        assert item_tag_freq(once) == item_tag_freq(twice)
        assert views(once).by_user == views(twice).by_user

    def test_item_tag_freq_matches_scan_oracle(self):
        rng = np.random.default_rng(8)
        rows = random_rows(rng, n_users=10, n_items=8, n_tags=4, n_annotations=300)
        index = make_index(rows)
        for (item, tag), count in item_tag_freq(index).items():
            users = {u for u, i, t, _ in rows if i == item and t == tag}
            assert count == len(users)

    def test_raw_view_keeps_duplicates(self):
        index = make_index([("u1", "i1", "rock", 5), ("u1", "i1", "rock", 9)])
        assert index.n_annotations == 2
        assert item_tag_freq(index)[("i1", "rock")] == 1

    def test_rows_are_not_columns(self):
        """build_index takes the parser's or the generator's columns, not Annotation rows."""
        rows = [("u1", "i1", "rock", 5), ("u2", "i1", "jazz", 9)]
        for annotations in (make_annotations(rows), []):
            with pytest.raises(DomainError, match="AnnotationColumns"):
                build_index(annotations)
        assert build_index(make_columns(rows)).n_annotations == 2


# codes near 2**31 make three int32 columns overflow one int64 key, and int64 values near
# both ends are too wide to pack: both take the kernel's dense-rank branch
_COLUMNS = [(st.integers(0, 3) | st.integers(2**31 - 4, 2**31 - 1), np.int32),
            (st.integers(-2**63, -2**63 + 3) | st.integers(2**63 - 4, 2**63 - 1), np.int64)]


@st.composite
def _key_columns(draw):
    n = draw(st.integers(0, 40))
    return [np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=dtype)
            for values, dtype in draw(st.lists(st.sampled_from(_COLUMNS), min_size=1, max_size=3))]


@settings(max_examples=300, deadline=None)
@given(_key_columns())
def test_sorted_runs_matches_sorted_counter(columns):
    """A run's first row in the order is the distinct row, its length the row's count and the
    minimum of its positions the row's first index."""
    rows = list(zip(*(column.tolist() for column in columns)))
    counter = Counter(rows)
    expected = sorted(counter)
    order, starts = _sorted_runs(*columns)
    assert sorted(order.tolist()) == list(range(len(rows)))
    assert [rows[k] for k in order[starts].tolist()] == expected
    assert np.diff(starts, append=len(rows)).tolist() == [counter[row] for row in expected]
    assert np.minimum.reduceat(order, starts).tolist() == [rows.index(row) for row in expected]


@st.composite
def _code_pairs(draw):
    """Two int32 code columns, low codes below n_low; codes near 2**31 overflow an int32 key."""
    n_low = draw(st.sampled_from([1, 3, 2**31 - 1]))
    n = draw(st.integers(0, 40))
    codes = st.integers(0, 3) | st.integers(2**31 - 4, 2**31 - 1)
    low = st.integers(0, min(3, n_low - 1)) | st.integers(max(0, n_low - 4), n_low - 1)
    return (np.array(draw(st.lists(codes, min_size=n, max_size=n)), dtype=np.int32),
            np.array(draw(st.lists(low, min_size=n, max_size=n)), dtype=np.int32), n_low)


@settings(max_examples=300, deadline=None)
@given(_code_pairs())
@example((np.zeros(0, dtype=np.int32), np.zeros(0, dtype=np.int32), 1))
def test_distinct_pairs_matches_sorted_counter(columns):
    high, low, n_low = columns
    counter = Counter(zip(high.tolist(), low.tolist()))
    expected = sorted(counter)
    pair_high, pair_low, counts = _distinct_pairs(high, low, n_low)
    assert list(zip(pair_high.tolist(), pair_low.tolist())) == expected
    assert counts.tolist() == [counter[pair] for pair in expected]
    assert pair_high.dtype == pair_low.dtype == counts.dtype == np.int32


_ROWS = st.lists(st.tuples(st.sampled_from(["u0", "u1", "u2"]), st.sampled_from(["i0", "i1", "i2"]),
                           st.sampled_from(["a", "b", "c"]), st.integers(0, 3)), max_size=30)


@settings(max_examples=100, deadline=None)
@given(_ROWS, st.booleans())
def test_shared_sets_match_set_reference(rows, dedupe):
    """triples, user_tags and item_tags against sets of the indexed rows' codes, on raw, deduped
    and empty indexes."""
    index = make_index(rows, dedupe=dedupe)
    c = index.columns
    coded = list(zip(c.user.tolist(), c.item.tolist(), c.tag.tolist()))
    expected = sorted(set(coded))
    assert list(zip(*(codes.tolist() for codes in index.triples))) == expected
    # each (user, tag) pair with its annotation count
    assert list(zip(*(codes.tolist() for codes in index.user_tags))) == sorted(
        (u, t, n) for (u, t), n in Counter((u, t) for u, _, t in coded).items())
    item, tag, pair_of_triple = index.item_tags
    pairs = list(zip(item.tolist(), tag.tolist()))
    assert pairs == sorted({(i, t) for _, i, t in coded})
    # each triple's own pair, which counts the pair's distinct users
    assert [pairs[p] for p in pair_of_triple.tolist()] == [(i, t) for _, i, t in expected]
    assert np.bincount(pair_of_triple, minlength=len(pairs)).tolist() == [
        Counter((i, t) for _, i, t in expected)[pair] for pair in pairs]
    for codes in (*index.triples, *index.user_tags, *index.item_tags):
        assert codes.dtype == np.int32


def user_stats(index, user):
    """The user's annotations, distinct tags and distinct items, as partition_summary counts
    them: the medians of a group of that user alone."""
    group = partition_summary(index, Partition(user_mask(index, {user}), 0, 1.0)).supertaggers
    return group.annotations, group.tags_per_user.median, group.items_per_user.median


class TestUserStats:
    def test_hand_count(self):
        index = make_index([("u", "i1", "a", 1), ("u", "i1", "b", 2), ("u", "i2", "a", 3)])
        assert user_stats(index, "u") == (3, 2, 2)

    def test_single_annotation(self):
        index = make_index([("u", "i", "t", 0)])
        assert user_stats(index, "u") == (1, 1, 1)

    def test_matches_scan_oracle(self):
        rng = np.random.default_rng(10)
        rows = random_rows(rng)
        index = make_index(rows)
        for user in index.columns.users:
            mine = [r for r in rows if r[0] == user]
            assert user_stats(index, user) == (len(mine), len({r[2] for r in mine}),
                                               len({r[1] for r in mine}))


class TestSummary:
    def test_three_user_counts(self):
        rows = [("a", "i1", "t1", 0), ("b", "i2", "t2", 0), ("b", "i3", "t3", 0),
                ("c", "i4", "t4", 0), ("c", "i5", "t5", 0), ("c", "i6", "t6", 0)]
        s = summary(make_index(rows))
        assert s.per_user.median == 2
        assert (s.per_user.q25, s.per_user.q75) == (1, 3)

    def test_singleton(self):
        s = summary(make_index([("a", "i", "t", 0)]))
        assert s.per_user == (1, 1, 1)
        assert (s.taggers, s.tags, s.resources, s.annotations) == (1, 1, 1, 1)

    def test_empty_index(self):
        s = summary(make_index([]))
        assert (s.taggers, s.tags, s.resources, s.annotations) == (0, 0, 0, 0)
        assert s.per_user is None

    def test_caches_only_the_counts(self):
        """ingest reads only the summary: it builds the three counts and sorts nothing."""
        rng = np.random.default_rng(13)
        for dedupe in (False, True):
            index = make_index(random_rows(rng), dedupe=dedupe)
            summary(index)
            assert set(vars(index)) == {"columns", "user_counts", "item_counts", "tag_counts"}

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(12)
        index = make_index(random_rows(rng))
        s = summary(index)
        counts = sorted(len(p) for p in views(index).by_user.values())
        n = len(counts)
        assert s.per_user.median == counts[(n - 1) // 2]
        assert s.taggers == n
        assert s.annotations == index.n_annotations


# sha256 of the written corpus, fixed when the generator still built one Annotation per
# annotation: the second config leaves items and tags unused, the third sets every knob
PINNED_CORPORA = [
    (SyntheticConfig(n_users=50, n_items=30, n_tags=10, seed=99),
     "451cde06cafaf8b7005f966b2bea8293447dc452830a1b1448ebf7c1335b560e"),
    (SyntheticConfig(n_users=40, n_items=200, n_tags=300, tag_popularity_exponent=0.5, seed=7),
     "41272b8f5eb1a26a7900f3a1b66af735f8d5b7c6e28400d90d055588abf9965c"),
    (SyntheticConfig(n_users=30, n_items=20, n_tags=8, activity_exponent=1.5,
                     item_popularity_exponent=2.0, max_user_annotations=40, time_span=5,
                     tags_per_item=3, seed=5),
     "4da0b00225628587502962758d3d72f4b10bbcd8396cf572ade7b8057d97c215"),
]


@st.composite
def _synthetic_configs(draw):
    exponent = st.floats(0.3, 3.0)
    return SyntheticConfig(
        n_users=draw(st.integers(1, 30)), n_items=draw(st.integers(1, 40)),
        n_tags=draw(st.integers(1, 40)), activity_exponent=draw(exponent),
        item_popularity_exponent=draw(exponent), tag_popularity_exponent=draw(exponent),
        max_user_annotations=draw(st.integers(1, 50)), time_span=draw(st.integers(1, 200)),
        tags_per_item=draw(st.integers(1, 10)), seed=draw(st.integers(0, 2**32)))


class TestSynthetic:
    def test_deterministic(self):
        config = SyntheticConfig(n_users=50, n_items=30, n_tags=10, seed=99)
        assert list(generate_synthetic(config)) == list(generate_synthetic(config))

    @pytest.mark.parametrize("config, digest", PINNED_CORPORA)
    def test_written_corpus_is_pinned(self, config, digest):
        out = io.StringIO()
        write_annotations(generate_synthetic(config), out)
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest

    @settings(max_examples=150, deadline=None)
    @given(_synthetic_configs())
    def test_columns_equal_those_of_the_annotations(self, config):
        """The generated columns equal those parsed from their annotations, written row by row."""
        got = generate_synthetic(config)
        written = io.StringIO()
        write_annotations(list(got), written)
        want = parse_annotations(io.StringIO(written.getvalue())).annotations
        for column in ("user", "item", "tag", "time"):
            assert getattr(got, column).dtype == getattr(want, column).dtype
            assert getattr(got, column).tolist() == getattr(want, column).tolist()
        assert (got.users, got.items, got.tags) == (want.users, want.items, want.tags)

    def test_single_user(self):
        config = SyntheticConfig(n_users=1, n_items=5, n_tags=5, seed=1)
        annotations = generate_synthetic(config)
        assert {a.user for a in annotations} == {next(iter(annotations)).user}

    def test_invalid_config(self):
        with pytest.raises(DomainError):
            SyntheticConfig(n_users=0)
        with pytest.raises(DomainError):
            SyntheticConfig(activity_exponent=0.0)
        for value in (float("nan"), float("inf")):
            with pytest.raises(DomainError, match="finite"):
                SyntheticConfig(activity_exponent=value)
        with pytest.raises(DomainError, match="seed"):
            SyntheticConfig(seed=-1)

    @pytest.mark.parametrize("field", ["time_span", "max_user_annotations"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_generator_ranges_below_one_are_domain_errors(self, field, value):
        with pytest.raises(DomainError, match=field):
            SyntheticConfig(**{field: value})

    def test_activity_slope_near_configured_exponent(self):
        config = SyntheticConfig(n_users=10_000, n_items=200, n_tags=50,
                                 activity_exponent=2.0, seed=42)
        annotations = generate_synthetic(config)
        counts = {}
        for a in annotations:
            counts[a.user] = counts.get(a.user, 0) + 1
        freq = {}
        for c in counts.values():
            freq[c] = freq.get(c, 0) + 1
        # least-squares fit over the first two decades of the count distribution
        ks = sorted(k for k in freq if k <= 100)
        x = np.log10(ks)
        y = np.log10([freq[k] for k in ks])
        slope = np.polyfit(x, y, 1)[0]
        assert slope == pytest.approx(-2.0, abs=0.3)

    def test_granularity_and_validity(self):
        config = SyntheticConfig(n_users=20, n_items=10, n_tags=5, seed=3)
        for a in generate_synthetic(config):
            assert a.time >= 0
            assert a.user and a.item and a.tag
            assert a.tag == a.tag.lower()
