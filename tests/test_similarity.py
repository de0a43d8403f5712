"""Top-N similarity curves, usage distributions, exogenous popularity diffs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folkmetrics.errors import DomainError, UndefinedCorrelationError
from folkmetrics.partition import Partition, split_supertaggers
from folkmetrics.similarity import (
    FreqDist,
    _cosine_tops,
    _rankings,
    _spearman_tops,
    default_n_grid,
    exogenous_popularity_diff,
    freq_dist,
    similarity_curve,
    usage_distribution,
)
from folkmetrics.stats import BinSpec, cosine

from analysis_oracle import named
from conftest import make_index, random_rows, user_mask
from corpus_oracle import views


def brute_pearson(x, y):
    n = len(x)
    mx, my = sum(x) / n, sum(y) / n
    num = sum((a - mx) * (b - my) for a, b in zip(x, y))
    dx = math.sqrt(sum((a - mx) ** 2 for a in x))
    dy = math.sqrt(sum((b - my) ** 2 for b in y))
    return num / (dx * dy)


def brute_spearman_topn(counts_a, counts_b, n):
    """Independent implementation: counting ranks, explicit Pearson."""
    def top(counts):
        return sorted(counts, key=lambda k: (-counts[k], k))[:n]

    def ranks(selected, counts):
        out = {}
        for k in selected:
            higher = sum(1 for j in selected if counts[j] > counts[k])
            equal = sum(1 for j in selected if counts[j] == counts[k])
            out[k] = higher + (equal + 1) / 2.0
        return out

    top_a, top_b = top(counts_a), top(counts_b)
    union = sorted(set(top_a) | set(top_b))
    ra, rb = ranks(top_a, counts_a), ranks(top_b, counts_b)
    xa = [ra.get(k, n + 1.0) for k in union]
    xb = [rb.get(k, n + 1.0) for k in union]
    return brute_pearson(xa, xb)


def brute_cosine_topn(counts_a, counts_b, n):
    def top(counts):
        return set(sorted(counts, key=lambda k: (-counts[k], k))[:n])

    top_a, top_b = top(counts_a), top(counts_b)
    union = sorted(top_a | top_b)
    xa = [counts_a[k] if k in top_a else 0 for k in union]
    xb = [counts_b[k] if k in top_b else 0 for k in union]
    num = sum(a * b for a, b in zip(xa, xb))
    return num / (math.sqrt(sum(a * a for a in xa)) * math.sqrt(sum(b * b for b in xb)))


def coded(*counts):
    """One tag FreqDist per {key: count} dict, each a count array over the sorted union of keys."""
    keys = sorted(set().union(*counts))
    return [FreqDist("tag", np.array([c.get(k, 0) for k in keys], dtype=np.int64)) for c in counts]


def curve_rho(dist_a, dist_b, n):
    """The rho that similarity_curve reports at N = n for these two sides."""
    return _spearman_tops(*_rankings(dist_a, dist_b), n)


def curve_cosine(dist_a, dist_b, n):
    """The cosine that similarity_curve reports at N = n for these two sides."""
    return _cosine_tops(*_rankings(dist_a, dist_b), n)


def random_dist(rng, n_keys):
    return {f"k{j}": int(rng.integers(1, 40)) for j in range(n_keys)}


class TestFreqDist:
    def test_tag_counts(self):
        index = make_index(
            [("s", "i1", "rock", 0), ("s", "i2", "rock", 1), ("s", "i1", "jazz", 2)]
        )
        dist = freq_dist(index, user_mask(index, {"s"}), "tag")
        assert named(index, dist) == {"rock": 2, "jazz": 1}

    def test_empty_user_set(self):
        index = make_index([("s", "i1", "rock", 0)])
        assert named(index, freq_dist(index, user_mask(index, set()), "tag")) == {}

    def test_matches_scan_oracle(self):
        rng = np.random.default_rng(61)
        rows = random_rows(rng)
        index = make_index(rows)
        users = set(list(views(index).by_user)[:10])
        for dimension, col in (("tag", 2), ("item", 1)):
            dist = named(index, freq_dist(index, user_mask(index, users), dimension))
            expected = {}
            for r in rows:
                if r[0] in users:
                    expected[r[col]] = expected.get(r[col], 0) + 1
            assert dist == expected

    def test_bad_dimension(self):
        index = make_index([("s", "i1", "rock", 0)])
        with pytest.raises(DomainError):
            freq_dist(index, user_mask(index, {"s"}), "genre")


class TestUsageDistribution:
    def test_hand_enumeration(self):
        [dist] = coded({"a": 1, "b": 1, "c": 2})
        assert usage_distribution(dist) == [(1, 0.5), (2, 0.5)]

    def test_single_key_cumulative(self):
        [dist] = coded({"a": 5})
        assert usage_distribution(dist, cumulative=True) == [(5, 1.0)]

    def test_all_singletons(self):
        [dist] = coded({k: 1 for k in "abcde"})
        assert usage_distribution(dist) == [(1, 1.0)]

    def test_noncumulative_sums_to_one(self):
        rng = np.random.default_rng(67)
        [dist] = coded(random_dist(rng, 50))
        series = usage_distribution(dist)
        assert sum(p for _, p in series) == pytest.approx(1.0, abs=1e-9)

    def test_cumulative_starts_at_one_and_decreases(self):
        rng = np.random.default_rng(71)
        series = usage_distribution(*coded(random_dist(rng, 50)), cumulative=True)
        assert series[0][1] == pytest.approx(1.0)
        props = [p for _, p in series]
        assert props == sorted(props, reverse=True)

    def test_empty_dist_raises(self):
        with pytest.raises(DomainError):
            usage_distribution(*coded({}))


class TestSpearmanTopN:
    def test_identical_dists(self):
        [dist] = coded({"a": 5, "b": 3, "c": 1})
        assert curve_rho(dist, dist, 3) == pytest.approx(1.0)
        assert curve_rho(dist, dist, 10) == pytest.approx(1.0)

    def test_perfectly_reversed(self):
        da, db = coded({"a": 2, "b": 1}, {"a": 1, "b": 2})
        assert curve_rho(da, db, 2) == pytest.approx(-1.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(73)
        for _ in range(60):
            counts_a = random_dist(rng, int(rng.integers(2, 60)))
            counts_b = random_dist(rng, int(rng.integers(2, 60)))
            da, db = coded(counts_a, counts_b)
            n = int(rng.integers(1, 51))
            try:
                expected = brute_spearman_topn(counts_a, counts_b, n)
            except ZeroDivisionError:
                with pytest.raises(UndefinedCorrelationError):
                    curve_rho(da, db, n)
                continue
            assert curve_rho(da, db, n) == pytest.approx(expected, abs=1e-9)

    def test_symmetric(self):
        rng = np.random.default_rng(79)
        da, db = coded(random_dist(rng, 20), random_dist(rng, 25))
        for n in (1, 5, 30):
            try:
                left = curve_rho(da, db, n)
            except UndefinedCorrelationError:
                continue
            assert left == pytest.approx(curve_rho(db, da, n), abs=1e-12)

    def test_union_too_small(self):
        [dist] = coded({"a": 5})
        with pytest.raises(UndefinedCorrelationError):
            curve_rho(dist, dist, 1)

    def test_bad_n(self):
        index = make_index([("s", "i", "a", 0), ("o", "i", "b", 0)])
        part = Partition(user_mask(index, {"s"}), 0, 0.5)
        with pytest.raises(DomainError):
            similarity_curve(index, part, "tag", [0, 1])


class TestCosineTopN:
    def test_identical(self):
        [dist] = coded({"a": 5, "b": 3})
        assert curve_cosine(dist, dist, 2) == pytest.approx(1.0)

    def test_disjoint_orthogonal(self):
        da, db = coded({"a": 5, "b": 3}, {"c": 4, "d": 2})
        assert curve_cosine(da, db, 2) == pytest.approx(0.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(83)
        for _ in range(60):
            counts_a = random_dist(rng, int(rng.integers(1, 60)))
            counts_b = random_dist(rng, int(rng.integers(1, 60)))
            da, db = coded(counts_a, counts_b)
            n = int(rng.integers(1, 51))
            expected = brute_cosine_topn(counts_a, counts_b, n)
            assert curve_cosine(da, db, n) == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.dictionaries(st.sampled_from([f"k{j}" for j in range(12)]),
                                    st.integers(1, 10**6), min_size=1), min_size=2, max_size=2),
           st.integers(1, 13))
    def test_equals_the_float_cosine_exactly(self, counts, n):
        """Integer dot products give stats.cosine's value on the float vectors, bit for bit."""
        def top(c):
            return set(sorted(c, key=lambda k: (-c[k], k))[:n])

        tops = [top(c) for c in counts]
        union = sorted(tops[0] | tops[1])
        vectors = [[float(c[k]) if k in t else 0.0 for k in union] for c, t in zip(counts, tops)]
        got = curve_cosine(*coded(*counts), n)
        assert got == cosine(*vectors)

    def test_symmetric(self):
        rng = np.random.default_rng(89)
        da, db = coded(random_dist(rng, 15), random_dist(rng, 10))
        assert curve_cosine(da, db, 8) == pytest.approx(curve_cosine(db, da, 8), abs=1e-12)

    def test_empty_side_raises(self):
        da, db = coded({"a": 5}, {})
        with pytest.raises(DomainError):
            curve_cosine(da, db, 2)


def shared_top5_index():
    """Both groups agree on tags c1..c5 (c1-c4 tied) and reverse beyond.

    At N < 5 the rank vectors are constant (skipped); at N = 5 the rankings
    are identical (rho = 1); past 5 each side prefers opposite ends of the
    shared tail, so rho strictly drops. The peak therefore sits at N = 5.
    """
    rows = []
    item = 0

    def add(user, tag, count):
        nonlocal item
        for _ in range(count):
            rows.append((user, f"i{item}", tag, 0))
            item += 1

    tail = [f"s{k:02d}" for k in range(6, 16)]
    for user, tail_counts in (("sa", range(30, 20, -1)), ("ob", range(21, 31))):
        for tag in ("c1", "c2", "c3", "c4"):
            add(user, tag, 50)
        add(user, "c5", 40)
        for tag, count in zip(tail, tail_counts):
            add(user, tag, count)
    index = make_index(rows)
    part = Partition(user_mask(index, {"sa"}), 0, 0.5)
    return index, part


class TestSimilarityCurve:
    def test_identical_groups_rho_one_everywhere(self):
        rows = []
        for user in ("s", "o"):
            for k, tag in enumerate(["rock"] * 4 + ["jazz"] * 2 + ["pop"]):
                rows.append((user, f"i{k}", tag, 0))
        index = make_index(rows)
        part = Partition(user_mask(index, {"s"}), 0, 0.5)
        curve = similarity_curve(index, part, "tag", n_values=range(1, 8))
        assert curve.points, "expected at least one defined point"
        for point in curve.points:
            assert point.rho == pytest.approx(1.0)
            assert point.cosine == pytest.approx(1.0)
        assert curve.core_size == curve.points[0].n

    def test_shared_top5_core_size(self):
        index, part = shared_top5_index()
        curve = similarity_curve(index, part, "tag", n_values=range(1, 16))
        assert curve.core_size == 5
        best = max(p.rho for p in curve.points)
        assert [p.n for p in curve.points if p.rho == best] == [5]

    def test_points_match_componentwise_recomputation(self):
        rng = np.random.default_rng(97)
        rows = random_rows(rng, n_users=20, n_items=30, n_tags=12, n_annotations=500)
        index = make_index(rows)
        part = split_supertaggers(index, 0.5)
        counts_s = named(index, freq_dist(index, part.supertagger, "tag"))
        counts_o = named(index, freq_dist(index, ~part.supertagger, "tag"))
        curve = similarity_curve(index, part, "tag", n_values=range(1, 15))
        for point in curve.points:
            assert point.rho == pytest.approx(
                brute_spearman_topn(counts_s, counts_o, point.n), abs=1e-9
            )
            assert point.cosine == pytest.approx(
                brute_cosine_topn(counts_s, counts_o, point.n), abs=1e-12
            )
            top_s = sorted(counts_s, key=lambda k: (-counts_s[k], k))[: point.n]
            top_o = sorted(counts_o, key=lambda k: (-counts_o[k], k))[: point.n]
            union = set(top_s) | set(top_o)
            covered = sum(1 for r in rows if r[2] in union)
            assert point.coverage == pytest.approx(covered / len(rows))

    def test_coverage_monotone_and_saturates(self):
        rng = np.random.default_rng(101)
        rows = random_rows(rng)
        index = make_index(rows)
        part = split_supertaggers(index, 0.5)
        curve = similarity_curve(index, part, "item", n_values=[1, 2, 5, 10, 100, 1000])
        covs = [p.coverage for p in curve.points]
        assert covs == sorted(covs)
        assert curve.points[-1].coverage == pytest.approx(1.0)

    def test_item_dimension(self):
        rng = np.random.default_rng(103)
        index = make_index(random_rows(rng))
        part = split_supertaggers(index, 0.5)
        curve = similarity_curve(index, part, "item", n_values=range(1, 10))
        assert all(-1.0 <= p.rho <= 1.0 for p in curve.points)

    def test_default_grid_shape(self):
        grid = default_n_grid()
        assert grid[:100] == list(range(1, 101))
        assert grid[-1] == 100_000
        assert all(a < b for a, b in zip(grid, grid[1:]))
        grid_small = default_n_grid(50)
        assert grid_small == list(range(1, 51))


class TestExogenousPopularityDiff:
    def test_identical_tagging_zero_diff(self):
        rows = []
        for user in ("s", "o"):
            for k in range(8):
                rows.append((user, f"i{k}", "t", 0))
        index = make_index(rows)
        part = Partition(user_mask(index, {"s"}), 0, 0.5)
        popularity = {f"i{k}": 2 ** k for k in range(8)}
        series = exogenous_popularity_diff(index, part, popularity, BinSpec())
        assert series.rows
        for row in series.rows:
            assert row.mean == pytest.approx(0.0)

    def test_opposed_popularity_preferences(self):
        rows = []
        # supertagger tags only low-popularity items, others only high
        for k in range(5):
            rows.append(("s", f"low{k}", "t", 0))
            rows.append(("s", f"low{k}", "t2", 0))
            rows.append(("o", f"high{k}", "t", 0))
            rows.append(("o", f"high{k}", "t2", 0))
        index = make_index(rows)
        part = Partition(user_mask(index, {"s"}), 0, 0.5)
        popularity = {f"low{k}": k + 2 for k in range(5)}
        popularity.update({f"high{k}": 1000 + k for k in range(5)})
        series = exogenous_popularity_diff(index, part, popularity, BinSpec())
        for row in series.rows:
            if row.bin_high <= 10:
                assert row.mean > 0
            if row.bin_low >= 1000:
                assert row.mean < 0

    def test_single_item_diff(self):
        rows = [("s", "i1", "a", 0), ("s", "i1", "b", 1), ("s", "i1", "c", 2), ("o", "i1", "a", 3)]
        index = make_index(rows)
        part = Partition(user_mask(index, {"s"}), 0, 0.5)
        series = exogenous_popularity_diff(index, part, {"i1": 7.0}, BinSpec())
        assert len(series.rows) == 1
        assert series.rows[0].mean == pytest.approx(2.0)
        assert series.rows[0].n == 1

    def test_items_without_popularity_excluded(self):
        rows = [("s", "i1", "a", 0), ("o", "i2", "a", 0)]
        index = make_index(rows)
        part = Partition(user_mask(index, {"s"}), 0, 0.5)
        series = exogenous_popularity_diff(index, part, {"i1": 3.0}, BinSpec())
        assert series.total_count == 1

    def test_no_overlap_raises(self):
        index = make_index([("s", "i1", "a", 0)])
        part = Partition(user_mask(index, {"s"}), 0, 0.5)
        with pytest.raises(DomainError):
            exogenous_popularity_diff(index, part, {"other": 1.0}, BinSpec())
