"""Gini, user ranking, supertagger split, Pareto curve, group summaries."""

import numpy as np
import pytest

from folkmetrics.errors import DomainError
from folkmetrics.partition import (
    Partition,
    gini,
    pareto_curve,
    partition_summary,
    rank_users,
    split_supertaggers,
)

from analysis_oracle import named
from conftest import make_index, random_rows, user_mask
from corpus_oracle import views


def gini_pairwise(values):
    """Oracle: G = sum_ij |y_i - y_j| / (2 n^2 mean)."""
    values = list(values)
    n = len(values)
    mean = sum(values) / n
    total = sum(abs(a - b) for a in values for b in values)
    return total / (2 * n * n * mean)


class TestGini:
    def test_perfect_equality(self):
        assert gini([5, 5, 5, 5]) == 0.0

    def test_one_two_three_four(self):
        assert gini([1, 2, 3, 4]) == pytest.approx(0.25, abs=1e-12)
        assert gini_pairwise([1, 2, 3, 4]) == pytest.approx(0.25, abs=1e-12)

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            n = int(rng.integers(1, 201))
            values = rng.integers(0, 50, size=n).astype(float)
            if values.sum() == 0:
                values[0] = 1.0
            assert gini(values) == pytest.approx(gini_pairwise(values), abs=1e-9)

    def test_scale_invariance(self):
        rng = np.random.default_rng(21)
        values = rng.integers(1, 100, size=50).astype(float)
        for k in (0.001, 3.0, 1e6):
            assert gini(k * values) == pytest.approx(gini(values), abs=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            values = rng.integers(0, 100, size=int(rng.integers(2, 50))).astype(float)
            if values.sum() == 0:
                continue
            assert 0.0 <= gini(values) < 1.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            gini([])
        with pytest.raises(DomainError):
            gini([0, 0, 0])
        with pytest.raises(DomainError):
            gini([1, -1])


class TestRankUsers:
    def test_tie_broken_lexicographically(self):
        index = make_index(
            [("a", f"x{k}", "t", 0) for k in range(3)]
            + [("b", f"x{k}", "t", 0) for k in range(5)]
            + [("c", f"x{k}", "t", 0) for k in range(3)]
        )
        assert named(index, rank_users(index)) == ["b", "a", "c"]

    def test_single_user(self):
        index = make_index([("u", "i", "t", 0)])
        assert named(index, rank_users(index)) == ["u"]

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(31)
        index = make_index(random_rows(rng))
        counts = views(index).user_annotation_count
        expected = sorted(counts, key=lambda u: (-counts[u], u))
        assert named(index, rank_users(index)) == expected


class TestSplitSupertaggers:
    def test_four_user_fixture(self, four_user_index):
        part = named(four_user_index, split_supertaggers(four_user_index, 0.5))
        assert part.supertaggers == {"a"}
        assert part.annotation_threshold == 10
        assert part.others == {"b", "c", "d"}

    def test_single_user_any_fraction(self):
        index = make_index([("u", "i", "t", 0)])
        for fraction in (0.01, 0.5, 1.0):
            assert named(index, split_supertaggers(index, fraction)).supertaggers == {"u"}

    def test_fraction_one_takes_everyone(self, four_user_index):
        part = named(four_user_index, split_supertaggers(four_user_index, 1.0))
        assert part.supertaggers == {"a", "b", "c", "d"}
        assert part.others == frozenset()

    def test_matches_prefix_scan_oracle(self):
        rng = np.random.default_rng(37)
        for trial in range(20):
            index = make_index(random_rows(rng, n_users=int(rng.integers(2, 40))))
            fraction = float(rng.uniform(0.1, 1.0))
            part = named(index, split_supertaggers(index, fraction))
            ranked = named(index, rank_users(index))
            counts = views(index).user_annotation_count
            total = index.n_annotations
            running = 0
            expected = []
            for user in ranked:
                expected.append(user)
                running += counts[user]
                if running >= fraction * total:
                    break
            assert part.supertaggers == set(expected)
            assert part.annotation_threshold == counts[expected[-1]]

    def test_share_and_minimality(self):
        rng = np.random.default_rng(41)
        for trial in range(20):
            index = make_index(random_rows(rng, n_users=int(rng.integers(3, 30))))
            part = named(index, split_supertaggers(index, 0.5))
            total = index.n_annotations
            counts = views(index).user_annotation_count
            s_total = sum(counts[u] for u in part.supertaggers)
            o_total = sum(counts[u] for u in part.others)
            assert s_total + o_total == total
            assert s_total >= 0.5 * total
            if len(part.supertaggers) > 1:
                least = min(
                    part.supertaggers,
                    key=lambda u: (counts[u], u),
                )
                assert s_total - counts[least] < 0.5 * total

    def test_bad_fraction(self, four_user_index):
        for fraction in (0.0, -0.1, 1.5):
            with pytest.raises(DomainError):
                split_supertaggers(four_user_index, fraction)

    def test_empty_index(self):
        with pytest.raises(DomainError):
            split_supertaggers(make_index([]), 0.5)


class TestParetoCurve:
    def test_four_user_fixture(self, four_user_index):
        curve = pareto_curve(four_user_index)
        assert (0.25, 0.5) in curve.points
        assert curve.points[0] == (0.0, 0.0)
        assert curve.points[-1] == (1.0, 1.0)

    def test_equal_counts_diagonal(self):
        index = make_index([(u, f"i{k}", "t", 0) for u in "abcd" for k in range(4)])
        curve = pareto_curve(index)
        for x, y in curve.points:
            assert y == pytest.approx(x)
        assert (0.5, 0.5) in [(round(x, 9), round(y, 9)) for x, y in curve.points]

    def test_single_user(self):
        curve = pareto_curve(make_index([("u", "i", "t", 0)]))
        assert curve.points == ((0.0, 0.0), (1.0, 1.0))

    def test_monotone(self):
        rng = np.random.default_rng(43)
        curve = pareto_curve(make_index(random_rows(rng)))
        xs = [p[0] for p in curve.points]
        ys = [p[1] for p in curve.points]
        assert xs == sorted(xs)
        assert ys == sorted(ys)

    def test_downsampling_keeps_endpoints(self):
        rng = np.random.default_rng(47)
        index = make_index(random_rows(rng, n_users=50))
        curve = pareto_curve(index, resolution=5)
        assert curve.points[0] == (0.0, 0.0)
        assert curve.points[-1] == (1.0, 1.0)
        assert len(curve.points) <= 7

    @pytest.mark.parametrize("resolution", [1, 0, -5])
    def test_resolution_below_two_raises(self, resolution):
        index = make_index([(f"u{k}", "i", "t", k) for k in range(4)])
        with pytest.raises(DomainError):
            pareto_curve(index, resolution=resolution)


class TestPartitionSummary:
    def test_set_algebra(self):
        # S = {a} uses tags {ta, tb}; others = {b} uses {tb, tc}
        rows = [
            ("a", "i1", "ta", 0), ("a", "i1", "tb", 1), ("a", "i2", "ta", 2),
            ("b", "i2", "tb", 3), ("b", "i3", "tc", 4),
        ]
        index = make_index(rows)
        part = Partition(user_mask(index, {"a"}), 3, 0.5)
        result = partition_summary(index, part)
        assert (result.supertaggers.total_tags, result.others.total_tags) == (2, 2)
        assert (result.supertaggers.unique_tags, result.others.unique_tags) == (1, 1)
        assert result.shared_tags == 1
        assert (result.supertaggers.total_items, result.others.total_items) == (2, 2)
        assert result.shared_items == 1

    def test_identical_tag_sets_have_no_unique(self):
        rows = [("a", "i1", "t1", 0), ("a", "i2", "t2", 0),
                ("b", "i3", "t1", 0), ("b", "i4", "t2", 0)]
        index = make_index(rows)
        part = Partition(user_mask(index, {"a"}), 2, 0.5)
        result = partition_summary(index, part)
        assert result.supertaggers.unique_tags == 0
        assert result.others.unique_tags == 0

    def test_matches_set_oracle(self):
        rng = np.random.default_rng(53)
        rows = random_rows(rng)
        index = make_index(rows)
        part = split_supertaggers(index, 0.5)
        result = partition_summary(index, part)
        part = named(index, part)
        s_tags = {r[2] for r in rows if r[0] in part.supertaggers}
        o_tags = {r[2] for r in rows if r[0] in part.others}
        s_items = {r[1] for r in rows if r[0] in part.supertaggers}
        o_items = {r[1] for r in rows if r[0] in part.others}
        assert result.supertaggers.total_tags == len(s_tags)
        assert result.others.total_tags == len(o_tags)
        assert result.supertaggers.unique_tags == len(s_tags - o_tags)
        assert result.shared_tags == len(s_tags & o_tags)
        assert result.supertaggers.unique_items == len(s_items - o_items)
        assert result.shared_items == len(s_items & o_items)
        assert result.supertaggers.annotations + result.others.annotations == len(rows)

    def test_mismatched_partition_raises(self, four_user_index):
        """A mask of the wrong length or type raises DomainError."""
        for mask in (np.ones(3, dtype=bool), np.ones(5, dtype=bool), np.ones(4, dtype=int)):
            with pytest.raises(DomainError):
                partition_summary(four_user_index, Partition(mask, 1, 0.5))
