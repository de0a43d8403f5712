"""Consensus-based expertise: annotation scores, item weights, user means."""

import math

import numpy as np
import pytest

from folkmetrics.expertise import consensus_expertise, consensus_expertise_by_bin
from folkmetrics.stats import BinSpec

from conftest import code, make_index, random_rows
from corpus_oracle import views


def expertise_of(index, user):
    """The user's consensus expertise, read from the all-users array at the user's code."""
    return float(consensus_expertise(index)[code(index, user)])


def rock_jazz_index():
    """Item i: rock by 5 users (incl. u_rock), jazz by 2 users (incl. u_jazz)."""
    rows = [(f"r{k}", "i", "rock", k) for k in range(4)]
    rows.append(("u_rock", "i", "rock", 9))
    rows.append(("u_jazz", "i", "jazz", 5))
    rows.append(("j1", "i", "jazz", 6))
    return make_index(rows)


def with_counterweight(rows):
    """rows plus item "cw", on which "me" scores 0 with weight log10(10) = 1.

    A user's mean over one item is that item's score whatever its weight, so
    the weight of "me"'s other item w shows in the mean w * e / (w + 1).
    """
    return rows + [(f"cw{j}", "cw", "top", j) for j in range(10)] + [("me", "cw", "odd", 0)]


class TestAnnotationScore:
    def test_minority_tag_rule(self):
        index = rock_jazz_index()
        # F(jazz)=2, max F = 5 -> (2-1)/5; u_jazz's one item makes it the user's mean
        assert expertise_of(index, "u_jazz") == pytest.approx(0.2)

    def test_top_tag_scores_one(self):
        index = rock_jazz_index()
        assert expertise_of(index, "u_rock") == 1.0

    def test_tied_top_tags_both_score_one(self):
        rows = [("a", "i", "x", 0), ("b", "i", "x", 1), ("c", "i", "y", 2), ("d", "i", "y", 3)]
        index = make_index(rows)
        assert expertise_of(index, "a") == 1.0
        assert expertise_of(index, "c") == 1.0

    def test_solo_tagger_scores_one_but_weight_none(self):
        # the solo tag is the top tag, but an item nobody else tagged has no weight, so the
        # user's only item is excluded and the mean is undefined
        index = make_index([("solo", "i", "only", 0)])
        assert math.isnan(expertise_of(index, "solo"))

    def test_scores_in_unit_interval(self):
        rng = np.random.default_rng(179)
        rows = random_rows(rng, n_users=12, n_items=6, n_tags=5, n_annotations=200)
        scores = consensus_expertise(make_index(rows))
        defined = scores[~np.isnan(scores)]
        assert len(defined) and ((0.0 <= defined) & (defined <= 1.0)).all()


class TestAnnotationWeight:
    def test_hundred_one_outside_annotations(self):
        # every tag on i is used once, so "mine" is tied for top and scores 1
        rows = [(f"u{k}", "i", f"t{k}", k) for k in range(101)]
        rows.append(("me", "i", "mine", 999))
        weight = math.log10(101)
        assert expertise_of(make_index(with_counterweight(rows)), "me") == pytest.approx(
            weight / (weight + 1))

    def test_single_outside_annotation_weighs_zero(self):
        index = make_index(with_counterweight([("me", "i", "a", 0), ("other", "i", "b", 1)]))
        assert expertise_of(index, "me") == 0.0

    def test_no_outside_annotations_excluded(self):
        index = make_index(with_counterweight([("me", "i", "a", 0), ("me", "i", "b", 1)]))
        assert expertise_of(index, "me") == 0.0

    def test_timestamps_irrelevant(self):
        rows_a = [("me", "i", "a", 0), ("x", "i", "a", 1), ("y", "i", "a", 2)]
        rows_b = [("me", "i", "a", 7), ("x", "i", "a", 3), ("y", "i", "a", 11)]
        w_a = expertise_of(make_index(with_counterweight(rows_a)), "me")
        w_b = expertise_of(make_index(with_counterweight(rows_b)), "me")
        assert w_a == w_b == pytest.approx(math.log10(2) / (math.log10(2) + 1))


class TestUserConsensusExpertise:
    def test_conforming_user_scores_one(self):
        rows = []
        # two items, each heavily tagged with a clear favorite
        for k, item in enumerate(("i1", "i2")):
            for j in range(12):
                rows.append((f"crowd{j}", item, "best", j))
            rows.append((f"dissent{k}", item, "odd", 50))
        rows.append(("me", "i1", "best", 99))
        rows.append(("me", "i2", "best", 99))
        index = make_index(rows)
        assert expertise_of(index, "me") == 1.0

    def test_equal_weight_mean(self):
        rows = []
        # i1: me uses the top tag (e=1); i2: me uses a minority tag
        for j in range(10):
            rows.append((f"a{j}", "i1", "top", j))
            rows.append((f"b{j}", "i2", "top", j))
        rows.append(("me", "i1", "top", 99))
        rows.append(("me", "i2", "weird", 99))
        rows.append(("b0", "i2", "weird", 98))
        index = make_index(rows)
        # i2: F(weird)=2 -> e=(2-1)/10=0.1; weights log10(10) and log10(11) -> nearly
        # the mean of 1 and 0.1
        w1, w2 = math.log10(10), math.log10(11)
        expected = (1.0 * w1 + 0.1 * w2) / (w1 + w2)
        assert expertise_of(index, "me") == pytest.approx(expected)

    def test_max_rule_keeps_best_tag_per_item(self):
        rows = [(f"crowd{j}", "i", "top", j) for j in range(10)]
        rows.append(("me", "i", "top", 50))
        rows.append(("me", "i", "orphan", 51))
        index = make_index(rows)
        # the orphan tag (e=0) must not drag the item below e=1
        assert expertise_of(index, "me") == 1.0

    def test_weight_zero_item_is_neutral(self):
        rows = [(f"crowd{j}", "i1", "top", j) for j in range(10)]
        rows.append(("me", "i1", "top", 50))
        base = expertise_of(make_index(rows), "me")
        rows_plus = rows + [("me", "i2", "a", 0), ("other", "i2", "b", 1)]
        with_zero = expertise_of(make_index(rows_plus), "me")
        assert with_zero == pytest.approx(base)

    def test_all_weights_zero_undefined(self):
        index = make_index([("me", "i", "a", 0), ("other", "i", "b", 1)])
        assert math.isnan(expertise_of(index, "me"))

    def test_scores_in_unit_interval(self):
        rng = np.random.default_rng(181)
        rows = random_rows(rng, n_users=15, n_items=8, n_tags=4, n_annotations=300)
        index = make_index(rows)
        for user in views(index).by_user:
            score = expertise_of(index, user)
            if not math.isnan(score):
                assert 0.0 <= score <= 1.0

    def test_timestamp_invariance(self):
        rng = np.random.default_rng(191)
        rows = random_rows(rng, n_users=10, n_items=6, n_tags=4, n_annotations=150)
        shifted = [(u, i, t, tm + 7) for u, i, t, tm in rows]
        scores_a = consensus_expertise(make_index(rows))
        scores_b = consensus_expertise(make_index(shifted))
        assert scores_a.tobytes() == scores_b.tobytes()


class TestUserAnnotationScores:
    def test_rows_cover_distinct_pairs(self):
        # two annotations, one distinct pair (i, jazz): it scores 0.2, and its weight counts
        # the pair once, log10(7 - 1)
        rows = [(f"r{k}", "i", "rock", k) for k in range(4)]
        rows += [("r4", "i", "rock", 9), ("me", "i", "jazz", 5), ("me", "i", "jazz", 7),
                 ("j1", "i", "jazz", 6)]
        weight = math.log10(6)
        assert expertise_of(make_index(with_counterweight(rows)), "me") == pytest.approx(
            0.2 * weight / (weight + 1))


class TestConsensusExpertiseByBin:
    def test_conforming_users_flat_at_one(self):
        rows = []
        for item in ("i1", "i2", "i3"):
            for j in range(8):
                rows.append((f"u{j}", item, "best", j))
        index = make_index(rows)
        series = consensus_expertise_by_bin(index, BinSpec())
        assert series.rows
        for row in series.rows:
            assert row.mean == pytest.approx(1.0)

    def test_deviant_heavy_users_decline(self):
        rows = []
        # crowd agrees on "best" for shared items
        for item in range(8):
            for j in range(6):
                rows.append((f"crowd{j}", f"i{item}", "best", j))
        # prolific users tag the same items against the consensus, many times over
        for h in range(2):
            for item in range(8):
                rows.append((f"heavy{h}", f"i{item}", f"odd{h}", 50))
            rows += [(f"heavy{h}", f"i{k}", "best", 60) for k in range(2)]
        index = make_index(rows)
        series = consensus_expertise_by_bin(index, BinSpec())
        by_low = sorted(series.rows, key=lambda r: r.bin_low)
        assert by_low[-1].mean < by_low[0].mean

    def test_raw_counts_mode_differs_when_duplicates_exist(self):
        rows = [(f"crowd{j}", "i", "top", j) for j in range(6)]
        # one user repeats a minority tag; raw view inflates its frequency
        rows += [("me", "i", "mine", k) for k in range(8)]
        rows += [("me", "j", "top2", 0)] + [(f"c{j}", "j", "top2", j) for j in range(4)]
        index = make_index(rows)
        distinct = consensus_expertise_by_bin(index, BinSpec())
        raw = consensus_expertise_by_bin(index, BinSpec(), raw_counts=True)
        assert distinct != raw

    def test_matches_brute_force(self):
        rng = np.random.default_rng(193)
        rows = random_rows(rng, n_users=12, n_items=8, n_tags=4, n_annotations=250)
        index = make_index(rows)
        spec = BinSpec()
        series = consensus_expertise_by_bin(index, spec)
        from folkmetrics.stats import binned_mean

        pairs = []
        for user in views(index).by_user:
            score = expertise_of(index, user)
            if math.isnan(score):
                continue
            pairs.append((float(views(index).user_annotation_count[user]), score))
        assert series == binned_mean(pairs, spec)
