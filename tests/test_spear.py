"""SPEAR expertise: credit assignment, mutual reinforcement, standardization."""

import math

import numpy as np
import pytest

from folkmetrics.corpus import binned_by_user_count
from folkmetrics.errors import ConvergenceWarning, DomainError
from folkmetrics.report import ReportConfig
from folkmetrics.spear import (
    credit_batch,
    eligible_tags,
    spear_scores,
    user_mean_z,
)
from folkmetrics.stats import BinSpec

from conftest import make_index, random_rows, tag_codes, tag_names
from corpus_oracle import views
from spear_oracle import batch_of, entries, results


def batch_by_name(index, tags, exponent=0.5):
    """credit_batch of the named tags."""
    return credit_batch(index, tag_codes(index, tags), exponent)


def credit_matrix(index, tag, exponent=0.5):
    """{(user, item): credit} of one named tag, from credit_batch."""
    return entries(batch_by_name(index, [tag], exponent), index.columns)


def scored(batch, names, **limits):
    """The SpearResult of a one-tag batch whose codes index the Names names."""
    return results(spear_scores(batch, **limits), names)[names.tags[batch.tags[0]]]


def mean_z_by_name(index, **options):
    """user_mean_z as {user: mean z} over the users that have a score."""
    mean_z = user_mean_z(index, **options)
    return {u: z for u, z in zip(index.columns.users, mean_z.tolist()) if not math.isnan(z)}


def brute_force_hits(entries, iterations=2000):
    """Reference power iteration with explicit loops over the credit entries."""
    users = sorted({u for u, _ in entries})
    items = sorted({i for _, i in entries})
    e = {u: 1.0 / len(users) for u in users}
    q = {i: 1.0 / len(items) for i in items}
    for _ in range(iterations):
        e_new = {u: 0.0 for u in users}
        for (u, i), c in entries.items():
            e_new[u] += c * q[i]
        norm = sum(e_new.values())
        e_new = {u: v / norm for u, v in e_new.items()}
        q_new = {i: 0.0 for i in items}
        for (u, i), c in entries.items():
            q_new[i] += c * e_new[u]
        norm = sum(q_new.values())
        q = {i: v / norm for i, v in q_new.items()}
        if max(abs(e_new[u] - e[u]) for u in users) < 1e-13:
            e = e_new
            break
        e = e_new
    return e, q


class TestEligibleTags:
    def test_small_corpus_all_pass(self):
        rows = [(f"u{k}", "i", f"t{k % 5}", k) for k in range(20)]
        index = make_index(rows)
        got = eligible_tags(index, top_k=10, min_users=1)
        assert tag_names(index, got) == {f"t{k}" for k in range(5)}

    def test_min_users_boundary(self):
        rows = [(f"u{k}", "i", "popular", k) for k in range(9)]
        rows += [(f"v{k}", "i", "common", k) for k in range(10)]
        index = make_index(rows)
        assert tag_names(index, eligible_tags(index, top_k=10, min_users=10)) == {"common"}

    def test_top_k_cuts_by_annotation_count(self):
        rows = []
        for k, count in enumerate([10, 8, 6, 4, 2]):
            rows += [(f"u{j}", f"i{j}", f"t{k}", j) for j in range(count)]
        index = make_index(rows)
        assert tag_names(index, eligible_tags(index, top_k=2, min_users=1)) == {"t0", "t1"}

    @pytest.mark.parametrize("top_k", [0, -1])
    def test_top_k_below_one_raises(self, top_k):
        index = make_index([(f"u{k}", "i", f"t{k % 2}", k) for k in range(4)])
        with pytest.raises(DomainError):
            eligible_tags(index, top_k=top_k, min_users=1)

    @pytest.mark.parametrize("min_users", [0, -3])
    def test_min_users_below_one_raises(self, min_users):
        index = make_index([(f"u{k}", "i", f"t{k % 2}", k) for k in range(4)])
        with pytest.raises(DomainError, match="min_users"):
            eligible_tags(index, top_k=10, min_users=min_users)

    def test_matches_sort_filter_oracle(self):
        rng = np.random.default_rng(139)
        rows = random_rows(rng)
        index = make_index(rows)
        top_k, min_users = 8, 3
        got = eligible_tags(index, top_k=top_k, min_users=min_users)
        assert got.dtype == np.int64 and (np.diff(got) > 0).all()
        got = tag_names(index, got)
        counts = {}
        users = {}
        for u, _, t, _ in rows:
            counts[t] = counts.get(t, 0) + 1
            users.setdefault(t, set()).add(u)
        ranked = sorted(counts, key=lambda t: (-counts[t], t))[:top_k]
        assert got == {t for t in ranked if len(users[t]) >= min_users}


class TestCreditMatrix:
    def test_sequential_taggers(self):
        index = make_index([("u1", "i", "rock", 1), ("u2", "i", "rock", 2)])
        credit = credit_matrix(index, "rock", exponent=0.5)
        assert credit[("u1", "i")] == pytest.approx(math.sqrt(2))
        assert credit[("u2", "i")] == pytest.approx(1.0)

    def test_simultaneous_tie(self):
        index = make_index([("u1", "i", "rock", 1), ("u2", "i", "rock", 1)])
        credit = credit_matrix(index, "rock")
        assert credit[("u1", "i")] == 1.0
        assert credit[("u2", "i")] == 1.0

    def test_exponent_zero_flattens(self):
        rows = [(f"u{k}", "i", "rock", k) for k in range(5)]
        credit = credit_matrix(make_index(rows), "rock", exponent=0.0)
        assert all(v == 1.0 for v in credit.values())

    def test_duplicate_applications_use_earliest(self):
        rows = [("u1", "i", "rock", 9), ("u1", "i", "rock", 1), ("u2", "i", "rock", 5)]
        credit = credit_matrix(make_index(rows), "rock")
        # u1's earliest application (t=1) precedes u2 (t=5)
        assert credit[("u1", "i")] == pytest.approx(math.sqrt(2))
        assert credit[("u2", "i")] == pytest.approx(1.0)

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(149)
        rows = random_rows(rng, n_users=15, n_items=10, n_tags=4, n_annotations=250, time_span=6)
        index = make_index(rows)
        for tag in views(index).by_tag:
            credit = credit_matrix(index, tag, exponent=0.5)
            earliest = {}
            for u, i, t, tm in rows:
                if t == tag:
                    key = (u, i)
                    if key not in earliest or tm < earliest[key]:
                        earliest[key] = tm
            for (u, i), c in credit.items():
                later = sum(
                    1
                    for (v, j), tm in earliest.items()
                    if j == i and tm > earliest[(u, i)]
                )
                assert c == pytest.approx((1 + later) ** 0.5)

    def test_unknown_tag(self):
        index = make_index([("u", "i", "t", 0)])
        with pytest.raises(DomainError):
            credit_batch(index, [1])


class TestSpearScores:
    def test_single_user_single_item(self):
        result = scored(*batch_of({("u", "i"): 1.0}))
        assert result.user_scores == {"u": 1.0}
        assert result.converged

    def test_symmetric_users(self):
        result = scored(*batch_of({("u1", "i1"): 1.0, ("u2", "i2"): 1.0}))
        assert result.user_scores["u1"] == pytest.approx(0.5)
        assert result.user_scores["u2"] == pytest.approx(0.5)

    def test_earlier_tagger_scores_higher(self):
        index = make_index([("early", "i", "rock", 1), ("late", "i", "rock", 2)])
        result = scored(batch_by_name(index, ["rock"]), index.columns)
        assert result.user_scores["early"] > result.user_scores["late"]
        # single item: fixed point is proportional to credit
        expected = math.sqrt(2) / (math.sqrt(2) + 1.0)
        assert result.user_scores["early"] == pytest.approx(expected, abs=1e-8)

    def test_l1_normalized(self):
        rng = np.random.default_rng(151)
        index = make_index(random_rows(rng, n_annotations=200))
        for tag in sorted(views(index).by_tag)[:3]:
            result = scored(batch_by_name(index, [tag]), index.columns)
            assert sum(result.user_scores.values()) == pytest.approx(1.0, abs=1e-9)
            assert all(v >= 0 for v in result.user_scores.values())
            assert sum(result.item_scores.values()) == pytest.approx(1.0, abs=1e-9)

    def test_converges_on_random_bipartite_fixtures(self):
        rng = np.random.default_rng(157)
        for _ in range(10):
            n_users = int(rng.integers(2, 101))
            n_items = int(rng.integers(1, 30))
            credits = {}
            for u in range(n_users):
                for i in rng.choice(n_items, size=min(n_items, 3), replace=False):
                    credits[(f"u{u}", f"i{i}")] = float(rng.integers(1, 5)) ** 0.5
            result = scored(*batch_of(credits), tolerance=1e-8, max_iter=250)
            assert result.converged
            assert result.iterations <= 250

    def test_exponent_zero_matches_hits_oracle(self):
        rng = np.random.default_rng(163)
        rows = random_rows(rng, n_users=12, n_items=8, n_tags=2, n_annotations=150)
        index = make_index(rows)
        for tag in views(index).by_tag:
            batch = batch_by_name(index, [tag], exponent=0.0)
            result = scored(batch, index.columns, tolerance=1e-12, max_iter=2000)
            expected_e, expected_q = brute_force_hits(entries(batch, index.columns))
            for user, score in result.user_scores.items():
                assert score == pytest.approx(expected_e[user], abs=1e-6)
            for item, score in result.item_scores.items():
                assert score == pytest.approx(expected_q[item], abs=1e-6)

    def test_input_order_invariance(self):
        credits = {("b", "i1"): 2.0, ("a", "i1"): 1.0, ("c", "i2"): 1.5}
        shuffled = dict(reversed(list(credits.items())))
        r1 = scored(*batch_of(credits))
        r2 = scored(*batch_of(shuffled))
        assert r1.user_scores == r2.user_scores

    def test_empty_matrix_raises(self):
        # batches come from eligible tags, so the empty case is a corpus with none
        with pytest.raises(DomainError):
            user_mean_z(make_index([("u", "i", "t", 0)]), min_users=2)


class TestStandardize:
    """With exponent 1 an item's first of two taggers has credit 2, the second 1."""

    def test_two_users_plus_minus_one(self):
        index = make_index([("a", "i", "t", 1), ("b", "i", "t", 2)])
        mean_z = mean_z_by_name(index, min_users=1, exponent=1.0)
        assert mean_z["a"] == pytest.approx(1.0)
        assert mean_z["b"] == pytest.approx(-1.0)

    def test_zero_variance_gives_zeros(self):
        index = make_index([("a", "i1", "t", 1), ("b", "i2", "t", 1)])
        mean_z = mean_z_by_name(index, min_users=1)
        assert mean_z == {"a": 0.0, "b": 0.0}

    def test_equal_scores_off_by_rounding_give_zeros(self):
        # seven simultaneous taggers of one item each score 1/7, whose std is 2.8e-17
        index = make_index([(f"u{k}", "i", "t", 0) for k in range(7)])
        mean_z = mean_z_by_name(index, min_users=1)
        assert mean_z == {f"u{k}": 0.0 for k in range(7)}

    def test_opposite_tags_cancel(self):
        index = make_index([("a", "i", "t1", 1), ("b", "i", "t1", 2),
                            ("b", "j", "t2", 1), ("a", "j", "t2", 2)])
        mean_z = mean_z_by_name(index, min_users=1, exponent=1.0)
        assert mean_z["a"] == pytest.approx(0.0, abs=1e-9)
        assert mean_z["b"] == pytest.approx(0.0, abs=1e-9)

    def test_per_tag_zscores_standardized(self):
        rng = np.random.default_rng(167)
        rows = random_rows(rng, n_annotations=300)
        index = make_index(rows)
        tags = sorted(views(index).by_tag)[:5]
        for result in results(spear_scores(batch_by_name(index, tags)), index.columns).values():
            scores = np.array(sorted(result.user_scores.values()))
            if np.all(scores == scores[0]):
                continue
            z = (scores - scores.mean()) / scores.std(ddof=0)
            assert abs(z.mean()) < 1e-9
            assert abs(z.std(ddof=0) - 1.0) < 1e-9


class TestSpearByBin:
    def test_uniform_behavior_centers_near_zero(self):
        rows = []
        for u in range(12):
            rows += [(f"u{u}", f"i{k}", "t0", u) for k in range(3)]
        index = make_index(rows)
        series = binned_by_user_count(index, user_mean_z(index, top_k=10, min_users=2), BinSpec())
        overall = sum(row.mean * row.n for row in series.rows) / series.total_count
        assert overall == pytest.approx(0.0, abs=1e-9)

    def test_prolific_first_taggers_rank_higher(self):
        rows = []
        # heavy users tag every item first (t=0), light users follow (t=5)
        for k in range(6):
            for h in range(2):
                rows += [(f"heavy{h}", f"i{k}", "t0", 0)]
            for l in range(8):
                rows += [(f"light{l}", f"i{k}", "t0", 5)]
        # heavies also tag extra items to push their annotation counts up
        for h in range(2):
            rows += [(f"heavy{h}", f"x{h}{j}", "t0", 1) for j in range(20)]
        index = make_index(rows)
        series = binned_by_user_count(index, user_mean_z(index, top_k=10, min_users=2), BinSpec())
        rows_sorted = sorted(series.rows, key=lambda r: r.bin_low)
        assert rows_sorted[-1].mean > rows_sorted[0].mean

    def test_matches_end_to_end_brute_force(self):
        rng = np.random.default_rng(173)
        rows = random_rows(rng, n_users=10, n_items=8, n_tags=3, n_annotations=150, time_span=4)
        index = make_index(rows)
        spec = BinSpec()
        series = binned_by_user_count(index, user_mean_z(index, top_k=3, min_users=1), spec)

        tags = eligible_tags(index, top_k=3, min_users=1)
        per_user = {}
        for tag in tags.tolist():
            result = scored(credit_batch(index, [tag]), index.columns)
            users = sorted(result.user_scores)
            scores = np.array([result.user_scores[u] for u in users])
            equal = np.all(scores == scores[0])
            z = np.zeros_like(scores) if equal else (scores - scores.mean()) / scores.std(ddof=0)
            for u, zv in zip(users, z):
                per_user.setdefault(u, []).append(float(zv))
        from folkmetrics.stats import binned_mean

        # users in name order, which is code order
        users = sorted(per_user)
        counts = np.array([views(index).user_annotation_count[u] for u in users], dtype=float)
        means = np.array([np.mean(per_user[u]) for u in users])
        assert series == binned_mean(counts, means, spec)

    def test_unconverged_tags_warn(self):
        rng = np.random.default_rng(173)
        rows = random_rows(rng, n_users=10, n_items=8, n_tags=3, n_annotations=150, time_span=4)
        index = make_index(rows)
        message = r"spear: [1-3] of 3 tags did not converge within max_iter=1"
        with pytest.warns(ConvergenceWarning, match=message):
            user_mean_z(index, top_k=3, min_users=1, max_iter=1)

    def test_no_eligible_tags_raises(self):
        index = make_index([("u", "i", "t", 0)])
        with pytest.raises(DomainError):
            user_mean_z(index, top_k=10, min_users=5)

    def test_infinite_tolerance_raises(self):
        # every tag would stop after one iteration and count as converged
        index = make_index([(f"u{k}", f"i{k % 3}", "t", k) for k in range(6)])
        with pytest.raises(DomainError, match="finite tolerance"):
            user_mean_z(index, top_k=10, min_users=1, tolerance=math.inf)

    @pytest.mark.parametrize("limits", [dict(max_iter=0), dict(max_iter=-1), dict(tolerance=0.0),
                                        dict(tolerance=-1e-8), dict(tolerance=math.nan),
                                        dict(tolerance=math.inf), dict(exponent=math.nan),
                                        dict(exponent=math.inf)])
    def test_report_config_rejects_bad_limits(self, limits):
        # write_report would turn the error into a header-only spear_binned.csv
        with pytest.raises(DomainError, match="max_iter"):
            ReportConfig(**limits)
