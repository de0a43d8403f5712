"""SPEAR expertise: credit assignment, mutual reinforcement, standardization."""

import math

import numpy as np
import pytest

from folkmetrics.errors import ConvergenceWarning, DomainError, NotFoundError
from folkmetrics.spear import (
    CreditMatrix,
    credit_matrix,
    eligible_tags,
    spear_by_bin,
    spear_scores,
    standardize_and_average,
)
from folkmetrics.stats import BinSpec

from conftest import make_index, random_rows
from corpus_oracle import views


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
        assert eligible_tags(index, top_k=10, min_users=1) == {f"t{k}" for k in range(5)}

    def test_min_users_boundary(self):
        rows = [(f"u{k}", "i", "popular", k) for k in range(9)]
        rows += [(f"v{k}", "i", "common", k) for k in range(10)]
        index = make_index(rows)
        assert eligible_tags(index, top_k=10, min_users=10) == {"common"}

    def test_top_k_cuts_by_annotation_count(self):
        rows = []
        for k, count in enumerate([10, 8, 6, 4, 2]):
            rows += [(f"u{j}", f"i{j}", f"t{k}", j) for j in range(count)]
        index = make_index(rows)
        assert eligible_tags(index, top_k=2, min_users=1) == {"t0", "t1"}

    def test_matches_sort_filter_oracle(self):
        rng = np.random.default_rng(139)
        rows = random_rows(rng)
        index = make_index(rows)
        top_k, min_users = 8, 3
        got = eligible_tags(index, top_k=top_k, min_users=min_users)
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
        assert credit.entries[("u1", "i")] == pytest.approx(math.sqrt(2))
        assert credit.entries[("u2", "i")] == pytest.approx(1.0)

    def test_simultaneous_tie(self):
        index = make_index([("u1", "i", "rock", 1), ("u2", "i", "rock", 1)])
        credit = credit_matrix(index, "rock")
        assert credit.entries[("u1", "i")] == 1.0
        assert credit.entries[("u2", "i")] == 1.0

    def test_exponent_zero_flattens(self):
        rows = [(f"u{k}", "i", "rock", k) for k in range(5)]
        credit = credit_matrix(make_index(rows), "rock", exponent=0.0)
        assert all(v == 1.0 for v in credit.entries.values())

    def test_duplicate_applications_use_earliest(self):
        rows = [("u1", "i", "rock", 9), ("u1", "i", "rock", 1), ("u2", "i", "rock", 5)]
        credit = credit_matrix(make_index(rows), "rock")
        # u1's earliest application (t=1) precedes u2 (t=5)
        assert credit.entries[("u1", "i")] == pytest.approx(math.sqrt(2))
        assert credit.entries[("u2", "i")] == pytest.approx(1.0)

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
            for (u, i), c in credit.entries.items():
                later = sum(
                    1
                    for (v, j), tm in earliest.items()
                    if j == i and tm > earliest[(u, i)]
                )
                assert c == pytest.approx((1 + later) ** 0.5)

    def test_unknown_tag(self):
        index = make_index([("u", "i", "t", 0)])
        with pytest.raises(NotFoundError):
            credit_matrix(index, "ghost")


class TestSpearScores:
    def test_single_user_single_item(self):
        credit = CreditMatrix("t", 0.5, {("u", "i"): 1.0})
        result = spear_scores(credit)
        assert result.user_scores == {"u": 1.0}
        assert result.converged

    def test_symmetric_users(self):
        credit = CreditMatrix("t", 0.5, {("u1", "i1"): 1.0, ("u2", "i2"): 1.0})
        result = spear_scores(credit)
        assert result.user_scores["u1"] == pytest.approx(0.5)
        assert result.user_scores["u2"] == pytest.approx(0.5)

    def test_earlier_tagger_scores_higher(self):
        index = make_index([("early", "i", "rock", 1), ("late", "i", "rock", 2)])
        result = spear_scores(credit_matrix(index, "rock"))
        assert result.user_scores["early"] > result.user_scores["late"]
        # single item: fixed point is proportional to credit
        expected = math.sqrt(2) / (math.sqrt(2) + 1.0)
        assert result.user_scores["early"] == pytest.approx(expected, abs=1e-8)

    def test_l1_normalized(self):
        rng = np.random.default_rng(151)
        index = make_index(random_rows(rng, n_annotations=200))
        for tag in sorted(views(index).by_tag)[:3]:
            result = spear_scores(credit_matrix(index, tag))
            assert sum(result.user_scores.values()) == pytest.approx(1.0, abs=1e-9)
            assert all(v >= 0 for v in result.user_scores.values())
            assert sum(result.item_scores.values()) == pytest.approx(1.0, abs=1e-9)

    def test_converges_on_random_bipartite_fixtures(self):
        rng = np.random.default_rng(157)
        for _ in range(10):
            n_users = int(rng.integers(2, 101))
            n_items = int(rng.integers(1, 30))
            entries = {}
            for u in range(n_users):
                for i in rng.choice(n_items, size=min(n_items, 3), replace=False):
                    entries[(f"u{u}", f"i{i}")] = float(rng.integers(1, 5)) ** 0.5
            result = spear_scores(CreditMatrix("t", 0.5, entries), tolerance=1e-8, max_iter=250)
            assert result.converged
            assert result.iterations <= 250

    def test_exponent_zero_matches_hits_oracle(self):
        rng = np.random.default_rng(163)
        rows = random_rows(rng, n_users=12, n_items=8, n_tags=2, n_annotations=150)
        index = make_index(rows)
        for tag in views(index).by_tag:
            credit = credit_matrix(index, tag, exponent=0.0)
            result = spear_scores(credit, tolerance=1e-12, max_iter=2000)
            expected_e, expected_q = brute_force_hits(credit.entries)
            for user, score in result.user_scores.items():
                assert score == pytest.approx(expected_e[user], abs=1e-6)
            for item, score in result.item_scores.items():
                assert score == pytest.approx(expected_q[item], abs=1e-6)

    def test_input_order_invariance(self):
        entries = {("b", "i1"): 2.0, ("a", "i1"): 1.0, ("c", "i2"): 1.5}
        shuffled = dict(reversed(list(entries.items())))
        r1 = spear_scores(CreditMatrix("t", 0.5, entries))
        r2 = spear_scores(CreditMatrix("t", 0.5, shuffled))
        assert r1.user_scores == r2.user_scores

    def test_empty_matrix_raises(self):
        with pytest.raises(DomainError):
            spear_scores(CreditMatrix("t", 0.5, {}))


class TestStandardize:
    def test_two_users_plus_minus_one(self):
        result = spear_scores(CreditMatrix("t", 0.5, {("a", "i"): 2.0, ("b", "i"): 1.0}))
        mean_z = standardize_and_average([result])
        assert mean_z["a"] == pytest.approx(1.0)
        assert mean_z["b"] == pytest.approx(-1.0)

    def test_zero_variance_gives_zeros(self):
        result = spear_scores(CreditMatrix("t", 0.5, {("a", "i1"): 1.0, ("b", "i2"): 1.0}))
        mean_z = standardize_and_average([result])
        assert mean_z == {"a": 0.0, "b": 0.0}

    def test_opposite_tags_cancel(self):
        r1 = spear_scores(CreditMatrix("t1", 0.5, {("a", "i"): 2.0, ("b", "i"): 1.0}))
        r2 = spear_scores(CreditMatrix("t2", 0.5, {("a", "j"): 1.0, ("b", "j"): 2.0}))
        mean_z = standardize_and_average([r1, r2])
        assert mean_z["a"] == pytest.approx(0.0, abs=1e-9)
        assert mean_z["b"] == pytest.approx(0.0, abs=1e-9)

    def test_per_tag_zscores_standardized(self):
        rng = np.random.default_rng(167)
        rows = random_rows(rng, n_annotations=300)
        index = make_index(rows)
        for tag in sorted(views(index).by_tag)[:5]:
            result = spear_scores(credit_matrix(index, tag))
            scores = np.array(sorted(result.user_scores.values()))
            if scores.std() == 0:
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
        series = spear_by_bin(index, BinSpec(), top_k=10, min_users=2)
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
        series = spear_by_bin(index, BinSpec(), top_k=10, min_users=2)
        rows_sorted = sorted(series.rows, key=lambda r: r.bin_low)
        assert rows_sorted[-1].mean > rows_sorted[0].mean

    def test_matches_end_to_end_brute_force(self):
        rng = np.random.default_rng(173)
        rows = random_rows(rng, n_users=10, n_items=8, n_tags=3, n_annotations=150, time_span=4)
        index = make_index(rows)
        spec = BinSpec()
        series = spear_by_bin(index, spec, top_k=3, min_users=1)

        tags = eligible_tags(index, top_k=3, min_users=1)
        per_user = {}
        for tag in sorted(tags):
            result = spear_scores(credit_matrix(index, tag))
            users = sorted(result.user_scores)
            scores = np.array([result.user_scores[u] for u in users])
            sd = scores.std(ddof=0)
            z = np.zeros_like(scores) if sd == 0 else (scores - scores.mean()) / sd
            for u, zv in zip(users, z):
                per_user.setdefault(u, []).append(float(zv))
        from folkmetrics.stats import binned_mean

        pairs = [
            (float(views(index).user_annotation_count[u]), float(np.mean(zs)))
            for u, zs in sorted(per_user.items())
        ]
        assert series == binned_mean(pairs, spec)

    def test_unconverged_tags_warn(self):
        rng = np.random.default_rng(173)
        rows = random_rows(rng, n_users=10, n_items=8, n_tags=3, n_annotations=150, time_span=4)
        index = make_index(rows)
        message = r"spear: [1-3] of 3 tags did not converge within max_iter=1"
        with pytest.warns(ConvergenceWarning, match=message):
            spear_by_bin(index, BinSpec(), top_k=3, min_users=1, max_iter=1)

    def test_no_eligible_tags_raises(self):
        index = make_index([("u", "i", "t", 0)])
        with pytest.raises(DomainError):
            spear_by_bin(index, BinSpec(), top_k=10, min_users=5)
