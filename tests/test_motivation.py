"""Tags-per-post, tag-resource ratio, and orphan ratio."""

import numpy as np
import pytest

from folkmetrics.corpus import binned_by_user_count
from folkmetrics.errors import DomainError
from folkmetrics.motivation import motivation_scores
from folkmetrics.stats import BinSpec

from conftest import code, make_index, random_rows
from corpus_oracle import views


def scores_of(index, user, divisor=100):
    """The user's (TPP, TRR, orphan ratio), read from the all-users arrays at the user's code."""
    return tuple(float(scores[code(index, user)]) for scores in motivation_scores(index, divisor))


class TestTPP:
    def test_hand_count(self):
        index = make_index(
            [("u", "i1", "a", 0), ("u", "i1", "b", 1), ("u", "i2", "a", 2)]
        )
        assert scores_of(index, "u")[0] == pytest.approx(1.5)

    def test_single_pair(self):
        index = make_index([("u", "i1", "a", 0)])
        assert scores_of(index, "u")[0] == 1.0

    def test_duplicate_triples_ignored(self):
        index = make_index([("u", "i1", "a", 0), ("u", "i1", "a", 9)])
        assert scores_of(index, "u")[0] == 1.0


class TestTRR:
    def test_balanced(self):
        index = make_index(
            [("u", "i1", "a", 0), ("u", "i2", "b", 1)]
        )
        assert scores_of(index, "u")[1] == 1.0

    def test_one_tag_many_items(self):
        index = make_index([("u", f"i{k}", "a", k) for k in range(10)])
        assert scores_of(index, "u")[1] == pytest.approx(0.1)

    def test_matches_scan_oracle(self):
        rng = np.random.default_rng(113)
        rows = random_rows(rng)
        index = make_index(rows)
        for user in views(index).by_user:
            mine = [r for r in rows if r[0] == user]
            expected = len({r[2] for r in mine}) / len({r[1] for r in mine})
            assert scores_of(index, user)[1] == pytest.approx(expected)


class TestOrphanRatio:
    def test_uniform_singletons(self):
        index = make_index([("u", f"i{k}", f"t{k}", k) for k in range(5)])
        assert scores_of(index, "u")[2] == 1.0

    def test_orphan_threshold_scaling(self):
        # one tag on 200 items, nine tags on one item each: n* = ceil(200/100) = 2
        rows = [("u", f"i{k}", "big", k) for k in range(200)]
        rows += [("u", f"j{k}", f"small{k}", k) for k in range(9)]
        index = make_index(rows)
        assert scores_of(index, "u")[2] == pytest.approx(0.9)

    def test_single_tag_vocabulary(self):
        index = make_index([("u", f"i{k}", "only", k) for k in range(50)])
        assert scores_of(index, "u")[2] == 1.0

    def test_or_is_one_when_max_usage_below_divisor(self):
        rng = np.random.default_rng(127)
        rows = random_rows(rng, n_users=10, n_items=60, n_tags=8, n_annotations=250)
        index = make_index(rows)
        for user in views(index).by_user:
            usage = {}
            for r in rows:
                if r[0] == user:
                    usage.setdefault(r[2], set()).add(r[1])
            if max(len(v) for v in usage.values()) <= 100:
                assert scores_of(index, user)[2] == 1.0

    def test_configurable_divisor(self):
        rows = [("u", f"i{k}", "big", k) for k in range(20)]
        rows += [("u", "j0", "small", 0)]
        index = make_index(rows)
        # divisor 10: n* = ceil(20/10) = 2 -> only "small" is an orphan
        assert scores_of(index, "u", 10)[2] == pytest.approx(0.5)
        # default divisor 100: max usage 20 is within it -> everything is seldom-used
        assert scores_of(index, "u")[2] == 1.0

    @pytest.mark.parametrize("divisor", [0, -3])
    def test_divisor_below_one_raises(self, divisor):
        index = make_index([("u", "i", "t", 0)])
        with pytest.raises(DomainError):
            motivation_scores(index, divisor)


class TestInvariants:
    def test_tpp_bounds(self):
        rng = np.random.default_rng(131)
        rows = random_rows(rng)
        index = make_index(rows)
        for user in views(index).by_user:
            user_tpp, user_trr, user_orphans = scores_of(index, user)
            vocab = len({r[2] for r in rows if r[0] == user})
            assert 1.0 <= user_tpp <= vocab
            assert 0.0 <= user_orphans <= 1.0
            assert user_trr > 0

    def test_duplicate_invariance(self):
        rows = [("u", "i1", "a", 0), ("u", "i2", "b", 1), ("u", "i2", "a", 2)]
        index_raw = make_index(rows + rows + rows)
        index_clean = make_index(rows)
        assert scores_of(index_raw, "u") == scores_of(index_clean, "u")


class TestMotivationByBin:
    def test_identical_users_flat(self):
        rows = []
        for u in range(6):
            rows += [(f"u{u}", f"i{u}a", "x", 0), (f"u{u}", f"i{u}b", "y", 1)]
        index = make_index(rows)
        tpp, trr, orphan_ratio = (binned_by_user_count(index, scores, BinSpec())
                                  for scores in motivation_scores(index))
        assert len(tpp.rows) == 1
        assert tpp.rows[0].mean == pytest.approx(1.0)
        assert trr.rows[0].mean == pytest.approx(1.0)
        assert orphan_ratio.rows[0].mean == pytest.approx(1.0)

    def test_heavy_users_higher_tpp(self):
        rows = []
        # light users: one tag per item; heavy users: four tags per item
        for u in range(4):
            rows += [(f"light{u}", f"l{u}{k}", "t0", 0) for k in range(2)]
        for u in range(4):
            for k in range(8):
                rows += [(f"heavy{u}", f"h{u}{k}", f"t{j}", 0) for j in range(4)]
        index = make_index(rows)
        tpp = binned_by_user_count(index, motivation_scores(index)[0], BinSpec())
        rows_sorted = sorted(tpp.rows, key=lambda r: r.bin_low)
        assert rows_sorted[0].mean == pytest.approx(1.0)
        assert rows_sorted[-1].mean == pytest.approx(4.0)
        assert rows_sorted[-1].bin_low > rows_sorted[0].bin_low

    def test_matches_brute_force(self):
        rng = np.random.default_rng(137)
        rows = random_rows(rng)
        index = make_index(rows)
        spec = BinSpec()
        series = binned_by_user_count(index, motivation_scores(index)[0], spec)
        # users in name order, which is code order
        users = sorted(views(index).by_user)
        counts = np.array([views(index).user_annotation_count[u] for u in users], dtype=float)
        tpp = np.array([scores_of(index, u)[0] for u in users])
        from folkmetrics.stats import binned_mean

        expected = binned_mean(counts, tpp, spec)
        assert series == expected
