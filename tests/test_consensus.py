"""Per-item agreement between groups and the log-binned consensus series."""

import math

import numpy as np
import pytest

from folkmetrics.consensus import (
    TagDistribution,
    consensus_by_bin,
    item_cosine,
    item_tag_distribution,
    top_tag_match,
)
from folkmetrics.errors import DomainError
from folkmetrics.partition import Partition, split_supertaggers
from folkmetrics.stats import BinSpec, log_bins

from analysis_oracle import named
from conftest import make_index, random_rows, user_mask


class TestItemTagDistribution:
    def test_distinct_user_counts(self):
        rows = [
            ("u1", "i1", "rock", 0),
            ("u1", "i1", "rock", 5),  # duplicate application, same user
            ("u2", "i1", "rock", 1),
            ("u2", "i1", "jazz", 2),
        ]
        index = make_index(rows)
        dist = item_tag_distribution(index, user_mask(index, {"u1", "u2"}), "i1")
        assert dist.counts == {"rock": 2, "jazz": 1}

    def test_untagged_returns_none(self):
        index = make_index([("u1", "i1", "rock", 0)])
        assert item_tag_distribution(index, user_mask(index, {"u2"}), "i1") is None
        assert item_tag_distribution(index, user_mask(index, {"u1"}), "ghost") is None


class TestTopTagMatch:
    def test_agreement(self):
        s = TagDistribution("i", {"rock": 3, "jazz": 1})
        o = TagDistribution("i", {"rock": 2})
        assert top_tag_match(s, o) is True

    def test_disagreement(self):
        s = TagDistribution("i", {"rock": 3})
        o = TagDistribution("i", {"jazz": 2})
        assert top_tag_match(s, o) is False

    def test_tie_resolved_lexicographically(self):
        s = TagDistribution("i", {"rock": 2, "jazz": 2})
        o = TagDistribution("i", {"jazz": 5})
        assert top_tag_match(s, o) is True

    def test_missing_side_not_applicable(self):
        s = TagDistribution("i", {"rock": 1})
        assert top_tag_match(s, None) is None
        assert top_tag_match(None, s) is None


class TestItemCosine:
    def test_identical(self):
        s = TagDistribution("i", {"a": 2, "b": 1})
        assert item_cosine(s, s) == pytest.approx(1.0)

    def test_disjoint(self):
        s = TagDistribution("i", {"a": 2})
        o = TagDistribution("i", {"b": 3})
        assert item_cosine(s, o) == pytest.approx(0.0)

    def test_partial_overlap(self):
        s = TagDistribution("i", {"a": 1, "b": 1})
        o = TagDistribution("i", {"a": 1})
        assert item_cosine(s, o) == pytest.approx(1 / math.sqrt(2))

    def test_scale_invariant(self):
        s = TagDistribution("i", {"a": 2, "b": 5, "c": 1})
        o = TagDistribution("i", {"a": 6, "b": 15, "c": 3})
        assert item_cosine(s, o) == pytest.approx(1.0)
        assert top_tag_match(s, o) is True


class TestConsensusByBin:
    def test_identical_tagging_everywhere_one(self):
        rows = []
        for user, group in (("s", "S"), ("o", "O")):
            for k in range(6):
                count = k + 1
                for j in range(count):
                    rows.append((user, f"i{k}", f"tag{j}", 0))
        index = make_index(rows)
        part = Partition(user_mask(index, {"s"}), 0, 0.5)
        series = consensus_by_bin(index, part, BinSpec())
        assert series.shared_items == 6
        assert series.top_match.total_count == 6
        for row in series.top_match.rows:
            assert row.mean == pytest.approx(1.0)
        for row in series.cosine.rows:
            assert row.mean == pytest.approx(1.0)

    def test_disjoint_vocabularies_cosine_zero(self):
        rows = []
        for k in range(4):
            rows.append(("s", f"i{k}", f"stag{k}", 0))
            rows.append(("o", f"i{k}", f"otag{k}", 0))
        index = make_index(rows)
        part = Partition(user_mask(index, {"s"}), 0, 0.5)
        series = consensus_by_bin(index, part, BinSpec())
        for row in series.cosine.rows:
            assert row.mean == pytest.approx(0.0)
        for row in series.top_match.rows:
            assert row.mean == pytest.approx(0.0)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(107)
        rows = random_rows(rng, n_users=12, n_items=10, n_tags=6, n_annotations=300)
        index = make_index(rows)
        part = split_supertaggers(index, 0.5)
        spec = BinSpec()
        series = consensus_by_bin(index, part, spec)
        part = named(index, part)

        edges = log_bins(spec)
        per_bin_match = {}
        per_bin_cos = {}
        shared = 0
        for item in sorted({r[1] for r in rows}):
            s_counts = {}
            o_counts = {}
            for tag in sorted({r[2] for r in rows if r[1] == item}):
                s_users = {r[0] for r in rows if r[1] == item and r[2] == tag and r[0] in part.supertaggers}
                o_users = {r[0] for r in rows if r[1] == item and r[2] == tag and r[0] in part.others}
                if s_users:
                    s_counts[tag] = len(s_users)
                if o_users:
                    o_counts[tag] = len(o_users)
            if not s_counts or not o_counts:
                continue
            shared += 1
            top_s = min(t for t in s_counts if s_counts[t] == max(s_counts.values()))
            top_o = min(t for t in o_counts if o_counts[t] == max(o_counts.values()))
            vocab = sorted(set(s_counts) | set(o_counts))
            va = [s_counts.get(t, 0) for t in vocab]
            vb = [o_counts.get(t, 0) for t in vocab]
            cos = sum(a * b for a, b in zip(va, vb)) / (
                math.sqrt(sum(a * a for a in va)) * math.sqrt(sum(b * b for b in vb))
            )
            total = sum(1 for r in rows if r[1] == item)
            idx = int(np.searchsorted(edges, float(total), side="right")) - 1
            per_bin_match.setdefault(idx, []).append(float(top_s == top_o))
            per_bin_cos.setdefault(idx, []).append(cos)

        assert series.shared_items == shared
        assert series.top_match.total_count == shared
        assert len(series.top_match.rows) == len(per_bin_match)
        match_means = sorted(
            (np.mean(vals) for vals in per_bin_match.values()),
        )
        got_means = sorted(row.mean for row in series.top_match.rows)
        assert got_means == pytest.approx(match_means)
        cos_means = sorted(np.mean(vals) for vals in per_bin_cos.values())
        got_cos = sorted(row.mean for row in series.cosine.rows)
        assert got_cos == pytest.approx(cos_means)

    def test_no_shared_items_raises(self):
        rows = [("s", "i1", "a", 0), ("o", "i2", "a", 0)]
        index = make_index(rows)
        part = Partition(user_mask(index, {"s"}), 0, 0.5)
        with pytest.raises(DomainError):
            consensus_by_bin(index, part, BinSpec())

    def test_every_shared_item_in_exactly_one_bin(self):
        rng = np.random.default_rng(109)
        index = make_index(random_rows(rng, n_users=10, n_items=8, n_tags=5, n_annotations=200))
        part = split_supertaggers(index, 0.5)
        series = consensus_by_bin(index, part, BinSpec())
        assert series.top_match.total_count == series.shared_items
        assert series.cosine.total_count == series.shared_items
