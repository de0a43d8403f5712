"""Taxonomy induction, depth normalization, and term-depth expertise."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import folkmetrics

from folkmetrics.errors import DomainError
from folkmetrics.stats import BinSpec
from folkmetrics.taxonomy import (
    annotation_coverage,
    conditional_table,
    depth_by_bin,
    depth_expertise,
    induce_forest,
)

from conftest import code, make_index, random_rows
from corpus_oracle import views


def rock_fixture_index():
    """'classic rock' on 10 items that all carry 'rock'; 'rock' on 100 items."""
    rows = []
    for k in range(10):
        rows.append(("builder", f"i{k}", "classic rock", 0))
        rows.append(("builder", f"i{k}", "rock", 0))
    for k in range(10, 100):
        rows.append(("builder", f"i{k}", "rock", 0))
    return make_index(rows)


def items_with_tags(groups):
    """groups of (n_items, tags) -> index rows where each item carries the tags."""
    rows = []
    serial = 0
    for n_items, tags in groups:
        for _ in range(n_items):
            for tag in tags:
                rows.append(("builder", f"i{serial:04d}", tag, 0))
            serial += 1
    return rows


def chain_index():
    """Three-level chain: b under a, c under b.

    P(a|b) = 12/14, P(b|a) = 14/42, P(b|c) = 1, P(a|c) = 4/6 (below
    threshold, so c attaches to b, not to the more general a).
    """
    return make_index(
        items_with_tags(
            [(30, ["a"]), (8, ["a", "b"]), (4, ["a", "b", "c"]), (2, ["b", "c"])]
        )
    )


class TestConditionalTable:
    def test_rock_fixture_probabilities(self):
        index = rock_fixture_index()
        table = conditional_table(index, ["rock", "classic rock"], min_support=10)
        assert table.probs[("rock", "classic rock")] == pytest.approx(1.0)
        assert table.probs[("classic rock", "rock")] == pytest.approx(0.1)
        assert table.support[("classic rock", "rock")] == 10
        assert table.tag_items == {"rock": 100, "classic rock": 10}

    def test_non_cooccurring_pair_has_no_entry(self):
        rows = [("u", "i1", "x", 0), ("u", "i2", "y", 0)]
        index = make_index(rows)
        table = conditional_table(index, ["x", "y"], min_support=1)
        assert table.probs == {}
        assert table.support == {}

    def test_no_self_pairs(self):
        rows = [("u", "i1", "x", 0), ("v", "i1", "x", 1)]
        index = make_index(rows)
        table = conditional_table(index, ["x"], min_support=1)
        assert table.probs == {}

    def test_min_support_filters(self):
        index = rock_fixture_index()
        table = conditional_table(index, ["rock", "classic rock"], min_support=11)
        assert table.probs == {}

    def test_distinct_items_not_annotations(self):
        # duplicate annotations on the same item must not inflate counts
        rows = [("u", "i1", "x", 0), ("u", "i1", "x", 5), ("v", "i1", "y", 1),
                ("u", "i2", "x", 2), ("u", "i2", "y", 3)]
        index = make_index(rows)
        table = conditional_table(index, ["x", "y"], min_support=1)
        assert table.tag_items == {"x": 2, "y": 2}
        assert table.support[("x", "y")] == 2

    def test_unknown_tag_raises(self):
        index = rock_fixture_index()
        with pytest.raises(DomainError):
            conditional_table(index, ["rock", "ghost"])

    def test_matches_pairwise_scan_oracle(self):
        rng = np.random.default_rng(197)
        rows = random_rows(rng, n_users=6, n_items=12, n_tags=6, n_annotations=150)
        index = make_index(rows)
        tags = sorted(views(index).by_tag)
        table = conditional_table(index, tags, min_support=1)
        items_of = {t: {r[1] for r in rows if r[2] == t} for t in tags}
        for a in tags:
            for b in tags:
                if a >= b:
                    continue
                both = len(items_of[a] & items_of[b])
                if both == 0:
                    assert (a, b) not in table.probs
                    continue
                assert table.support[(a, b)] == both
                assert table.probs[(a, b)] == pytest.approx(both / len(items_of[b]))
                assert table.probs[(b, a)] == pytest.approx(both / len(items_of[a]))


class TestInduceForest:
    def test_rock_fixture_edge(self):
        index = rock_fixture_index()
        table = conditional_table(index, ["rock", "classic rock"], min_support=10)
        forest = induce_forest(table, threshold=0.8)
        assert forest.parent["classic rock"] == "rock"
        assert forest.parent["rock"] is None
        assert forest.raw_depth == {"rock": 0, "classic rock": 1}
        assert forest.norm_depth == {"rock": 0.0, "classic rock": 1.0}
        assert forest.disconnected == frozenset()

    def test_all_below_threshold_all_disconnected(self):
        rows = []
        for k in range(10):
            rows.append(("u", f"i{k}", "x", 0))
            if k < 5:
                rows.append(("u", f"i{k}", "y", 0))
        for k in range(10, 15):
            rows.append(("u", f"i{k}", "y", 0))
        index = make_index(rows)
        table = conditional_table(index, ["x", "y"], min_support=1)
        forest = induce_forest(table, threshold=0.8)
        assert forest.nodes == frozenset()
        assert forest.disconnected == {"x", "y"}

    def test_three_level_chain(self):
        table = conditional_table(chain_index(), ["a", "b", "c"], min_support=2)
        forest = induce_forest(table, threshold=0.8)
        assert forest.parent == {"a": None, "b": "a", "c": "b"}
        assert forest.raw_depth == {"a": 0, "b": 1, "c": 2}
        assert forest.norm_depth == {"a": 0.0, "b": 0.5, "c": 1.0}

    def test_mutual_high_probability_gives_no_edge(self):
        # x and y always co-occur: both conditionals are 1 -> no subclass relation
        rows = []
        for k in range(12):
            rows.append(("u", f"i{k}", "x", 0))
            rows.append(("u", f"i{k}", "y", 0))
        index = make_index(rows)
        table = conditional_table(index, ["x", "y"], min_support=1)
        forest = induce_forest(table, threshold=0.8)
        assert forest.nodes == frozenset()
        assert forest.disconnected == {"x", "y"}

    def test_random_tables_acyclic_and_normalized(self):
        rng = np.random.default_rng(199)
        for _ in range(50):
            rows = random_rows(
                rng,
                n_users=4,
                n_items=int(rng.integers(5, 25)),
                n_tags=int(rng.integers(3, 10)),
                n_annotations=int(rng.integers(30, 200)),
            )
            index = make_index(rows)
            table = conditional_table(index, sorted(views(index).by_tag), min_support=1)
            forest = induce_forest(table, threshold=0.6)
            assert forest.nodes | forest.disconnected == table.tags
            assert not forest.nodes & forest.disconnected
            for node in forest.nodes:
                seen = set()
                cursor = node
                while forest.parent[cursor] is not None:
                    assert cursor not in seen
                    seen.add(cursor)
                    parent = forest.parent[cursor]
                    assert table.tag_items[parent] > table.tag_items[cursor]
                    assert forest.raw_depth[parent] == forest.raw_depth[cursor] - 1
                    cursor = parent
                assert 0.0 <= forest.norm_depth[node] <= 1.0
            roots = {n for n in forest.nodes if forest.parent[n] is None}
            for root in roots:
                tree = [n for n in forest.nodes if _root_of(forest, n) == root]
                assert max(forest.norm_depth[n] for n in tree) == 1.0

    def test_bad_threshold(self):
        table = conditional_table(chain_index(), ["a", "b"], min_support=1)
        with pytest.raises(DomainError):
            induce_forest(table, threshold=0.0)


def _root_of(forest, node):
    while forest.parent[node] is not None:
        node = forest.parent[node]
    return node


def scored_user_index():
    """Users with annotations on the a<-b<-c chain tags plus a disconnected tag."""
    rows = []
    rows += [("rooty", f"r{k}", "a", 0) for k in range(4)]
    rows += [("mixed", "m0", "a", 0)] * 1
    rows += [("mixed", f"m{k}", "a", 0) for k in range(1, 9)]
    rows += [("mixed", "m9", "c", 0)]
    rows += [("loner", f"l{k}", "zzz", 0) for k in range(3)]
    return make_index(rows)


def user_depth(index, forest, user, mode):
    """The user's depth expertise, read from the all-users array at the user's code."""
    return float(depth_expertise(index, forest, mode)[code(index, user)])


class TestUserDepthExpertise:
    @pytest.fixture
    def forest(self):
        table = conditional_table(chain_index(), ["a", "b", "c"], min_support=2)
        return induce_forest(table, threshold=0.8)

    def test_root_only_user_scores_zero(self, forest):
        index = scored_user_index()
        assert user_depth(index, forest, "rooty", "annotation") == 0.0
        assert user_depth(index, forest, "rooty", "vocabulary") == 0.0

    def test_annotation_vs_vocabulary_mode(self, forest):
        index = scored_user_index()
        # 9 annotations on a (0.0), 1 on c (1.0)
        assert user_depth(index, forest, "mixed", "annotation") == pytest.approx(0.1)
        assert user_depth(index, forest, "mixed", "vocabulary") == pytest.approx(0.5)

    def test_disconnected_only_user_omitted(self, forest):
        index = scored_user_index()
        for mode in ("annotation", "vocabulary"):
            assert np.isnan(user_depth(index, forest, "loner", mode))

    def test_bad_mode(self, forest):
        with pytest.raises(DomainError):
            depth_expertise(scored_user_index(), forest, "both")

    def test_vocabulary_sum_does_not_depend_on_hash_order(self):
        """Depths add up in tag-name order, whatever order PYTHONHASHSEED gives a set."""
        code = (
            "from folkmetrics.corpus import Annotation, build_index\n"
            "from folkmetrics.taxonomy import TaxonomyForest, depth_expertise\n"
            "chain = [f't{k}' for k in range(11)]\n"
            "forest = TaxonomyForest(frozenset(chain), dict(zip(chain, [None] + chain[:-1])),\n"
            "    {t: k for k, t in enumerate(chain)}, {t: k / 10 for k, t in enumerate(chain)},\n"
            "    frozenset())\n"
            "tags = ['t1', 't2', 't3', 't6', 't7']\n"
            "index = build_index([Annotation('u', 'i', t, 0) for t in tags])\n"
            "print(repr(float(depth_expertise(index, forest)[0])))\n"
        )
        src = str(Path(folkmetrics.__file__).parents[1])
        for seed in range(10):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=str(seed))
            done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                  text=True, check=True)
            assert done.stdout == "0.38\n", seed


class TestCoverage:
    def test_fraction_of_connected_annotations(self):
        table = conditional_table(chain_index(), ["a", "b", "c"], min_support=2)
        forest = induce_forest(table, threshold=0.8)
        index = scored_user_index()
        # 4 + 10 annotations on connected tags, 3 on zzz
        assert annotation_coverage(index, forest) == pytest.approx(14 / 17)


class TestDepthByBin:
    def test_uniform_flat(self):
        table = conditional_table(chain_index(), ["a", "b", "c"], min_support=2)
        forest = induce_forest(table, threshold=0.8)
        rows = []
        for u in range(6):
            rows += [(f"u{u}", f"x{u}{k}", "b", 0) for k in range(3)]
        index = make_index(rows)
        series = depth_by_bin(index, forest, BinSpec(), "annotation")
        assert len(series.rows) == 1
        assert series.rows[0].mean == pytest.approx(0.5)

    def test_vocab_increases_while_annotation_stays_flat(self):
        """Prolific users hold deeper vocabularies at the same annotation mix."""
        taxonomy_index = make_index(
            items_with_tags(
                [
                    (60, ["r"]),
                    (16, ["r", "x1"]),
                    (6, ["r", "x1", "x2"]),
                    (3, ["x1", "x2", "x3"]),
                    (2, ["x2", "x3"]),
                ]
            )
        )
        table = conditional_table(taxonomy_index, ["r", "x1", "x2", "x3"], min_support=2)
        forest = induce_forest(table, threshold=0.8)
        assert forest.norm_depth == {"r": 0.0, "x1": 1 / 3, "x2": 2 / 3, "x3": 1.0}

        rows = []
        # light users: 1 on r (0), 2 on x3 (1) -> ann mean 2/3, vocab mean 1/2
        for u in range(5):
            rows.append((f"light{u}", f"li{u}a", "r", 0))
            rows.append((f"light{u}", f"li{u}b", "x3", 0))
            rows.append((f"light{u}", f"li{u}c", "x3", 0))
        # heavy users: 3 on r, 27 on x2, 6 on x3 -> ann mean (0+18+6)/36 = 2/3,
        # but a deeper vocabulary {r, x2, x3} -> mean 5/9
        for u in range(3):
            rows += [(f"heavy{u}", f"h{u}r{k}", "r", 0) for k in range(3)]
            rows += [(f"heavy{u}", f"h{u}b{k}", "x2", 0) for k in range(27)]
            rows += [(f"heavy{u}", f"h{u}c{k}", "x3", 0) for k in range(6)]
        index = make_index(rows)
        ann = depth_by_bin(index, forest, BinSpec(), "annotation")
        vocab = depth_by_bin(index, forest, BinSpec(), "vocabulary")
        ann_rows = sorted(ann.rows, key=lambda r: r.bin_low)
        vocab_rows = sorted(vocab.rows, key=lambda r: r.bin_low)
        assert len(ann_rows) == 2 and len(vocab_rows) == 2
        # annotation-level expertise identical across bins, vocabulary-level rises
        assert ann_rows[0].mean == pytest.approx(ann_rows[1].mean)
        assert vocab_rows[1].mean > vocab_rows[0].mean
        assert vocab_rows[0].mean == pytest.approx(0.5)
        assert vocab_rows[1].mean == pytest.approx((0 + 2 / 3 + 1) / 3)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(211)
        rows = random_rows(rng, n_users=10, n_items=20, n_tags=8, n_annotations=300)
        rows += [(f"u{k % 10}", f"c{k}", t, k) for k in range(10) for t in ("a", "b")]
        rows += [(f"u{k % 10}", f"d{k}", "a", k) for k in range(20)]
        index = make_index(rows)
        table = conditional_table(index, sorted(views(index).by_tag), min_support=1)
        forest = induce_forest(table, threshold=0.5)
        assert forest.nodes
        spec = BinSpec()
        from folkmetrics.stats import binned_mean

        for mode in ("annotation", "vocabulary"):
            series = depth_by_bin(index, forest, spec, mode)
            pairs = []
            for user in views(index).by_user:
                score = user_depth(index, forest, user, mode)
                if not np.isnan(score):
                    pairs.append((float(views(index).user_annotation_count[user]), score))
            assert series == binned_mean(pairs, spec)
