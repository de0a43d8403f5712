"""The columnar analyses against the dict-based reference in analysis_oracle.

Both visit users and items in first-annotation order and add their floats
in the same order, so every result must be equal, not merely close.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import analysis_oracle as oracle
from folkmetrics import consensus, expertise, motivation, partition, similarity, taxonomy
from folkmetrics.corpus import build_index
from folkmetrics.errors import DomainError
from folkmetrics.stats import BinSpec
from folkmetrics.taxonomy import TaxonomyForest

from conftest import make_index

SPEC = BinSpec(base=2.0, exponent_step=0.5, max_exponent=6.0)

def chain(tags):
    """A forest that chains the tags in order: depths k / 7 add up differently in another order."""
    return TaxonomyForest(frozenset(tags), dict(zip(tags, [None] + tags[:-1])),
                          {t: k for k, t in enumerate(tags)},
                          {t: k / 7 for k, t in enumerate(tags)}, frozenset())


rows = st.lists(
    st.tuples(
        st.sampled_from([f"u{k}" for k in range(8)]),
        st.sampled_from([f"i{k}" for k in range(6)]),
        st.sampled_from(["rock", "jazz", "pop", "σ", "folk"]),
        st.integers(0, 3),
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=120, deadline=None)
@given(rows, st.booleans(), st.sampled_from([0.25, 0.5, 0.9, 1.0]))
def test_partition_and_similarity_match_the_reference(rows, dedupe, fraction):
    index = make_index(rows, dedupe=dedupe)
    assert oracle.named(index, partition.rank_users(index)) == oracle.rank_users(index)
    part = partition.split_supertaggers(index, fraction)
    names = oracle.named(index, part)
    assert names == oracle.split_supertaggers(index, fraction)
    assert partition.partition_summary(index, part) == oracle.partition_summary(index, names)
    for dimension in ("tag", "item"):
        for mask, users in ((part.supertagger, names.supertaggers),
                            (~part.supertagger, names.others)):
            assert oracle.named(index, similarity.freq_dist(index, mask, dimension)) == (
                oracle.freq_dist(index, users, dimension))
        if names.others:
            n_values = range(1, 9)
            assert similarity.similarity_curve(index, part, dimension, n_values) == (
                oracle.similarity_curve(index, names, dimension, n_values))
    items = index.columns.items
    popularity = {item: float(k * 3 % 7) for k, item in enumerate(items) if k % 3}
    if popularity:
        assert similarity.exogenous_popularity_diff(index, part, popularity, SPEC) == (
            oracle.exogenous_popularity_diff(index, names, popularity, SPEC))


@settings(max_examples=120, deadline=None)
@given(rows, st.booleans(), st.sampled_from([0.25, 0.5, 0.9, 1.0]))
def test_group_properties(rows, dedupe, fraction):
    """Properties of the S / not-S split that hold for any corpus."""
    index = make_index(rows, dedupe=dedupe)
    c = index.columns
    assert 0.0 <= partition.gini(index.user_csr.counts()) < 1.0
    part = partition.split_supertaggers(index, fraction)
    for dimension, codes, keys in (("tag", c.tag, c.tags), ("item", c.item, c.items)):
        dists = [similarity.freq_dist(index, mask, dimension)
                 for mask in (part.supertagger, ~part.supertagger)]
        assert np.array_equal(dists[0].counts + dists[1].counts,
                              np.bincount(codes, minlength=len(keys)))
        for dist in dists:
            if dist.counts.any():
                shares = [p for _, p in similarity.usage_distribution(dist)]
                assert sum(shares) == pytest.approx(1.0, abs=1e-12)
                assert similarity.usage_distribution(dist, cumulative=True)[0][1] == 1.0
        if dists[1].counts.any():
            curve = similarity.similarity_curve(index, part, dimension, range(1, 9))
            swapped = similarity.similarity_curve(
                index, partition.Partition(~part.supertagger, 0, fraction), dimension,
                range(1, 9))
            assert [p.n for p in swapped.points] == [p.n for p in curve.points]
            # rhos tied but for rounding may peak at another N once the sides swap, so the
            # swapped core must attain the peak within 1e-12, which pins it when the peak is clear
            rho = {p.n: p.rho for p in curve.points}
            if rho:
                assert rho[swapped.core_size] == pytest.approx(rho[curve.core_size], abs=1e-12)
            for got, want in zip(swapped.points, curve.points):
                assert got.rho == pytest.approx(want.rho, abs=1e-12)
                assert got.cosine == pytest.approx(want.cosine, abs=1e-12)
                assert got.coverage == want.coverage


@settings(max_examples=120, deadline=None)
@given(rows, st.booleans(), st.sampled_from([1, 2, 100]))
def test_per_user_and_per_item_series_match_the_reference(rows, dedupe, divisor):
    index = make_index(rows, dedupe=dedupe)
    part = partition.split_supertaggers(index, 0.5)
    names = oracle.named(index, part)
    expected = oracle.consensus_by_bin(index, names, SPEC)
    if expected.shared_items:
        assert consensus.consensus_by_bin(index, part, SPEC) == expected
    else:
        with pytest.raises(DomainError):
            consensus.consensus_by_bin(index, part, SPEC)
    assert motivation.motivation_by_bin(index, SPEC, divisor) == (
        oracle.motivation_by_bin(index, SPEC, divisor))
    for raw_counts in (False, True):
        assert expertise.consensus_expertise_by_bin(index, SPEC, raw_counts) == (
            oracle.consensus_expertise_by_bin(index, SPEC, raw_counts))


@settings(max_examples=120, deadline=None)
@given(rows, st.booleans(), st.sampled_from([1, 2]))
def test_taxonomy_matches_the_reference(rows, dedupe, min_support):
    index = make_index(rows, dedupe=dedupe)
    tags = index.columns.tags
    table = taxonomy.conditional_table(index, tags, min_support)
    assert table == oracle.conditional_table(index, tags, min_support)
    for forest in (taxonomy.induce_forest(table, threshold=0.5), chain(tags)):
        for mode in ("annotation", "vocabulary"):
            assert taxonomy.depth_by_bin(index, forest, SPEC, mode) == (
                oracle.depth_by_bin(index, forest, SPEC, mode))


@settings(max_examples=120, deadline=None)
@given(rows, st.booleans(), st.data())
def test_row_order_changes_no_count_reduction(rows, dedupe, data):
    """Analyses that reduce integer counts, or add up in code order, are bit-identical
    whatever order the index holds its rows in."""
    index = make_index(rows, dedupe=dedupe)
    order = data.draw(st.permutations(range(index.n_annotations)))
    permuted = build_index(index.columns.take(np.array(order, dtype=np.intp)))
    for scores, permuted_scores in zip(motivation.motivation_scores(index),
                                       motivation.motivation_scores(permuted)):
        assert scores.tobytes() == permuted_scores.tobytes()
    forest = chain(index.columns.tags)
    assert taxonomy.depth_expertise(index, forest, "vocabulary").tobytes() == (
        taxonomy.depth_expertise(permuted, forest, "vocabulary").tobytes())
    part = partition.split_supertaggers(index, 0.5)
    assert partition.partition_summary(index, part) == partition.partition_summary(permuted, part)


@settings(max_examples=120, deadline=None)
@given(rows, st.booleans())
def test_consensus_is_one_on_twin_groups(rows, dedupe):
    """Every row copied to a twin user, with the originals as S: both groups tag every item
    alike, so every item is shared, its top tags match and its cosine is 1."""
    index = make_index(rows + [(f"{u}-twin", i, t, time) for u, i, t, time in rows], dedupe=dedupe)
    original = np.array([not user.endswith("-twin") for user in index.columns.users])
    series = consensus.consensus_by_bin(index, partition.Partition(original, 0, 0.5), SPEC)
    assert series.shared_items == len(index.columns.items)
    assert all(row.mean == 1.0 for row in series.top_match.rows)
    assert all(row.mean == pytest.approx(1.0, abs=1e-12) for row in series.cosine.rows)
