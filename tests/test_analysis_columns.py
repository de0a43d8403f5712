"""The columnar analyses against the dict-based reference in analysis_oracle.

Both visit users and items in name order, which is code order, and add
their floats in the same order, so every result must be equal, not merely
close. No sum follows the order of the rows, so permuting them changes no
result and no byte of the report bundle.
"""

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import analysis_oracle as oracle
from folkmetrics import (consensus, expertise, motivation, partition, report, similarity, spear,
                         taxonomy)
from folkmetrics.corpus import binned_by_user_count, build_index
from folkmetrics.errors import DomainError
from folkmetrics.report import ReportConfig, write_report
from folkmetrics.stats import BinSpec

from conftest import make_index, popularity_by_code, tag_codes

SPEC = BinSpec(base=2.0, exponent_step=0.5, max_exponent=6.0)

def chain(index):
    """A forest that chains the index's tags in order: depths k / 7 add up differently in
    another order."""
    tags = index.columns.tags
    return oracle.forest_on(index, oracle.NamedForest(
        frozenset(tags), dict(zip(tags, [None] + tags[:-1])), {t: k for k, t in enumerate(tags)},
        {t: k / 7 for k, t in enumerate(tags)}, frozenset()))


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
            # a sparse grid too, whose coverage skips the N values in between
            for n_values in (range(1, 9), [2, 3, 7, 40]):
                assert similarity.similarity_curve(index, part, dimension, n_values) == (
                    oracle.similarity_curve(index, names, dimension, n_values))
    items = index.columns.items
    popularity = {item: float(k * 3 % 7) for k, item in enumerate(items) if k % 3}
    if popularity:
        by_code = popularity_by_code(index, popularity)
        assert similarity.exogenous_popularity_diff(index, part, by_code, SPEC) == (
            oracle.exogenous_popularity_diff(index, names, popularity, SPEC))


@settings(max_examples=120, deadline=None)
@given(rows, st.booleans(), st.sampled_from([0.25, 0.5, 0.9, 1.0]))
# tag rhos of -1.0 and -0.9999999999999999 by group order: a core size of 1 one way, 5 the other
@example([("u0", "i0", "rock", 0), ("u0", "i0", "jazz", 0), ("u1", "i0", "σ", 0)], False, 0.25)
def test_group_properties(rows, dedupe, fraction):
    """Properties of the S / not-S split that hold for any corpus."""
    index = make_index(rows, dedupe=dedupe)
    c = index.columns
    assert 0.0 <= partition.gini(index.user_counts) < 1.0
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
            assert swapped.core_size == curve.core_size
            for got, want in zip(swapped.points, curve.points):
                assert got.rho == pytest.approx(want.rho, abs=1e-12)
                assert got.cosine == pytest.approx(want.cosine, abs=1e-12)
                assert got.coverage == want.coverage


@settings(max_examples=120, deadline=None)
@given(rows, st.booleans(), st.sampled_from([0.5, 0.8]), st.sampled_from([1, 2]), st.data())
def test_taxonomy_properties(rows, dedupe, threshold, min_support, data):
    """Permuting the rows changes neither the forest with its coverage nor either mode's
    depth."""
    runs = []
    for permuted in (rows, data.draw(st.permutations(rows))):
        index = make_index(permuted, dedupe=dedupe)
        table = taxonomy.conditional_table(index, np.arange(len(index.columns.tags)), min_support)
        forest = taxonomy.induce_forest(table, threshold)
        runs.append((index.columns.users,
                     report.forest_json(index, forest),
                     *(taxonomy.depth_expertise(index, forest, mode)
                       for mode in ("vocabulary", "annotation"))))
    (users, payload, vocabulary, annotation), permuted = runs
    # equal user lists, so equal codes name the same users
    assert permuted[0] == users
    assert permuted[1] == payload
    assert permuted[2].tobytes() == vocabulary.tobytes()
    assert permuted[3].tobytes() == annotation.tobytes()


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
    assert tuple(binned_by_user_count(index, scores, SPEC)
                 for scores in motivation.motivation_scores(index, divisor)) == (
        oracle.motivation_by_bin(index, SPEC, divisor))
    assert binned_by_user_count(index, expertise.consensus_expertise(index), SPEC) == (
        oracle.consensus_expertise_by_bin(index, SPEC))


@settings(max_examples=120, deadline=None)
@given(rows, st.booleans(), st.sampled_from([1, 2]),
       st.sampled_from([1, 3, taxonomy._PAIR_BUDGET]))
# one broad item: its 400 tags make 79,800 pairs, counted a few first tags at a time
@example([("u0", "i0", f"t{k:03}", 0) for k in range(400)], False, 1, 3)
def test_taxonomy_matches_the_reference(rows, dedupe, min_support, budget):
    index = make_index(rows, dedupe=dedupe)
    tags = index.columns.tags
    with mock.patch.object(taxonomy, "_PAIR_BUDGET", budget):
        table = taxonomy.conditional_table(index, tag_codes(index, tags), min_support)
    assert oracle.named(index, table) == oracle.conditional_table(index, tags, min_support)
    for forest in (taxonomy.induce_forest(table, threshold=0.5), chain(index)):
        for mode in ("annotation", "vocabulary"):
            assert binned_by_user_count(
                index, taxonomy.depth_expertise(index, forest, mode), SPEC) == (
                oracle.depth_by_bin(index, oracle.named(index, forest), SPEC, mode))


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
    forest = chain(index)
    assert taxonomy.depth_expertise(index, forest, "vocabulary").tobytes() == (
        taxonomy.depth_expertise(permuted, forest, "vocabulary").tobytes())
    part = partition.split_supertaggers(index, 0.5)
    assert partition.partition_summary(index, part) == partition.partition_summary(permuted, part)


def outcome(call, *args):
    """What call(*args) returns, or the message of the DomainError it raises."""
    try:
        return call(*args)
    except DomainError as exc:
        return str(exc)


@settings(max_examples=120, deadline=None)
@given(rows, st.booleans(), st.data())
def test_row_order_changes_no_curve_score_or_shared_item(rows, dedupe, data):
    """Permuting the rows, here at random and in reverse, leaves both similarity curves, the
    SPEAR scores and the consensus series bit-identical."""
    index = make_index(rows, dedupe=dedupe)
    part = partition.split_supertaggers(index, 0.5)
    n = index.n_annotations
    runs = []
    for order in (range(n), data.draw(st.permutations(range(n))), range(n)[::-1]):
        permuted = build_index(index.columns.take(np.array(order, dtype=np.intp)))
        curves = [outcome(similarity.similarity_curve, permuted, part, dimension, range(1, 9))
                  for dimension in ("tag", "item")]
        z = spear.user_mean_z(permuted, min_users=1).tobytes()
        runs.append((curves, z, outcome(consensus.consensus_by_bin, permuted, part, SPEC)))
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]


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


@settings(max_examples=120, deadline=None)
@given(rows, st.booleans(), st.data())
def test_row_order_changes_no_byte_of_the_bundle(rows, dedupe, data):
    """write_report, with a popularity array, writes the same files byte for byte for the rows
    in any order."""
    bundles = []
    for permuted in (rows, data.draw(st.permutations(rows))):
        index = make_index(permuted, dedupe=dedupe)
        items = index.columns.items
        popularity = popularity_by_code(index, {item: float(k % 5 + 1) for k, item in
                                                enumerate(items)})
        with tempfile.TemporaryDirectory() as out:
            write_report(index, out, ReportConfig(bins=SPEC, min_users=1, min_support=1),
                         popularity)
            bundles.append({path.name: path.read_bytes() for path in Path(out).iterdir()})
    assert bundles[1] == bundles[0]
