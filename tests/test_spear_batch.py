"""Properties of the batched SPEAR kernel against the per-tag and the earlier batch references."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spear_oracle
from folkmetrics.errors import DomainError
from folkmetrics.spear import CreditBatch, credit_batch, eligible_tags, spear_scores, user_mean_z

from conftest import make_index, tag_codes, tag_names
from corpus_oracle import views

corpora = st.lists(
    st.tuples(
        st.sampled_from([f"u{k}" for k in range(8)]),
        st.sampled_from([f"i{k}" for k in range(5)]),
        st.sampled_from(["rock", "jazz", "pop"]),
        st.integers(0, 5),
    ),
    min_size=1,
    max_size=80,
)
limits = st.tuples(st.sampled_from([1e-3, 1e-8, 1e-12]), st.integers(0, 60))


def results(index, tags, *limit):
    """{tag: SpearResult} of the batch of the named tags."""
    batch = credit_batch(index, tag_codes(index, tags))
    return spear_oracle.results(spear_scores(batch, *limit), index.columns)


@st.composite
def edge_corpora(draw):
    """corpora, plus at times seven simultaneous taggers of one item and times too wide to
    pack beside the other keys."""
    rows = draw(corpora)
    if draw(st.booleans()):
        # one item, one time: each of the seven scores 1/7, whose std is 2.8e-17
        rows += [(f"s{k}", "i0", "seven", 3) for k in range(7)]
    if draw(st.booleans()):
        # credit_batch's sort takes its dense-rank branch; ties stay ties
        rows = [(u, i, t, time + 2**62 if time > 2 else time) for u, i, t, time in rows]
    return rows


@settings(max_examples=60, deadline=None)
@given(corpora, limits)
def test_batch_matches_per_tag_reference(rows, limit):
    tolerance, max_iter = limit
    index = make_index(rows)
    tags = sorted(views(index).by_tag)
    scored = results(index, tags, tolerance, max_iter)
    for tag in tags:
        expected = spear_oracle.spear_scores(
            spear_oracle.credit_matrix(index, tag), tolerance, max_iter
        )
        users, items = scored[tag].user_scores, scored[tag].item_scores
        assert (scored[tag].iterations, scored[tag].converged) == (expected.iterations,
                                                                   expected.converged)
        assert users.keys() == expected.user_scores.keys()
        assert items.keys() == expected.item_scores.keys()
        for got, want in ((users, expected.user_scores), (items, expected.item_scores)):
            for key, value in want.items():
                assert got[key] == pytest.approx(value, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(corpora, limits, st.data())
def test_scores_do_not_depend_on_the_rest_of_the_batch(rows, limit, data):
    index = make_index(rows)
    tags = sorted(views(index).by_tag)
    subset = data.draw(st.permutations(tags))[: data.draw(st.integers(1, len(tags)))]
    full = results(index, tags, *limit)
    part = results(index, subset, *limit)
    for tag in subset:
        assert part[tag] == full[tag]


@settings(max_examples=60, deadline=None)
@given(corpora, st.sampled_from([0.0, 0.5, 1.0, 1.7]))
def test_credits_equal_the_counting_reference(rows, exponent):
    index = make_index(rows)
    tags = sorted(views(index).by_tag)
    batch = credit_batch(index, tag_codes(index, tags), exponent)
    for k, tag in enumerate(tags):
        got = spear_oracle.entries(batch, index.columns, k)
        assert got == spear_oracle.credit_matrix(index, tag, exponent).entries
        assert list(got) == sorted(got)


def test_timestamps_near_the_int64_limit_keep_their_order():
    rows = [("a", "i", "rock", 2**63 - 2), ("b", "i", "rock", 2**63 - 1), ("c", "i", "rock", 3)]
    index = make_index(rows)
    batch = credit_batch(index, tag_codes(index, ["rock"]), exponent=1.0)
    users = [index.columns.users[batch.user_code[u]] for u in batch.user]
    credits = dict(zip(users, batch.credit.tolist()))
    assert credits == {"a": 2.0, "b": 1.0, "c": 3.0}


def test_batch_totals_iterations_and_convergence_over_its_tags():
    rows = [("u0", "i0", "solo", 0)]
    rows += [(f"u{k}", f"i{k}", "chain", k) for k in range(6)]
    rows += [(f"u{k + 1}", f"i{k}", "chain", k + 1) for k in range(5)]
    index = make_index(rows)
    scored = spear_scores(credit_batch(index, tag_codes(index, ["solo", "chain"])), 1e-8, 3)
    assert scored.tag_iterations.tolist() == [1, 3]
    assert scored.tag_converged.tolist() == [True, False]
    assert (scored.iterations, scored.converged) == (4, False)


def test_empty_batch_scores_nothing():
    scored = spear_scores(credit_batch(make_index([("u", "i", "rock", 0)]), []))
    assert scored.user_score.size == scored.tag_iterations.size == 0
    assert (scored.iterations, scored.converged) == (0, True)


@settings(max_examples=80, deadline=None)
@given(edge_corpora(), st.sampled_from([0.0, 0.5, 1.7]), st.data())
def test_credit_batch_equals_the_lexsort_reference(rows, exponent, data):
    index = make_index(rows)
    tags = data.draw(st.permutations(index.columns.tags))
    tags = tags[: data.draw(st.integers(0, len(tags)))]
    got = credit_batch(index, tag_codes(index, tags), exponent)
    want = spear_oracle.credit_batch(index, tags, exponent)
    for field in dataclasses.fields(CreditBatch):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), field.name
        else:
            assert a == b, field.name


@settings(max_examples=80, deadline=None)
@given(edge_corpora(), st.integers(1, 4), st.integers(1, 8),
       st.tuples(st.sampled_from([1e-3, 1e-8, 1e-12]), st.integers(1, 60)))
def test_user_mean_z_equals_the_loop_reference_bit_for_bit(rows, top_k, min_users, limit):
    index = make_index(rows)
    tags = eligible_tags(index, top_k, min_users)
    assert tag_names(index, tags) == spear_oracle.eligible_tags(index, top_k, min_users)
    if not tags.size:
        with pytest.raises(DomainError):
            user_mean_z(index, top_k, min_users, 0.5, *limit)
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = user_mean_z(index, top_k, min_users, 0.5, *limit)
    want = spear_oracle.user_mean_z(index, top_k, min_users, 0.5, *limit)
    assert got.tobytes() == want.tobytes()


def test_duplicate_tags_raise():
    with pytest.raises(DomainError):
        credit_batch(make_index([("u", "i", "rock", 0)]), [0, 0])


@pytest.mark.parametrize("codes", [[-1], [0, 2], [1, 0, 1], [0.0], ["jazz"], [[0, 1]]])
def test_credit_batch_rejects_codes_that_name_no_distinct_tag(codes):
    # without the check, -1 would select "rock", the last of the two tags
    index = make_index([("u", "i", "jazz", 0), ("u", "i", "rock", 1)])
    with pytest.raises(DomainError):
        credit_batch(index, codes)


@pytest.mark.parametrize("limit", [(1e-8, 0), (1e-8, -1), (0.0, 250), (-1.0, 250),
                                   (float("nan"), 250)])
def test_user_mean_z_rejects_limits_that_cannot_be_met(limit):
    index = make_index([(f"u{k}", "i", "rock", k) for k in range(3)])
    with pytest.raises(DomainError):
        user_mean_z(index, 10, 1, 0.5, *limit)
