"""SPEAR-style expertise scores per (user, tag).

A mutually reinforcing bipartite model: a user's expertise in a tag grows
with the quality of the items they apply it to, and item quality grows
with the expertise of the users tagging it. Earlier taggers of an item
earn more credit via C(x) = x**exponent over their discoverer position.
Per-tag scores are z-standardized and averaged per user to produce an
overall score.

All tags are scored as one batch: their credit matrices are built in one
vectorized pass and iterated together, each tag on its own segment of the
concatenated score vectors. Every reduction stays inside a segment, in the
tag's (user, item) order, so a tag's scores do not depend on the other tags
in its batch.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .corpus import FolksonomyIndex, _check_codes, _run_starts, _sorted_runs, _user_means
from .errors import ConvergenceWarning, DomainError, _check_counts
from .stats import population_zscores

__all__ = [
    "CreditBatch",
    "SpearBatch",
    "credit_batch",
    "eligible_tags",
    "spear_scores",
    "user_mean_z",
]

DEFAULT_TOP_K = 10_000
DEFAULT_MIN_USERS = 10
DEFAULT_EXPONENT = 0.5
DEFAULT_TOLERANCE = 1e-8
DEFAULT_MAX_ITER = 250


def eligible_tags(
    index: FolksonomyIndex,
    top_k: int = DEFAULT_TOP_K,
    min_users: int = DEFAULT_MIN_USERS,
) -> np.ndarray:
    """The codes of the top_k most-annotated tags having at least min_users distinct users,
    ascending.

    Raises if top_k or min_users is below 1.
    """
    _check_counts(top_k=top_k, min_users=min_users)
    # codes follow name order, so a stable sort by count breaks ties by name
    ranked = np.argsort(-index.tag_counts, kind="stable")[:top_k]
    users = np.bincount(index.user_tags[1], minlength=len(index.columns.tags))
    return np.sort(ranked[users[ranked] >= min_users])


@dataclass(frozen=True)
class CreditBatch:
    """Credit matrices of several tags, concatenated tag by tag.

    tags holds tag codes, and user_code and item_code user and item codes.
    Each tag numbers its distinct users in code order: the users of tags[k]
    are slots user_offsets[k]:user_offsets[k+1], and user_code[s] is the
    code of slot s; items likewise. The entries of tags[k] are
    offsets[k]:offsets[k+1] of user, item (both slots) and credit, in
    (user, item) order.

    A tag's credit for a user and an item is (1 + number of users tagging
    the item with the tag strictly later)**exponent; users sharing a
    timestamp do not count toward each other's "later" sets.
    """

    tags: np.ndarray
    user_offsets: np.ndarray
    user_code: np.ndarray
    item_offsets: np.ndarray
    item_code: np.ndarray
    offsets: np.ndarray
    user: np.ndarray
    item: np.ndarray
    credit: np.ndarray


def _slots(tag: np.ndarray, code: np.ndarray, starts: np.ndarray, n_tags: int):
    """Number the runs of sorted entries: slot per entry, code per slot, slot offsets per tag."""
    return np.cumsum(starts) - 1, code[starts], np.searchsorted(tag[starts], np.arange(n_tags + 1))


def _run_ends(starts: np.ndarray) -> np.ndarray:
    """For each element, the position one past the end of its run."""
    first = np.flatnonzero(starts)
    ends = np.append(first, len(starts))[1:]
    return np.repeat(ends, ends - first)


def credit_batch(
    index: FolksonomyIndex, tags: np.ndarray, exponent: float = DEFAULT_EXPONENT
) -> CreditBatch:
    """Build the credit matrices of several tags, given by code, in one pass.

    Duplicate (user, item) applications of a tag collapse to the earliest
    timestamp before credits are assigned. Raises unless the codes are
    distinct codes of the index's tags.
    """
    columns = index.columns
    tags = _check_codes(tags, len(columns.tags))
    position = np.full(len(columns.tags), -1)
    position[tags] = np.arange(len(tags))
    tag = position[columns.tag]
    keep = tag >= 0
    tag, user, item, time = tag[keep], columns.user[keep], columns.item[keep], columns.time[keep]
    order, starts = _sorted_runs(tag, user, item)
    time, order = np.minimum.reduceat(time[order], starts), order[starts]
    del keep, starts
    tag, user, item = tag[order], user[order], item[order]
    user_slot, user_code, user_offsets = _slots(tag, user, _run_starts(tag, user), len(tags))
    # strictly later taggers of an item: its run's end minus the end of the entry's tie group
    order, _ = _sorted_runs(tag, item, time)
    same_item = _run_starts(tag[order], item[order])
    item_slot, later = np.empty_like(order), np.empty_like(order)
    item_slot[order], item_code, item_offsets = _slots(tag[order], item[order], same_item,
                                                       len(tags))
    later[order] = _run_ends(same_item) - _run_ends(same_item | _run_starts(time[order]))
    power = np.array([float(1 + k) ** exponent for k in range(int(later.max(initial=0)) + 1)])
    offsets = np.searchsorted(tag, np.arange(len(tags) + 1))
    return CreditBatch(tags, user_offsets, user_code, item_offsets, item_code, offsets,
                       user_slot, item_slot, power[later])


@dataclass(frozen=True)
class SpearBatch:
    """Fixed points of the iteration for every tag of a CreditBatch.

    user_score and item_score hold one score per user and item slot of the
    credits; tag_iterations and tag_converged one value per tag.
    """

    credits: CreditBatch
    user_score: np.ndarray
    item_score: np.ndarray
    tag_iterations: np.ndarray
    tag_converged: np.ndarray

    @property
    def iterations(self) -> int:
        """Iterations summed over the tags."""
        return int(self.tag_iterations.sum())

    @property
    def converged(self) -> bool:
        """Whether every tag converged."""
        return bool(self.tag_converged.all())


def spear_scores(
    credit: CreditBatch,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SpearBatch:
    """Alternate e <- C q and q <- C^T e with L1 normalization after each update.

    Every tag of the batch starts from uniform vectors and stops on its own
    when its largest user-score change drops below the tolerance;
    non-convergence within max_iter is reported via the converged flags,
    not raised.
    """
    n_tags = len(credit.tags)
    n_entries = np.diff(credit.offsets)
    n_users, n_items = np.diff(credit.user_offsets), np.diff(credit.item_offsets)
    e_out, q_out = np.repeat(1.0 / n_users, n_users), np.repeat(1.0 / n_items, n_items)
    iterations = np.zeros(n_tags, dtype=np.int64)
    converged = np.zeros(n_tags, dtype=bool)
    # the tags still iterating, their entries, and their slots renumbered
    # densely; e_at and q_at map an active slot to its output slot
    tags, uu, ii, cc = np.arange(n_tags), credit.user, credit.item, credit.credit
    e, q, e_at, q_at = e_out.copy(), q_out.copy(), np.arange(len(e_out)), np.arange(len(q_out))
    for step in range(1, max_iter + 1):
        if not tags.size:
            break
        e_starts, q_starts = np.cumsum(n_users) - n_users, np.cumsum(n_items) - n_items
        e_new = np.bincount(uu, weights=cc * q[ii], minlength=len(e))
        e_new /= np.repeat(np.add.reduceat(e_new, e_starts), n_users)
        q = np.bincount(ii, weights=cc * e_new[uu], minlength=len(q))
        q /= np.repeat(np.add.reduceat(q, q_starts), n_items)
        done = np.maximum.reduceat(np.abs(e_new - e), e_starts) < tolerance
        e = e_new
        converged[tags[done]] = True
        done |= step == max_iter
        if not done.any():
            continue
        iterations[tags[done]] = step
        e_live, q_live = np.repeat(~done, n_users), np.repeat(~done, n_items)
        e_out[e_at[~e_live]], q_out[q_at[~q_live]] = e[~e_live], q[~q_live]
        c_live = np.repeat(~done, n_entries)
        uu = (np.cumsum(e_live) - 1)[uu[c_live]]
        ii = (np.cumsum(q_live) - 1)[ii[c_live]]
        cc, e, q, e_at, q_at = cc[c_live], e[e_live], q[q_live], e_at[e_live], q_at[q_live]
        tags, n_entries, n_users, n_items = (a[~done] for a in (tags, n_entries, n_users, n_items))
    return SpearBatch(credit, e_out, q_out, iterations, converged)


def _check_parameters(exponent: float, tolerance: float, max_iter: int) -> None:
    if not (np.isfinite(exponent) and 0 < tolerance < np.inf and max_iter >= 1):
        raise DomainError(f"need a finite exponent, a finite tolerance > 0 and max_iter >= 1, "
                          f"got {exponent}, {tolerance} and {max_iter}")


def user_mean_z(
    index: FolksonomyIndex,
    top_k: int = DEFAULT_TOP_K,
    min_users: int = DEFAULT_MIN_USERS,
    exponent: float = DEFAULT_EXPONENT,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iter: int = DEFAULT_MAX_ITER,
) -> np.ndarray:
    """Mean standardized score of every user over the eligible tags, by user code.

    Each eligible tag's user scores are z-transformed over that tag's
    scorers (population standard deviation; a tag whose scores are all
    equal contributes zeros), then averaged per user over the tags the user
    appears in; a user with no eligible tag gets NaN. The eligible tags are
    scored as one batch. Tags stopped by max_iter before converging are
    reported with a ConvergenceWarning; raises if the exponent is not
    finite, if max_iter < 1, if tolerance is not finite and above 0, or if
    no tag passes the eligibility filter.
    """
    _check_parameters(exponent, tolerance, max_iter)
    tags = eligible_tags(index, top_k=top_k, min_users=min_users)
    if not tags.size:
        raise DomainError("no eligible tags for expertise analysis")
    scored = spear_scores(credit_batch(index, tags, exponent), tolerance, max_iter)
    if not scored.converged:
        warnings.warn(
            f"spear: {np.count_nonzero(~scored.tag_converged)} of {len(tags)} tags "
            f"did not converge within max_iter={max_iter}",
            ConvergenceWarning,
            stacklevel=2,
        )
    credits = scored.credits
    offsets, n_users = credits.user_offsets, len(index.columns.users)
    sizes, z = np.diff(offsets), np.empty_like(scored.user_score)
    # the tags with each scorer count, one row per tag (a bare np.unique would import numpy.ma)
    for size in np.flatnonzero(np.bincount(sizes)):
        slots = offsets[:-1][sizes == size, np.newaxis] + np.arange(size)
        z[slots] = population_zscores(scored.user_score[slots])
    # each user's z-scores add up in tag order
    return _user_means(credits.user_code, z, n_users)

