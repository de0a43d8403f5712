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
in its batch; the single-tag functions run batches of one.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import FolksonomyIndex, _run_starts, _user_codes
from .errors import ConvergenceWarning, DomainError, NotFoundError
from .stats import BinSpec, BinnedSeries, binned_mean, population_zscores

__all__ = [
    "CreditBatch",
    "CreditMatrix",
    "SpearBatch",
    "SpearResult",
    "credit_batch",
    "credit_matrix",
    "eligible_tags",
    "spear_by_bin",
    "spear_scores",
    "standardize_and_average",
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
) -> set[str]:
    """The top_k most-annotated tags having at least min_users distinct users."""
    columns = index.columns
    n_users = len(columns.users)
    # codes follow name order, so a stable sort by count breaks ties by name
    ranked = np.argsort(-index.tag_csr.counts(), kind="stable")[:top_k]
    pairs = np.unique(columns.tag.astype(np.int64) * n_users + columns.user)
    users = np.bincount(pairs // n_users, minlength=len(columns.tags))
    return {columns.tags[k] for k in ranked[users[ranked] >= min_users].tolist()}


@dataclass(frozen=True)
class CreditMatrix:
    """Discoverer credit per (user, item) for one tag.

    credit = (1 + number of users tagging the item with this tag strictly
    later)**exponent; users sharing a timestamp do not count toward each
    other's "later" sets.
    """

    tag: str
    exponent: float
    entries: Mapping[tuple[str, str], float]


@dataclass(frozen=True)
class CreditBatch:
    """Credit matrices of several tags, concatenated tag by tag.

    Each tag numbers its distinct users in name order: the users of tags[k]
    are slots user_offsets[k]:user_offsets[k+1], and users[user_code[s]]
    names slot s; items likewise. The entries of tags[k] are
    offsets[k]:offsets[k+1] of user, item (both slots) and credit, in
    (user, item) order.
    """

    tags: tuple[str, ...]
    users: tuple[str, ...]
    items: tuple[str, ...]
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
    index: FolksonomyIndex, tags: Sequence[str], exponent: float = DEFAULT_EXPONENT
) -> CreditBatch:
    """Build the credit matrices of several tags in one pass.

    Duplicate (user, item) applications of a tag collapse to the earliest
    timestamp before credits are assigned.
    """
    columns = index.columns
    code = {name: k for k, name in enumerate(columns.tags)}
    missing = [tag for tag in tags if tag not in code]
    if missing:
        raise NotFoundError(f"unknown tag: {missing[0]!r}")
    rows, sizes = index.tag_csr.gather(np.array([code[tag] for tag in tags], dtype=np.int64))
    tag = np.repeat(np.arange(len(tags), dtype=np.int32), sizes)
    user_ids, user = np.unique(columns.user[rows], return_inverse=True)
    item_ids, item = np.unique(columns.item[rows], return_inverse=True)
    users = [columns.users[k] for k in user_ids.tolist()]
    items = [columns.items[k] for k in item_ids.tolist()]
    time = columns.time[rows]
    del rows
    order = np.lexsort((time, item, user, tag))
    first = order[_run_starts(tag[order], user[order], item[order])]
    del order
    tag, user, item, time = tag[first], user[first], item[first], time[first]
    user_slot, user_code, user_offsets = _slots(tag, user, _run_starts(tag, user), len(tags))
    # strictly later taggers of an item: its run's end minus the end of the entry's tie group
    order = np.lexsort((time, item, tag))
    same_item = _run_starts(tag[order], item[order])
    item_slot, later = np.empty_like(order), np.empty_like(order)
    item_slot[order], item_code, item_offsets = _slots(tag[order], item[order], same_item,
                                                       len(tags))
    later[order] = _run_ends(same_item) - _run_ends(same_item | _run_starts(time[order]))
    power = np.array([float(1 + k) ** exponent for k in range(int(later.max(initial=0)) + 1)])
    offsets = np.searchsorted(tag, np.arange(len(tags) + 1))
    return CreditBatch(tuple(tags), tuple(users), tuple(items), user_offsets, user_code,
                       item_offsets, item_code, offsets, user_slot, item_slot, power[later])


def credit_matrix(
    index: FolksonomyIndex, tag: str, exponent: float = DEFAULT_EXPONENT
) -> CreditMatrix:
    """Build the discoverer-credit matrix for one tag."""
    batch = credit_batch(index, [tag], exponent)
    users = [batch.users[code] for code in batch.user_code]
    items = [batch.items[code] for code in batch.item_code]
    cells = zip(batch.user.tolist(), batch.item.tolist(), batch.credit.tolist())
    entries = {(users[u], items[i]): c for u, i, c in cells}
    return CreditMatrix(tag=tag, exponent=exponent, entries=entries)


@dataclass(frozen=True)
class SpearResult:
    """Fixed point of the mutual-reinforcement iteration for one tag."""

    tag: str
    user_scores: Mapping[str, float]
    item_scores: Mapping[str, float]
    iterations: int
    converged: bool


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


def _iterate(batch: CreditBatch, tolerance: float, max_iter: int) -> SpearBatch:
    n_tags = len(batch.tags)
    n_entries = np.diff(batch.offsets)
    n_users, n_items = np.diff(batch.user_offsets), np.diff(batch.item_offsets)
    e_out, q_out = np.repeat(1.0 / n_users, n_users), np.repeat(1.0 / n_items, n_items)
    iterations = np.zeros(n_tags, dtype=np.int64)
    converged = np.zeros(n_tags, dtype=bool)
    # the tags still iterating, their entries, and their slots renumbered
    # densely; e_at and q_at map an active slot to its output slot
    tags, uu, ii, cc = np.arange(n_tags), batch.user, batch.item, batch.credit
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
    return SpearBatch(batch, e_out, q_out, iterations, converged)


def spear_scores(
    credit: CreditMatrix | CreditBatch,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SpearResult | SpearBatch:
    """Alternate e <- C q and q <- C^T e with L1 normalization after each update.

    Starts from uniform vectors and stops when the largest user-score
    change drops below the tolerance; non-convergence within max_iter is
    reported via the converged flag, not raised. A CreditBatch gives a
    SpearBatch, each tag stopping on its own; a CreditMatrix is scored as a
    batch of one and gives its SpearResult.
    """
    if isinstance(credit, CreditBatch):
        return _iterate(credit, tolerance, max_iter)
    if not credit.entries:
        raise DomainError("credit matrix is empty")
    users = sorted({u for u, _ in credit.entries})
    items = sorted({i for _, i in credit.entries})
    u_idx = {u: k for k, u in enumerate(users)}
    i_idx = {i: k for k, i in enumerate(items)}
    # canonical (user, item) order, however the entries mapping was assembled
    entries = sorted((u_idx[u], i_idx[i], c) for (u, i), c in credit.entries.items())
    uu, ii, cc = (np.array(column) for column in zip(*entries))
    n_users, n_items = len(users), len(items)
    batch = CreditBatch((credit.tag,), tuple(users), tuple(items), np.array([0, n_users]),
                        np.arange(n_users), np.array([0, n_items]), np.arange(n_items),
                        np.array([0, len(entries)]), uu, ii, cc)
    scored = _iterate(batch, tolerance, max_iter)
    return SpearResult(
        tag=credit.tag,
        user_scores=dict(zip(users, scored.user_score.tolist())),
        item_scores=dict(zip(items, scored.item_score.tolist())),
        iterations=scored.iterations,
        converged=scored.converged,
    )


def _mean_z(offsets: np.ndarray, codes: np.ndarray, scores: np.ndarray, n_codes: int):
    """Per-code mean of the scores z-standardized within each segment, in segment order."""
    z = np.concatenate([population_zscores(scores[a:b]) for a, b in zip(offsets, offsets[1:])])
    return np.bincount(codes, weights=z, minlength=n_codes) / np.bincount(codes, minlength=n_codes)


def standardize_and_average(results: Iterable[SpearResult]) -> dict[str, float]:
    """Mean per-user z-score across tags.

    Each tag's user scores are z-transformed over that tag's scorers
    (population standard deviation; zero-variance tags contribute zeros),
    then averaged per user over the tags the user appears in.
    """
    per_tag = [sorted(result.user_scores.items()) for result in results]
    users = sorted({user for scores in per_tag for user, _ in scores})
    if not users:
        return {}
    code = {user: k for k, user in enumerate(users)}
    codes = np.array([code[user] for scores in per_tag for user, _ in scores])
    values = np.array([value for scores in per_tag for _, value in scores])
    mean_z = _mean_z(np.cumsum([0] + [len(s) for s in per_tag]), codes, values, len(users))
    return dict(zip(users, mean_z.tolist()))


def user_mean_z(
    index: FolksonomyIndex,
    top_k: int = DEFAULT_TOP_K,
    min_users: int = DEFAULT_MIN_USERS,
    exponent: float = DEFAULT_EXPONENT,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iter: int = DEFAULT_MAX_ITER,
) -> dict[str, float]:
    """Mean standardized score per user over the eligible tags, in user order.

    The eligible tags are scored as one batch. Tags stopped by max_iter
    before converging are reported with a ConvergenceWarning; raises if no
    tag passes the eligibility filter.
    """
    tags = eligible_tags(index, top_k=top_k, min_users=min_users)
    if not tags:
        raise DomainError("no eligible tags for expertise analysis")
    batch = spear_scores(credit_batch(index, sorted(tags), exponent), tolerance, max_iter)
    if not batch.converged:
        warnings.warn(
            f"spear: {np.count_nonzero(~batch.tag_converged)} of {len(tags)} tags "
            f"did not converge within max_iter={max_iter}",
            ConvergenceWarning,
            stacklevel=2,
        )
    credits = batch.credits
    mean_z = _mean_z(credits.user_offsets, credits.user_code, batch.user_score, len(credits.users))
    return dict(zip(credits.users, mean_z.tolist()))


def spear_by_bin(
    index: FolksonomyIndex,
    spec: BinSpec,
    top_k: int = DEFAULT_TOP_K,
    min_users: int = DEFAULT_MIN_USERS,
    exponent: float = DEFAULT_EXPONENT,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iter: int = DEFAULT_MAX_ITER,
) -> BinnedSeries:
    """Binned mean standardized score keyed by user total annotation count.

    Computed over the full folksonomy (not per group); raises if no tag
    passes the eligibility filter.
    """
    mean_z = user_mean_z(index, top_k, min_users, exponent, tolerance, max_iter)
    return _binned(index, _user_codes(index, mean_z), mean_z.values(), spec)


def _binned(index: FolksonomyIndex, codes: np.ndarray, values: Iterable[float],
            spec: BinSpec) -> BinnedSeries:
    """The values of the users with these codes, binned by their annotation counts, in order."""
    counts = index.user_csr.counts()[codes].astype(float).tolist()
    return binned_mean(zip(counts, values), spec)
