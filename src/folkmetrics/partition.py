"""Supertagger partitioning and inequality measures.

Users are ranked by annotation volume; the supertagger set S is the
shortest ranked prefix holding at least the target fraction (default half)
of all annotations. Inequality is summarized by the Gini coefficient and
the cumulative-share (Pareto) curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .corpus import FolksonomyIndex, _run_starts
from .errors import DomainError
from .stats import MedianIQR, median_iqr

__all__ = [
    "GroupSummary",
    "ParetoCurve",
    "Partition",
    "PartitionSummary",
    "gini",
    "pareto_curve",
    "partition_summary",
    "rank_users",
    "split_supertaggers",
]

# the sample points of the Pareto curve that partition --pareto and report write
DEFAULT_PARETO_RESOLUTION = 1000


def gini(values: Iterable[float]) -> float:
    """Gini coefficient of non-negative values.

    Computed as G = 2*sum(i*y_i) / (n*sum(y_i)) - (n+1)/n with y sorted
    non-decreasing and i counted from 1; 0 means perfect equality.
    """
    y = np.sort(np.asarray(list(values), dtype=float))
    n = y.size
    if n == 0:
        raise DomainError("gini of empty input")
    if np.any(y < 0):
        raise DomainError("gini requires non-negative values")
    total = float(y.sum())
    if total <= 0.0:
        raise DomainError("gini requires at least one positive value")
    i = np.arange(1, n + 1, dtype=float)
    return float(2.0 * (i * y).sum() / (n * total) - (n + 1) / n)


def rank_users(index: FolksonomyIndex) -> np.ndarray:
    """User codes in descending annotation-count order, ties broken lexicographically."""
    # codes follow name order, so a stable sort by count breaks ties by name
    return np.argsort(-index.user_counts, kind="stable")


def _user_mask(index: FolksonomyIndex, mask: np.ndarray) -> np.ndarray:
    """mask, if it is a bool mask with one entry per user code; raises otherwise."""
    if mask.dtype != bool or mask.shape != (len(index.columns.users),):
        raise DomainError(f"need a bool mask over {len(index.columns.users)} users, "
                          f"got {mask.dtype} {mask.shape}")
    return mask


@dataclass(frozen=True, eq=False)
class Partition:
    """The split of one index's users: supertagger masks S by user code, ~supertagger not-S."""

    supertagger: np.ndarray
    annotation_threshold: int
    target_fraction: float


def _check_fraction(target_fraction: float) -> None:
    if not 0.0 < target_fraction <= 1.0:
        raise DomainError(f"target fraction must be in (0, 1], got {target_fraction}")


def split_supertaggers(index: FolksonomyIndex, target_fraction: float = 0.5) -> Partition:
    """Split users into the minimal top-ranked prefix S holding >= the target share.

    The threshold is the annotation count of the least prolific member of S.
    Users tied exactly at the boundary are included only as needed, in
    ranked (lexicographic-tie) order, so the S share stays as close to the
    target as a prefix cut allows.
    """
    _check_fraction(target_fraction)
    if index.n_annotations == 0:
        raise DomainError("cannot partition an empty index")
    ranked = rank_users(index)
    counts = index.user_counts[ranked]
    target = target_fraction * index.n_annotations
    cut = min(int(np.searchsorted(np.cumsum(counts), target)) + 1, len(ranked))
    supertagger = np.zeros(len(ranked), dtype=bool)
    supertagger[ranked[:cut]] = True
    return Partition(supertagger, int(counts[cut - 1]), target_fraction)


@dataclass(frozen=True)
class ParetoCurve:
    """Cumulative annotation share vs. cumulative top-user share, (0,0) to (1,1)."""

    points: tuple[tuple[float, float], ...]


def _check_resolution(resolution: Optional[int]) -> None:
    if resolution is not None and resolution < 2:
        raise DomainError(f"pareto resolution must be at least 2, got {resolution}")


def pareto_curve(index: FolksonomyIndex, resolution: Optional[int] = None) -> ParetoCurve:
    """Annotation share held by the top x fraction of ranked users.

    With a resolution (at least 2), user ranks are sampled uniformly;
    endpoints (0,0) and (1,1) are always present.
    """
    if index.n_annotations == 0:
        raise DomainError("pareto curve of an empty index")
    _check_resolution(resolution)
    ranked = rank_users(index)
    counts = index.user_counts[ranked].astype(float)
    shares = np.cumsum(counts) / counts.sum()
    n = len(ranked)
    if resolution is None or resolution >= n:
        ks = np.arange(1, n + 1)
    else:
        ks = np.unique(np.round(np.linspace(1, n, resolution)).astype(int))
    points = [(0.0, 0.0)]
    points.extend((int(k) / n, float(shares[k - 1])) for k in ks)
    return ParetoCurve(points=tuple(points))


@dataclass(frozen=True)
class GroupSummary:
    users: int
    annotations: int
    total_tags: int
    unique_tags: int
    total_items: int
    unique_items: int
    annotations_per_user: Optional[MedianIQR]
    tags_per_user: Optional[MedianIQR]
    items_per_user: Optional[MedianIQR]


@dataclass(frozen=True)
class PartitionSummary:
    supertaggers: GroupSummary
    others: GroupSummary
    shared_tags: int
    shared_items: int


def _group_summary(
    members: np.ndarray, per_user: list[np.ndarray], tags: np.ndarray, other_tags: np.ndarray,
    items: np.ndarray, other_items: np.ndarray,
) -> GroupSummary:
    """members masks the group's user codes; tags and items mask the codes it used."""
    ann_counts, tag_counts, item_counts = (counts[members] for counts in per_user)
    return GroupSummary(
        users=len(ann_counts),
        annotations=int(ann_counts.sum()),
        total_tags=int(np.count_nonzero(tags)),
        unique_tags=int(np.count_nonzero(tags & ~other_tags)),
        total_items=int(np.count_nonzero(items)),
        unique_items=int(np.count_nonzero(items & ~other_items)),
        annotations_per_user=median_iqr(ann_counts) if len(ann_counts) else None,
        tags_per_user=median_iqr(tag_counts) if len(tag_counts) else None,
        items_per_user=median_iqr(item_counts) if len(item_counts) else None,
    )


def partition_summary(index: FolksonomyIndex, partition: Partition) -> PartitionSummary:
    """Per-group totals and per-user medians for the two sub-folksonomies.

    A group's total tags are the distinct tags it used at least once;
    unique tags appear in that group only, shared tags in both.
    """
    c = index.columns
    s_users = _user_mask(index, partition.supertagger)
    s_rows = s_users[c.user]
    s_tags, o_tags = (np.bincount(c.tag[rows], minlength=len(c.tags)) > 0
                      for rows in (s_rows, ~s_rows))
    s_items, o_items = (np.bincount(c.item[rows], minlength=len(c.items)) > 0
                        for rows in (s_rows, ~s_rows))
    # annotations, distinct tags and distinct items per user
    user, item, _ = index.triples
    per_user = [index.user_counts, *(np.bincount(users, minlength=len(c.users)) for users in
                                     (index.user_tags[0], user[_run_starts(user, item)]))]
    return PartitionSummary(
        supertaggers=_group_summary(s_users, per_user, s_tags, o_tags, s_items, o_items),
        others=_group_summary(~s_users, per_user, o_tags, s_tags, o_items, s_items),
        shared_tags=int(np.count_nonzero(s_tags & o_tags)),
        shared_items=int(np.count_nonzero(s_items & o_items)),
    )
