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

from .corpus import FolksonomyIndex
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


def rank_users(index: FolksonomyIndex) -> list[str]:
    """Users in descending annotation-count order, ties broken lexicographically."""
    counts = index.user_annotation_count
    return sorted(counts, key=lambda u: (-counts[u], u))


@dataclass(frozen=True)
class Partition:
    """Supertagger / non-supertagger split of one index's users."""

    supertaggers: frozenset[str]
    others: frozenset[str]
    annotation_threshold: int
    target_fraction: float


def split_supertaggers(index: FolksonomyIndex, target_fraction: float = 0.5) -> Partition:
    """Split users into the minimal top-ranked prefix S holding >= the target share.

    The threshold is the annotation count of the least prolific member of S.
    Users tied exactly at the boundary are included only as needed, in
    ranked (lexicographic-tie) order, so the S share stays as close to the
    target as a prefix cut allows.
    """
    if not 0.0 < target_fraction <= 1.0:
        raise DomainError(f"target fraction must be in (0, 1], got {target_fraction}")
    if index.n_annotations == 0:
        raise DomainError("cannot partition an empty index")
    ranked = rank_users(index)
    target = target_fraction * index.n_annotations
    running = 0
    cut = 0
    for cut, user in enumerate(ranked, start=1):
        running += index.user_annotation_count[user]
        if running >= target:
            break
    supertaggers = frozenset(ranked[:cut])
    return Partition(
        supertaggers=supertaggers,
        others=frozenset(ranked[cut:]),
        annotation_threshold=index.user_annotation_count[ranked[cut - 1]],
        target_fraction=target_fraction,
    )


@dataclass(frozen=True)
class ParetoCurve:
    """Cumulative annotation share vs. cumulative top-user share, (0,0) to (1,1)."""

    points: tuple[tuple[float, float], ...]


def pareto_curve(index: FolksonomyIndex, resolution: Optional[int] = None) -> ParetoCurve:
    """Annotation share held by the top x fraction of ranked users.

    With a resolution, user ranks are sampled uniformly; endpoints (0,0)
    and (1,1) are always present.
    """
    if index.n_annotations == 0:
        raise DomainError("pareto curve of an empty index")
    ranked = rank_users(index)
    counts = np.array([index.user_annotation_count[u] for u in ranked], dtype=float)
    shares = np.cumsum(counts) / counts.sum()
    n = len(ranked)
    if resolution is None or resolution >= n:
        ks = np.arange(1, n + 1)
    else:
        ks = np.unique(np.round(np.linspace(1, n, max(resolution, 2))).astype(int))
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
    index: FolksonomyIndex, users: frozenset[str], other_tags: set, other_items: set,
    tags: set, items: set,
) -> GroupSummary:
    ann_counts = []
    tag_counts = []
    item_counts = []
    for user in users:
        u_tags = set()
        u_items = set()
        positions = index.by_user[user]
        for pos in positions:
            a = index.annotations[pos]
            u_tags.add(a.tag)
            u_items.add(a.item)
        ann_counts.append(len(positions))
        tag_counts.append(len(u_tags))
        item_counts.append(len(u_items))
    return GroupSummary(
        users=len(users),
        annotations=sum(ann_counts),
        total_tags=len(tags),
        unique_tags=len(tags - other_tags),
        total_items=len(items),
        unique_items=len(items - other_items),
        annotations_per_user=median_iqr(ann_counts) if ann_counts else None,
        tags_per_user=median_iqr(tag_counts) if tag_counts else None,
        items_per_user=median_iqr(item_counts) if item_counts else None,
    )


def _group_vocab(index: FolksonomyIndex, users: frozenset[str]) -> tuple[set, set]:
    tags: set = set()
    items: set = set()
    for user in users:
        for pos in index.by_user[user]:
            a = index.annotations[pos]
            tags.add(a.tag)
            items.add(a.item)
    return tags, items


def partition_summary(index: FolksonomyIndex, partition: Partition) -> PartitionSummary:
    """Per-group totals and per-user medians for the two sub-folksonomies.

    A group's total tags are the distinct tags it used at least once;
    unique tags appear in that group only, shared tags in both.
    """
    if partition.supertaggers | partition.others != set(index.by_user) or (
        partition.supertaggers & partition.others
    ):
        raise DomainError("partition does not match index users")
    s_tags, s_items = _group_vocab(index, partition.supertaggers)
    o_tags, o_items = _group_vocab(index, partition.others)
    return PartitionSummary(
        supertaggers=_group_summary(index, partition.supertaggers, o_tags, o_items, s_tags, s_items),
        others=_group_summary(index, partition.others, s_tags, s_items, o_tags, o_items),
        shared_tags=len(s_tags & o_tags),
        shared_items=len(s_items & o_items),
    )
