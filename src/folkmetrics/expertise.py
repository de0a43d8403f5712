"""Consensus-based expertise: does a user's tag choice match the crowd?

Each annotation is scored by its tag's popularity on the item relative to
the item's most popular tag; a user's score is the weighted mean over
items, weighting by the log of how much tagging the item received from
other users. Tag popularity F is the distinct-user count per (item, tag),
so timestamps and duplicate applications are irrelevant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .corpus import (FolksonomyIndex, _by_user_count, _code, _item_tag_users, _run_starts,
                     _tally, _user_rows)
from .errors import NotFoundError
from .stats import BinSpec, BinnedSeries, binned_mean

__all__ = [
    "AnnotationScore",
    "annotation_score",
    "annotation_weight",
    "consensus_expertise_by_bin",
    "user_annotation_scores",
    "user_consensus_expertise",
]


@dataclass(frozen=True)
class AnnotationScore:
    user: str
    item: str
    tag: str
    e: float
    weight: float


class _Pairs(NamedTuple):
    """Distinct (user, item, tag) codes in sorted order, each with its consensus score, the
    weight of its (user, item) (NaN for an excluded item) and the index of its first annotation."""

    user: np.ndarray
    item: np.ndarray
    tag: np.ndarray
    score: np.ndarray
    weight: np.ndarray
    first: np.ndarray


def _pairs(index: FolksonomyIndex, rows, item_rows, raw_counts: bool = False) -> _Pairs:
    """The pairs of the annotations at rows, scored against the annotations at item_rows.

    item_rows must hold every annotation of the items at rows. F is the
    distinct-user count per (item, tag), or the raw count with raw_counts.
    """
    c = index.columns
    if raw_counts:
        (item, tag), freq, _ = _tally(c.item[item_rows], c.tag[item_rows])
    else:
        item, tag, freq = _item_tag_users(c, item_rows)
    starts = np.flatnonzero(_run_starts(item))
    sizes = np.diff(np.append(starts, len(item)))
    max_freq = np.repeat(np.maximum.reduceat(freq, starts), sizes)
    total = np.repeat(np.add.reduceat(freq, starts), sizes)
    # a tag tied for most popular scores 1; the others discount the scorer's own use
    score = np.where(freq == max_freq, 1.0, (freq - 1) / max_freq)
    key = item.astype(np.int64) * len(c.tags) + tag

    (user, item, tag), count, first = _tally(c.user[rows], c.item[rows], c.tag[rows])
    at = np.searchsorted(key, item.astype(np.int64) * len(c.tags) + tag)
    starts = np.flatnonzero(_run_starts(user, item))
    sizes = np.diff(np.append(starts, len(user)))
    own = np.add.reduceat(count, starts) if raw_counts else sizes
    # others' share of the item's tagging; 0 others -> item excluded
    arguments, inverse = np.unique(total[at[starts]] - own, return_inverse=True)
    logs = np.array([math.log10(a) if a > 0 else math.nan for a in arguments.tolist()])
    weight = np.repeat(logs[inverse], sizes)
    return _Pairs(user, item, tag, score[at], weight, first)


def _user_pairs(index: FolksonomyIndex, user: str) -> _Pairs:
    rows = _user_rows(index, user)
    items = np.unique(index.columns.item[rows])
    return _pairs(index, rows, index.item_csr.gather(items)[0])


def _weighted_means(pairs: _Pairs, n_users: int) -> np.ndarray:
    """Per user code, the weighted mean over items of the best score, or NaN if undefined."""
    starts = np.flatnonzero(_run_starts(pairs.user, pairs.item))
    best = np.maximum.reduceat(pairs.score, starts)
    user, weight = pairs.user[starts], pairs.weight[starts]
    first = np.minimum.reduceat(pairs.first, starts)
    # each user's items in the order of their first annotation: bincount adds in that order
    kept = np.flatnonzero(~np.isnan(weight))
    kept = kept[np.argsort(first[kept])]
    weighted = np.bincount(user[kept], weights=best[kept] * weight[kept], minlength=n_users)
    weights = np.bincount(user[kept], weights=weight[kept], minlength=n_users)
    means = np.full(n_users, np.nan)
    defined = weights != 0.0
    means[defined] = weighted[defined] / weights[defined]
    return means


def _index_scores(index: FolksonomyIndex, raw_counts: bool = False) -> np.ndarray:
    """Consensus expertise of every user, by user code; NaN where undefined."""
    everything = slice(None)
    return _weighted_means(_pairs(index, everything, everything, raw_counts),
                           len(index.columns.users))


def _find(pairs: _Pairs, index: FolksonomyIndex, item: str, tag: Optional[str] = None) -> int:
    """The first of the pairs with the item (and the tag, if given), or -1."""
    c = index.columns
    found = pairs.item == _code(c.items, item)
    if tag is not None:
        found &= pairs.tag == _code(c.tags, tag)
    return int(np.argmax(found)) if found.any() else -1


def annotation_score(index: FolksonomyIndex, user: str, item: str, tag: str) -> float:
    """Consensus score of one annotation, in [0, 1].

    A tag tied for most popular on the item scores exactly 1; otherwise the
    score is (F(tag, item) - 1) / max_x F(x, item), discounting the scoring
    user's own contribution from the numerator only.
    """
    pairs = _user_pairs(index, user)
    at = _find(pairs, index, item, tag)
    if at < 0:
        raise NotFoundError(f"no annotation ({user!r}, {item!r}, {tag!r})")
    return float(pairs.score[at])


def annotation_weight(index: FolksonomyIndex, user: str, item: str) -> Optional[float]:
    """log10 of the item's tagging volume excluding the user's own share.

    Returns 0.0 when exactly one outside annotation exists and None when
    there are none at all (the item is excluded from the user's mean).
    """
    pairs = _user_pairs(index, user)
    at = _find(pairs, index, item)
    if at < 0:
        raise NotFoundError(f"user {user!r} did not tag item {item!r}")
    weight = float(pairs.weight[at])
    return None if math.isnan(weight) else weight


def user_annotation_scores(index: FolksonomyIndex, user: str) -> list[AnnotationScore]:
    """Score and weight for each of the user's distinct (item, tag) pairs."""
    pairs = _user_pairs(index, user)
    c = index.columns
    return [AnnotationScore(user, c.items[item], c.tags[tag], score, 0.0 if math.isnan(w) else w)
            for item, tag, score, w in zip(pairs.item.tolist(), pairs.tag.tolist(),
                                           pairs.score.tolist(), pairs.weight.tolist())]


def user_consensus_expertise(index: FolksonomyIndex, user: str) -> Optional[float]:
    """Weighted mean consensus score over the user's items, or None if undefined.

    Per item only the user's best-scoring tag counts; items with no outside
    tagging are excluded, and a user whose every item is excluded (or whose
    retained weights are all zero) has no defined score.
    """
    pairs = _user_pairs(index, user)
    score = float(_weighted_means(pairs, len(index.columns.users))[pairs.user[0]])
    return None if math.isnan(score) else score


def consensus_expertise_by_bin(
    index: FolksonomyIndex, spec: BinSpec, raw_counts: bool = False
) -> BinnedSeries:
    """Binned mean user expertise keyed by user total annotation count.

    Users without a defined score are omitted. raw_counts switches the
    frequency view from distinct users to raw annotation counts (both F and
    the user's own deduction) for sensitivity checks.
    """
    return binned_mean(_by_user_count(index, _index_scores(index, raw_counts)), spec)
