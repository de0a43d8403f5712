"""Consensus-based expertise: does a user's tag choice match the crowd?

Each annotation is scored by its tag's popularity on the item relative to
the item's most popular tag; a user's score is the weighted mean over
items, weighting by the log of how much tagging the item received from
other users. Tag popularity F is the distinct-user count per (item, tag),
so timestamps and duplicate applications are irrelevant.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .corpus import FolksonomyIndex, _by_user_count, _item_tag_users, _run_starts, _tally
from .stats import BinSpec, BinnedSeries, binned_mean

__all__ = [
    "consensus_expertise",
    "consensus_expertise_by_bin",
]


class _Pairs(NamedTuple):
    """Distinct (user, item, tag) codes in sorted order: the user and item of each, its consensus
    score, the weight of its (user, item) (NaN for an excluded item) and its first annotation."""

    user: np.ndarray
    item: np.ndarray
    score: np.ndarray
    weight: np.ndarray
    first: np.ndarray


def _pairs(index: FolksonomyIndex, raw_counts: bool = False) -> _Pairs:
    """Every annotation's pair, scored against its item's tagging.

    F is the distinct-user count per (item, tag), or the raw count with
    raw_counts.
    """
    c = index.columns
    if raw_counts:
        (item, tag), freq, _ = _tally(c.item, c.tag)
    else:
        item, tag, freq = _item_tag_users(c)
    starts = np.flatnonzero(_run_starts(item))
    sizes = np.diff(np.append(starts, len(item)))
    max_freq = np.repeat(np.maximum.reduceat(freq, starts), sizes)
    total = np.repeat(np.add.reduceat(freq, starts), sizes)
    # a tag tied for most popular scores 1; the others discount the scorer's own use
    score = np.where(freq == max_freq, 1.0, (freq - 1) / max_freq)
    key = item.astype(np.int64) * len(c.tags) + tag

    (user, item, tag), count, first = _tally(c.user, c.item, c.tag)
    at = np.searchsorted(key, item.astype(np.int64) * len(c.tags) + tag)
    starts = np.flatnonzero(_run_starts(user, item))
    sizes = np.diff(np.append(starts, len(user)))
    own = np.add.reduceat(count, starts) if raw_counts else sizes
    # others' share of the item's tagging; 0 others -> item excluded
    arguments, inverse = np.unique(total[at[starts]] - own, return_inverse=True)
    logs = np.array([math.log10(a) if a > 0 else math.nan for a in arguments.tolist()])
    weight = np.repeat(logs[inverse], sizes)
    return _Pairs(user, item, score[at], weight, first)


def consensus_expertise(index: FolksonomyIndex, raw_counts: bool = False) -> np.ndarray:
    """Consensus expertise of every user, by user code; NaN where undefined.

    An annotation's score is 1 when its tag is tied for most popular on the
    item, else (F(tag, item) - 1) / max_x F(x, item), discounting the
    scoring user's own contribution from the numerator only. A user's score
    is the mean over the user's items of the best-scoring tag, weighted by
    log10 of the item's tagging volume excluding the user's own share. An
    item with no outside tagging is excluded, and a user whose every item is
    excluded, or whose retained weights are all zero, has no defined score.
    raw_counts switches F and the user's own share from distinct users to
    raw annotation counts.
    """
    pairs = _pairs(index, raw_counts)
    n_users = len(index.columns.users)
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


def consensus_expertise_by_bin(
    index: FolksonomyIndex, spec: BinSpec, raw_counts: bool = False
) -> BinnedSeries:
    """Binned mean user expertise keyed by user total annotation count.

    Users without a defined score are omitted. raw_counts switches the
    frequency view from distinct users to raw annotation counts (both F and
    the user's own deduction) for sensitivity checks.
    """
    return binned_mean(_by_user_count(index, consensus_expertise(index, raw_counts)), spec)
