"""Categorizer/describer motivation metrics per user.

Three per-user measures: tags per post (mean distinct tags per tagged
item), tag-resource ratio (vocabulary size over items tagged), and the
orphan ratio (share of a user's vocabulary that is seldom used). All three
are computed over distinct (item, tag) pairs, so duplicate annotations of
the same triple do not change them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import FolksonomyIndex, _by_user_count, _tally
from .errors import DomainError
from .stats import BinSpec, BinnedSeries, binned_mean

__all__ = [
    "MotivationSeries",
    "motivation_by_bin",
    "motivation_scores",
]

DEFAULT_ORPHAN_DIVISOR = 100


def _check_divisor(divisor: int) -> None:
    if divisor < 1:
        raise DomainError(f"orphan divisor must be at least 1, got {divisor}")


def motivation_scores(
    index: FolksonomyIndex, divisor: int = DEFAULT_ORPHAN_DIVISOR
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """TPP, TRR and orphan ratio of every user, three arrays by user code.

    TPP is the distinct (item, tag) pairs over the distinct items tagged,
    TRR the vocabulary size over the distinct items tagged. A tag's usage is
    the number of distinct items the user applied it to; the orphan ratio
    is the share of the vocabulary used at most n* = ceil(max usage /
    divisor) times, and 1 when the most-used tag covers at most divisor items.
    """
    _check_divisor(divisor)
    c = index.columns
    n_users = len(c.users)
    (pair_user, _, pair_tag), _, _ = _tally(c.user, c.item, c.tag)
    (usage_user, _), usage, _ = _tally(pair_user, pair_tag)
    items = np.bincount(_tally(c.user, c.item)[0][0], minlength=n_users)
    vocabulary = np.bincount(usage_user, minlength=n_users)
    top = np.zeros(n_users, dtype=usage.dtype)
    np.maximum.at(top, usage_user, usage)
    seldom = np.bincount(usage_user, weights=usage <= np.ceil(top / divisor)[usage_user],
                         minlength=n_users)
    orphan = np.where(top <= divisor, 1.0, seldom / vocabulary)
    return np.bincount(pair_user, minlength=n_users) / items, vocabulary / items, orphan


@dataclass(frozen=True)
class MotivationSeries:
    tpp: BinnedSeries
    trr: BinnedSeries
    orphan_ratio: BinnedSeries


def motivation_by_bin(
    index: FolksonomyIndex, spec: BinSpec, divisor: int = DEFAULT_ORPHAN_DIVISOR
) -> MotivationSeries:
    """Binned mean/stderr of TPP, TRR, and OR keyed by user annotation count."""
    return MotivationSeries(*(binned_mean(_by_user_count(index, scores), spec)
                              for scores in motivation_scores(index, divisor)))
