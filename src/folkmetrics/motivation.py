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

from .corpus import FolksonomyIndex, _by_user_count, _tally, _user_rows
from .errors import DomainError
from .stats import BinSpec, BinnedSeries, binned_mean

__all__ = [
    "MotivationScores",
    "MotivationSeries",
    "motivation_by_bin",
    "orphan_ratio",
    "tpp",
    "trr",
    "user_motivation",
]

DEFAULT_ORPHAN_DIVISOR = 100


@dataclass(frozen=True)
class MotivationScores:
    user: str
    tpp: float
    trr: float
    orphan_ratio: float


def _scores(user: np.ndarray, item: np.ndarray, tag: np.ndarray, n_users: int,
            divisor: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """TPP, TRR and orphan ratio per user code of the annotations given as columns."""
    if divisor < 1:
        raise DomainError(f"orphan divisor must be at least 1, got {divisor}")
    (pair_user, _, pair_tag), _, _ = _tally(user, item, tag)
    (usage_user, _), usage, _ = _tally(pair_user, pair_tag)
    items = np.bincount(_tally(user, item)[0][0], minlength=n_users)
    vocabulary = np.bincount(usage_user, minlength=n_users)
    # usage is the number of distinct items a user applied a tag to
    top = np.zeros(n_users, dtype=usage.dtype)
    np.maximum.at(top, usage_user, usage)
    seldom = np.bincount(usage_user, weights=usage <= np.ceil(top / divisor)[usage_user],
                         minlength=n_users)
    # a vocabulary whose most-used tag covers at most divisor items is all orphans
    orphan = np.where(top <= divisor, 1.0, seldom / vocabulary)
    return np.bincount(pair_user, minlength=n_users) / items, vocabulary / items, orphan


def _index_scores(index: FolksonomyIndex, divisor: int):
    """TPP, TRR and orphan ratio of every user, by user code."""
    c = index.columns
    return _scores(c.user, c.item, c.tag, len(c.users), divisor)


def user_motivation(
    index: FolksonomyIndex, user: str, divisor: int = DEFAULT_ORPHAN_DIVISOR
) -> MotivationScores:
    """All three motivation scores for one user in a single pass."""
    c = index.columns
    rows = _user_rows(index, user)
    scores = _scores(np.zeros(len(rows), dtype=np.intp), c.item[rows], c.tag[rows], 1, divisor)
    return MotivationScores(user, *(float(score[0]) for score in scores))


def tpp(index: FolksonomyIndex, user: str) -> float:
    """Tags per post: distinct (item, tag) pairs over distinct items tagged."""
    return user_motivation(index, user).tpp


def trr(index: FolksonomyIndex, user: str) -> float:
    """Tag-resource ratio: vocabulary size over distinct items tagged."""
    return user_motivation(index, user).trr


def orphan_ratio(
    index: FolksonomyIndex, user: str, divisor: int = DEFAULT_ORPHAN_DIVISOR
) -> float:
    """Share of the user's vocabulary used at most n* times.

    Per-tag usage is the number of distinct items the user applied the tag
    to; the orphan threshold is n* = ceil(max usage / divisor). A
    vocabulary whose most-used tag covers at most divisor items is all
    orphans (OR = 1).
    """
    return user_motivation(index, user, divisor).orphan_ratio


@dataclass(frozen=True)
class MotivationSeries:
    tpp: BinnedSeries
    trr: BinnedSeries
    orphan_ratio: BinnedSeries


def motivation_by_bin(
    index: FolksonomyIndex, spec: BinSpec, divisor: int = DEFAULT_ORPHAN_DIVISOR
) -> MotivationSeries:
    """Binned mean/stderr of TPP, TRR, and OR keyed by user annotation count."""
    return _binned(index, _index_scores(index, divisor), spec)


def _binned(index: FolksonomyIndex, scores, spec: BinSpec) -> MotivationSeries:
    """The series of the three score arrays by user code, binned by user annotation count."""
    return MotivationSeries(*(binned_mean(_by_user_count(index, s), spec) for s in scores))
