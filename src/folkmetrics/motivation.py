"""Categorizer/describer motivation metrics per user.

Three per-user measures: tags per post (mean distinct tags per tagged
item), tag-resource ratio (vocabulary size over items tagged), and the
orphan ratio (share of a user's vocabulary that is seldom used). All three
are computed over distinct (item, tag) pairs, so duplicate annotations of
the same triple do not change them.
"""

from __future__ import annotations

import numpy as np

from .corpus import FolksonomyIndex, _distinct_pairs, _run_starts
from .errors import _check_counts

__all__ = ["motivation_scores"]

DEFAULT_ORPHAN_DIVISOR = 100


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
    _check_counts(divisor=divisor)
    n_users = len(index.columns.users)
    pair_user, pair_item, pair_tag = index.triples
    # the pairs' tag codes dropped at once, which lowers the peak
    usage_user, usage = _distinct_pairs(pair_user, pair_tag, len(index.columns.tags))[::2]
    items = np.bincount(pair_user[_run_starts(pair_user, pair_item)], minlength=n_users)
    vocabulary = np.bincount(usage_user, minlength=n_users)
    top = np.zeros(n_users, dtype=usage.dtype)
    np.maximum.at(top, usage_user, usage)
    seldom = np.bincount(usage_user[usage <= np.ceil(top / divisor)[usage_user]], minlength=n_users)
    orphan = np.where(top <= divisor, 1.0, seldom / vocabulary)
    return np.bincount(pair_user, minlength=n_users) / items, vocabulary / items, orphan

