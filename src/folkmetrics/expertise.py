"""Consensus-based expertise: does a user's tag choice match the crowd?

Each annotation is scored by its tag's popularity on the item relative to
the item's most popular tag; a user's score is the weighted mean over
items, weighting by the log of how much tagging the item received from
other users. Tag popularity F is the distinct-user count per (item, tag),
so timestamps and duplicate applications are irrelevant.
"""

from __future__ import annotations

import math

import numpy as np

from .corpus import FolksonomyIndex, _run_starts, _user_means

__all__ = ["consensus_expertise"]


def consensus_expertise(index: FolksonomyIndex) -> np.ndarray:
    """Consensus expertise of every user, by user code; NaN where undefined.

    An annotation's score is 1 when its tag is tied for most popular on the
    item, else (F(tag, item) - 1) / max_x F(x, item), discounting the
    scoring user's own contribution from the numerator only. A user's score
    is the mean over the user's items of the best-scoring tag, weighted by
    log10 of the item's tagging volume excluding the user's own share. An
    item with no outside tagging weighs 0, and a user whose weights are all
    zero has no defined score.
    """
    c = index.columns
    # per (item, tag), sorted: F; per item code: the largest F and its total tagging
    item, _, pair_of_triple = index.item_tags
    freq = np.bincount(pair_of_triple, minlength=len(item)).astype(pair_of_triple.dtype)
    starts = np.flatnonzero(_run_starts(item))
    top, total = np.zeros((2, len(c.items)), dtype=freq.dtype)
    top[item[starts]] = np.maximum.reduceat(freq, starts)
    total[item[starts]] = np.add.reduceat(freq, starts)

    # per (user, item): its tags' largest F and others' share of the item's tagging. A score
    # does not fall as F grows, so the largest F scores best. Each array is freed once read,
    # which bounds the peak
    user, item, _ = index.triples
    starts = np.flatnonzero(_run_starts(user, item)).astype(pair_of_triple.dtype)
    best = np.maximum.reduceat(freq[pair_of_triple], starts)
    others, top = total[item[starts]], top[item[starts]]
    del freq, total
    others -= np.diff(starts, append=starts.dtype.type(len(user)))
    # a tag tied for most popular scores 1; the others discount the scorer's own use
    score = (best - 1) / top
    score[best == top] = 1.0
    del best, top
    # log10 taken once per share; an item with 0 others weighs 0
    logs = np.zeros(others.max(initial=0) + 1)
    shares = np.flatnonzero(np.bincount(others))
    logs[shares] = [math.log10(a) if a > 0 else 0.0 for a in shares.tolist()]
    # user codes as intp, which bincount reads without a copy
    user, weights = user[starts].astype(np.intp), logs[others]
    del starts, others
    # each user's items in code order: bincount adds in that order
    return _user_means(user, score, len(c.users), weights)
