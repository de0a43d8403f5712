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
    item with no outside tagging is excluded, and a user whose every item is
    excluded, or whose retained weights are all zero, has no defined score.
    """
    c = index.columns
    # per (item, tag), sorted: F, its score; per item code: its total tagging
    item, _, pair_of_triple = index.item_tags
    freq = np.bincount(pair_of_triple, minlength=len(item))
    starts = np.flatnonzero(_run_starts(item))
    max_freq = np.repeat(np.maximum.reduceat(freq, starts), np.diff(starts, append=len(item)))
    # a tag tied for most popular scores 1; the others discount the scorer's own use
    score = np.where(freq == max_freq, 1.0, (freq - 1) / max_freq)
    total = np.zeros(len(c.items), dtype=freq.dtype)
    total[item[starts]] = np.add.reduceat(freq, starts)
    del freq, max_freq

    # per (user, item): the best score of its tags and others' share of the item's tagging
    user, item, _ = index.triples
    starts = np.flatnonzero(_run_starts(user, item))
    best = np.maximum.reduceat(score[pair_of_triple], starts)
    del score
    others = total[item[starts]] - np.diff(starts, append=len(user))
    # log10 taken once per share; an item with 0 others is excluded
    logs = np.full(others.max(initial=0) + 1, math.nan)
    shares = np.flatnonzero(np.bincount(others))
    logs[shares] = [math.log10(a) if a > 0 else math.nan for a in shares.tolist()]
    # each user's items in code order: bincount adds in that order. Each column is cut to the
    # kept items before the next is, which bounds the peak
    kept = np.flatnonzero(others)
    user = user[starts[kept]]
    del starts
    weights = logs[others[kept]]
    del others
    return _user_means(user, best[kept], len(c.users), weights)
