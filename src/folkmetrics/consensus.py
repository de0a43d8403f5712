"""Per-item agreement between the supertagger and non-supertagger groups.

For every item tagged by both groups we score whether the groups agree on
the most popular tag and how similar the full tag distributions are
(cosine), then average both scores over logarithmically binned item
annotation counts. Per-item tag counts are distinct-user counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import FolksonomyIndex, _run_starts
from .errors import DomainError
from .partition import Partition, _user_mask
from .stats import BinSpec, BinnedSeries, binned_mean

__all__ = ["ConsensusSeries", "consensus_by_bin"]


@dataclass(frozen=True)
class ConsensusSeries:
    """Binned top-tag match rate and mean per-item cosine over shared items."""

    top_match: BinnedSeries
    cosine: BinnedSeries
    shared_items: int


def consensus_by_bin(
    index: FolksonomyIndex, partition: Partition, spec: BinSpec
) -> ConsensusSeries:
    """Average both consensus scores over items binned by total annotation count.

    Each item tagged in both groups contributes one boolean (top-tag match)
    and one cosine to the bin of its total annotation count across the full
    folksonomy. Raises if no item is shared between the groups.
    """
    in_s = _user_mask(index, partition.supertagger)
    item, tag, pair_of_triple = index.item_tags
    # per (item, tag): its distinct S users, from the S users' triples, and its not-S users
    s_users = np.bincount(pair_of_triple[in_s[index.triples[0]]], minlength=len(item))
    o_users = np.bincount(pair_of_triple, minlength=len(item)) - s_users
    starts = np.flatnonzero(_run_starts(item))
    sizes = np.diff(starts, append=len(item))
    shared = (np.add.reduceat(s_users, starts) > 0) & (np.add.reduceat(o_users, starts) > 0)
    if not shared.any():
        raise DomainError("no item is tagged in both groups")
    # per shared item, each group's top tag (its most used, the first by name on ties) and the
    # norm of its counts; the counts are integers, so every sum below is exact in any order
    top, norm = [], []
    for users in (s_users, o_users):
        most = np.repeat(np.maximum.reduceat(users, starts), sizes)
        top.append(np.minimum.reduceat(np.where(users == most, tag, len(index.columns.tags)),
                                       starts)[shared])
        norm.append(np.sqrt(np.add.reduceat(users.astype(float) ** 2, starts))[shared])
    dot = np.add.reduceat((s_users * o_users).astype(float), starts)[shared]
    match, cos = top[0] == top[1], dot / (norm[0] * norm[1])
    # items in code order, keyed by their annotation count
    keys = index.item_counts[item[starts][shared]]
    return ConsensusSeries(
        top_match=binned_mean(keys, match, spec),
        cosine=binned_mean(keys, cos, spec),
        shared_items=len(keys),
    )
