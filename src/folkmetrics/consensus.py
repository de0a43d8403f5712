"""Per-item agreement between the supertagger and non-supertagger groups.

For every item tagged by both groups we score whether the groups agree on
the most popular tag and how similar the full tag distributions are
(cosine), then average both scores over logarithmically binned item
annotation counts. Per-item tag counts are distinct-user counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import FolksonomyIndex, _item_tag_users, _run_starts
from .errors import DomainError
from .partition import Partition, _user_mask
from .stats import BinSpec, BinnedSeries, binned_mean

__all__ = ["ConsensusSeries", "consensus_by_bin"]


def _groups(c, rows: np.ndarray):
    """For the annotations at rows: the items, each one's top tag, and the (item, tag, users) entries.

    An item's top tag is its most used, the first by name on ties.
    """
    entries = item, tag, users = _item_tag_users(c, rows)
    starts = np.flatnonzero(_run_starts(item))
    sizes = np.diff(np.append(starts, len(item)))
    top = np.flatnonzero(np.repeat(np.maximum.reduceat(users, starts), sizes) == users)
    top = top[_run_starts(item[top])]
    return item[starts], tag[top], entries


def _cosines(s_entries, o_entries, shared: np.ndarray, n_items: int, n_tags: int) -> np.ndarray:
    """Per shared item, the cosine between the two groups' distinct-user tag counts."""
    # the counts are integers, so every sum below is exact in any order
    (s_item, s_tag, s_users), (o_item, o_tag, o_users) = s_entries, o_entries
    _, ks, ko = np.intersect1d(s_item.astype(np.int64) * n_tags + s_tag,
                               o_item.astype(np.int64) * n_tags + o_tag,
                               assume_unique=True, return_indices=True)
    dot = np.bincount(s_item[ks], weights=(s_users[ks] * o_users[ko]).astype(float),
                      minlength=n_items)
    norm_s, norm_o = (np.sqrt(np.bincount(item, weights=users.astype(float) ** 2,
                                          minlength=n_items))
                      for item, _, users in (s_entries, o_entries))
    return dot[shared] / (norm_s[shared] * norm_o[shared])


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
    c = index.columns
    in_s = _user_mask(index, partition.supertagger)[c.user]
    (s_item, s_top, s_entries), (o_item, o_top, o_entries) = (
        _groups(c, np.flatnonzero(rows)) for rows in (in_s, ~in_s))
    shared = np.intersect1d(s_item, o_item)
    if not len(shared):
        raise DomainError("no item is tagged in both groups")
    match = s_top[np.searchsorted(s_item, shared)] == o_top[np.searchsorted(o_item, shared)]
    cos = _cosines(s_entries, o_entries, shared, len(c.items), len(c.tags))
    # items in the order of their first annotation, keyed by their annotation count
    first = index.item_csr.positions[index.item_csr.offsets[shared]]
    order = np.argsort(first)
    keys = index.item_csr.counts()[shared[order]].astype(float).tolist()
    return ConsensusSeries(
        top_match=binned_mean(zip(keys, match[order].astype(float).tolist()), spec),
        cosine=binned_mean(zip(keys, cos[order].tolist()), spec),
        shared_items=len(shared),
    )
