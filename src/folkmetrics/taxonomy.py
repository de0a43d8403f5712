"""Tag taxonomy induction from conditional co-occurrence probabilities.

A tag B is attached under A when items carrying B almost always carry A
but not vice versa (P(A|B) >= threshold > P(B|A)). The resulting forest
assigns each connected tag a depth, normalized by the maximum depth of its
tree, which serves as a term-specificity proxy: deeper tags are more
sub-ordinate. Users are then scored by the mean normalized depth of the
tags they use (per annotation) or know (per vocabulary entry).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import FolksonomyIndex, _check_codes, _distinct_pairs, _run_starts, _user_means
from .errors import DomainError, _check_counts
from .spear import DEFAULT_MIN_USERS, DEFAULT_TOP_K, eligible_tags

__all__ = [
    "ConditionalTable",
    "TaxonomyForest",
    "annotation_coverage",
    "conditional_table",
    "depth_expertise",
    "induce_forest",
    "induce_taxonomy",
]

DEFAULT_THRESHOLD = 0.8
DEFAULT_MIN_SUPPORT = 10
# about this many tag pairs are counted at a time, whatever the number of tags on an item
_PAIR_BUDGET = 1 << 18

_MODES = ("annotation", "vocabulary")


@dataclass(frozen=True, eq=False)
class ConditionalTable:
    """Pairwise P(A|B) over distinct item sets, by code in the index's tag_names.

    tags: the listed tags, ascending; tag_items: each tag's distinct-item count (0 if
    not listed). Retained pairs come in (a, b) order; pair k: codes a[k] < b[k], the
    support[k] items carrying both (int32), p_ab[k] = P(a|b) and p_ba[k] = P(b|a).
    """

    tag_names: Sequence[str]
    tags: np.ndarray
    tag_items: np.ndarray
    a: np.ndarray
    b: np.ndarray
    support: np.ndarray
    p_ab: np.ndarray
    p_ba: np.ndarray


def conditional_table(
    index: FolksonomyIndex,
    tags: np.ndarray,
    min_support: int = DEFAULT_MIN_SUPPORT,
) -> ConditionalTable:
    """All pairwise P(A|B) between the tags of the given codes with enough co-occurrence.

    P(A|B) = |items carrying both A and B| / |items carrying B| over
    distinct items; pairs co-occurring on fewer than min_support items get
    no entry, and self-pairs are excluded. Raises if min_support is below 1,
    or unless the codes are distinct codes of the index's tags.
    """
    _check_counts(min_support=min_support)
    c = index.columns
    codes = np.sort(_check_codes(tags, len(c.tags)))
    item, tag = index.item_tags[:2]
    keep = np.isin(tag, codes)
    item, tag = item[keep], tag[keep]
    tag_items = np.bincount(tag, minlength=len(c.tags))

    # an entry pairs with each later entry of its item's run, whose tag is greater
    starts = _run_starts(item)
    ends = np.append(np.flatnonzero(starts)[1:], len(item))
    later = ends[np.cumsum(starts) - 1] - np.arange(len(item)) - 1
    # a first tag's pairs all fall in the block where they start, so each block's counts are final
    pairs = np.bincount(tag, later, len(c.tags)).astype(np.int64)
    has = np.flatnonzero(later)
    block = ((np.cumsum(pairs) - pairs) // _PAIR_BUDGET)[tag[has]]
    parts = [np.empty((3, 0), dtype=np.int32)]
    for k in np.flatnonzero(np.bincount(block)).tolist():
        at = has[block == k]
        n = later[at]
        # the positions of each entry's later entries, p + 1 ... p + n, as one ragged arange
        other = np.repeat(at + 1 - (np.cumsum(n) - n), n)
        other += np.arange(len(other))
        high, low, support = _distinct_pairs(np.repeat(tag[at], n), tag[other], len(c.tags))
        parts.append(np.stack((high, low, support))[:, support >= min_support])
    a, b, support = np.concatenate(parts, axis=1)
    return ConditionalTable(c.tags, codes, tag_items, a, b, support,
                            support / tag_items[b], support / tag_items[a])


@dataclass(frozen=True, eq=False)
class TaxonomyForest:
    """Acyclic forest by code in the index's tag_names, with raw and normalized depths.

    nodes: the connected tags; disconnected: the listed tags with no induced
    sub/super-class relation (both ascending). By tag code: parent (-1 for a
    root or off the forest), raw_depth (0 for both), norm_depth (NaN off it).
    """

    tag_names: Sequence[str]
    nodes: np.ndarray
    disconnected: np.ndarray
    parent: np.ndarray
    raw_depth: np.ndarray
    norm_depth: np.ndarray


def _check_threshold(threshold: float) -> None:
    if not 0.0 < threshold <= 1.0:
        raise DomainError(f"threshold must be in (0, 1], got {threshold}")


def induce_forest(table: ConditionalTable, threshold: float = DEFAULT_THRESHOLD) -> TaxonomyForest:
    """Attach each tag under its strongest superclass candidate.

    A is a superclass candidate of B iff P(A|B) >= threshold, P(B|A) <
    threshold, and A covers strictly more items than B; the parent is the
    candidate with the highest P(A|B) (ties: more items, then
    lexicographic). The strict generality ordering makes cycles impossible.
    """
    _check_threshold(threshold)
    items = table.tag_items
    # every pair both ways round: (candidate, child, P(candidate|child), P(child|candidate))
    up, down = np.append(table.a, table.b), np.append(table.b, table.a)
    p_up, p_down = np.append(table.p_ab, table.p_ba), np.append(table.p_ba, table.p_ab)
    ok = (p_up >= threshold) & (p_down < threshold) & (items[up] > items[down])
    up, down, p_up = up[ok], down[ok], p_up[ok]
    # each child's best candidate first; code order is name order, so ties fall to the name
    order = np.lexsort((up, -items[up], -p_up, down))
    best = order[_run_starts(down[order])]
    parent = np.full(len(items), -1)
    parent[down[best]] = up[best]

    # pointer jumping: raw_depth[t] counts the steps from t up to top[t], which doubles each pass
    top = np.where(parent < 0, np.arange(len(parent)), parent)
    raw_depth = (parent >= 0).astype(np.int64)
    while (top[top] != top).any():
        raw_depth += raw_depth[top]
        top = top[top]
    max_depth = np.zeros_like(raw_depth)
    np.maximum.at(max_depth, top, raw_depth)
    connected = max_depth[top] > 0  # a tag in no relation is a tree of depth 0
    norm_depth = np.divide(raw_depth, max_depth[top], out=np.full(len(top), np.nan), where=connected)

    return TaxonomyForest(table.tag_names, np.flatnonzero(connected),
                          table.tags[~connected[table.tags]], parent, raw_depth, norm_depth)


def induce_taxonomy(
    index: FolksonomyIndex,
    top_k: int = DEFAULT_TOP_K,
    min_users: int = DEFAULT_MIN_USERS,
    min_support: int = DEFAULT_MIN_SUPPORT,
    threshold: float = DEFAULT_THRESHOLD,
) -> TaxonomyForest:
    """The forest induced over the eligible tags (spear.eligible_tags).

    With no eligible tag the forest is empty: it has no nodes and no
    disconnected tags.
    """
    table = conditional_table(index, eligible_tags(index, top_k, min_users), min_support)
    return induce_forest(table, threshold)


def annotation_coverage(index: FolksonomyIndex, forest: TaxonomyForest) -> float:
    """Fraction of all annotations whose tag is a connected forest node.

    Raises if the forest was induced on an index with other tags.
    """
    if forest.tag_names != index.columns.tags:
        raise DomainError("the forest was induced on an index with other tags")
    if index.n_annotations == 0:
        return 0.0
    return int(index.tag_counts[forest.nodes].sum()) / index.n_annotations


def depth_expertise(index: FolksonomyIndex, forest: TaxonomyForest,
                    mode: str = "vocabulary") -> np.ndarray:
    """Mean normalized tag depth of every user, by user code; NaN where nothing is scoreable.

    Annotation mode averages over every use of a connected tag, each of the
    user's tags weighted by its annotation count; vocabulary mode averages
    each distinct connected tag once. Both add up in tag code order, which is
    name order. Raises if the forest was induced on an index with other tags.
    """
    if mode not in _MODES:
        raise DomainError(f"mode must be one of {_MODES}, got {mode!r}")
    if forest.tag_names != index.columns.tags:
        raise DomainError("the forest was induced on an index with other tags")
    user, tag, uses = index.user_tags
    depth = forest.norm_depth[tag]
    scored = ~np.isnan(depth)
    return _user_means(user[scored], depth[scored], len(index.columns.users),
                       uses[scored] if mode == "annotation" else None)
