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
from typing import Iterable, Mapping, Optional

import numpy as np

from .corpus import FolksonomyIndex, _by_user_count, _code, _members, _tally
from .errors import DomainError
from .spear import DEFAULT_MIN_USERS, DEFAULT_TOP_K, eligible_tags
from .stats import BinSpec, BinnedSeries, binned_mean

__all__ = [
    "ConditionalTable",
    "TaxonomyForest",
    "annotation_coverage",
    "conditional_table",
    "depth_by_bin",
    "depth_expertise",
    "induce_forest",
    "induce_taxonomy",
]

DEFAULT_THRESHOLD = 0.8
DEFAULT_MIN_SUPPORT = 10

_MODES = ("annotation", "vocabulary")


@dataclass(frozen=True)
class ConditionalTable:
    """Pairwise conditional probabilities P(A|B) over distinct item sets.

    probs holds both directions for every retained pair; support holds the
    co-occurrence item count under the sorted pair key. tag_items gives
    each tag's distinct-item count (its generality measure).
    """

    tags: frozenset[str]
    probs: Mapping[tuple[str, str], float]
    support: Mapping[tuple[str, str], int]
    tag_items: Mapping[str, int]


def conditional_table(
    index: FolksonomyIndex,
    tags: Iterable[str],
    min_support: int = DEFAULT_MIN_SUPPORT,
) -> ConditionalTable:
    """All pairwise P(A|B) between the given tags with enough co-occurrence.

    P(A|B) = |items carrying both A and B| / |items carrying B| over
    distinct items; pairs co-occurring on fewer than min_support items get
    no entry, and self-pairs are excluded.
    """
    # imported here, not at start-up: only taxonomy induction needs scipy
    from scipy import sparse

    c = index.columns
    tag_list = sorted(set(tags))
    codes = np.array([_code(c.tags, t) for t in tag_list], dtype=np.int64)
    if (codes < 0).any():
        missing = [t for t, k in zip(tag_list, codes.tolist()) if k < 0]
        raise DomainError(f"tags not in index: {missing[:5]!r}")

    n_tags = len(tag_list)
    rows, sizes = index.tag_csr.gather(codes)
    # one row per item code, one column per listed tag
    (item, tag), _, _ = _tally(c.item[rows], np.repeat(np.arange(n_tags), sizes))
    matrix = sparse.csr_matrix((np.ones(len(item), dtype=np.int64), (item, tag)),
                               shape=(len(c.items), n_tags))
    cooc = (matrix.T @ matrix).tocoo()
    col_sums = np.asarray(matrix.sum(axis=0)).ravel()
    tag_items = dict(zip(tag_list, col_sums.tolist()))

    keep = (cooc.row < cooc.col) & (cooc.data >= min_support)
    probs: dict[tuple[str, str], float] = {}
    support: dict[tuple[str, str], int] = {}
    for a_code, b_code, count in zip(
        cooc.row[keep].tolist(), cooc.col[keep].tolist(), cooc.data[keep].tolist()
    ):
        a, b = tag_list[a_code], tag_list[b_code]
        support[(a, b)] = count
        probs[(a, b)] = count / tag_items[b]
        probs[(b, a)] = count / tag_items[a]
    return ConditionalTable(
        tags=frozenset(tag_list), probs=probs, support=support, tag_items=tag_items
    )


@dataclass(frozen=True)
class TaxonomyForest:
    """Acyclic forest over tags with raw and normalized depth scores.

    Tags without any induced sub/super-class relation are listed as
    disconnected and carry no depth.
    """

    nodes: frozenset[str]
    parent: Mapping[str, Optional[str]]
    raw_depth: Mapping[str, int]
    norm_depth: Mapping[str, float]
    disconnected: frozenset[str]


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
    probs = table.probs
    candidates: dict[str, list[tuple[float, int, str]]] = {}
    for (a, b), p_ab in probs.items():
        if p_ab >= threshold and probs[(b, a)] < threshold and table.tag_items[a] > table.tag_items[b]:
            candidates.setdefault(b, []).append((p_ab, table.tag_items[a], a))

    parent: dict[str, Optional[str]] = {}
    children: dict[str, list[str]] = {}
    for child, options in candidates.items():
        options.sort(key=lambda o: (-o[0], -o[1], o[2]))
        best = options[0][2]
        parent[child] = best
        children.setdefault(best, []).append(child)

    nodes = set(parent) | set(children)
    for node in nodes:
        parent.setdefault(node, None)

    raw_depth: dict[str, int] = {}
    root_of: dict[str, str] = {}
    for node in sorted(nodes):
        path = []
        cursor: Optional[str] = node
        while cursor is not None and cursor not in raw_depth:
            path.append(cursor)
            cursor = parent[cursor]
        for n in reversed(path):
            p = parent[n]
            if p is None:
                raw_depth[n] = 0
                root_of[n] = n
            else:
                raw_depth[n] = raw_depth[p] + 1
                root_of[n] = root_of[p]

    max_depth: dict[str, int] = {}
    for node in nodes:
        root = root_of[node]
        max_depth[root] = max(max_depth.get(root, 0), raw_depth[node])
    norm_depth = {
        node: raw_depth[node] / max_depth[root_of[node]] for node in nodes
    }

    return TaxonomyForest(
        nodes=frozenset(nodes),
        parent=parent,
        raw_depth=raw_depth,
        norm_depth=norm_depth,
        disconnected=frozenset(table.tags - nodes),
    )


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
    """Fraction of all annotations whose tag is a connected forest node."""
    if index.n_annotations == 0:
        return 0.0
    c = index.columns
    covered = index.tag_csr.counts()[_members(c.tags, forest.nodes)].sum()
    return int(covered) / index.n_annotations


def depth_expertise(index: FolksonomyIndex, forest: TaxonomyForest,
                    mode: str = "vocabulary") -> np.ndarray:
    """Mean normalized tag depth of every user, by user code; NaN where nothing is scoreable.

    Annotation mode averages over every use of a connected tag, adding up in
    annotation order; vocabulary mode averages each distinct connected tag
    once, adding up in tag-name order.
    """
    if mode not in _MODES:
        raise DomainError(f"mode must be one of {_MODES}, got {mode!r}")
    c = index.columns
    n_users = len(c.users)
    depth = np.array([forest.norm_depth.get(t, np.nan) for t in c.tags])
    user, tag = c.user, c.tag
    if mode == "vocabulary":
        (user, tag), _, _ = _tally(user, tag)
    scored = ~np.isnan(depth[tag])
    counts = np.bincount(user[scored], minlength=n_users)
    sums = np.bincount(user[scored], weights=depth[tag[scored]], minlength=n_users)
    means = np.full(n_users, np.nan)
    means[counts > 0] = sums[counts > 0] / counts[counts > 0]
    return means


def depth_by_bin(
    index: FolksonomyIndex, forest: TaxonomyForest, spec: BinSpec, mode: str = "vocabulary"
) -> BinnedSeries:
    """Binned mean term-depth expertise keyed by user total annotation count."""
    return binned_mean(_by_user_count(index, depth_expertise(index, forest, mode)), spec)
