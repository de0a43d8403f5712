"""Vocabulary and content similarity between sub-folksonomies.

Compares the supertagger and non-supertagger groups over tags or items:
usage distributions, top-N Spearman/cosine similarity curves with core-set
detection, and annotation-volume differences binned by an exogenous item
popularity signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .corpus import FolksonomyIndex
from .errors import DomainError, UndefinedCorrelationError, _check_counts
from .partition import Partition, _user_mask
from .stats import BinSpec, BinnedSeries, binned_mean, rank_descending

__all__ = [
    "CurvePoint",
    "FreqDist",
    "SimilarityCurve",
    "default_n_grid",
    "exogenous_popularity_diff",
    "freq_dist",
    "similarity_curve",
    "usage_distribution",
]

_DIMENSIONS = ("tag", "item")
DEFAULT_MAX_N = 100_000

# np.corrcoef rounds differently with the groups swapped, so rhos this close to the peak attain it
CORE_RHO_TOLERANCE = 1e-12


@dataclass(frozen=True, eq=False)
class FreqDist:
    """Annotation counts by tag or item code within one sub-folksonomy; 0 for a key not used."""

    dimension: str
    counts: np.ndarray


def freq_dist(index: FolksonomyIndex, users_mask: np.ndarray, dimension: str) -> FreqDist:
    """Count the annotations of the users a bool mask by user code selects, by tag or item code."""
    if dimension not in _DIMENSIONS:
        raise DomainError(f"dimension must be one of {_DIMENSIONS}, got {dimension!r}")
    c = index.columns
    members = _user_mask(index, users_mask)
    codes, names = (c.tag, c.tags) if dimension == "tag" else (c.item, c.items)
    return FreqDist(dimension, np.bincount(codes[members[c.user]], minlength=len(names)))


def usage_distribution(dist: FreqDist, cumulative: bool = False) -> list[tuple[int, float]]:
    """Share of a sub-folksonomy's annotations on keys of each popularity level.

    Non-cumulative: for each observed count N, the fraction of annotations
    falling on keys used exactly N times (fractions sum to 1). Cumulative:
    the fraction on keys used at least N times (series starts at 1).
    """
    if not dist.counts.any():
        raise DomainError("usage distribution of an empty dist")
    keys_by_level = np.bincount(dist.counts)
    levels = np.flatnonzero(keys_by_level[1:]) + 1
    # integer sums below 2**53, so each share is the correctly rounded int / int
    mass = keys_by_level[levels] * levels
    total = mass.sum()
    if cumulative:
        mass = np.cumsum(mass[::-1])[::-1]
    return list(zip(levels.tolist(), (mass / total).tolist()))


def _ranked(dist: FreqDist) -> np.ndarray:
    """The codes of the keys a side uses, most used first, ties in code order (name order)."""
    keys = np.flatnonzero(dist.counts)
    return keys[np.argsort(-dist.counts[keys], kind="stable")]


def _top(dist: FreqDist, ranked: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """A side's top-n as two vectors by key code: its counts, 0 outside the top-n, and its
    ranks 1..n by count with ties averaged, n + 1 outside."""
    top = ranked[:n]
    counts = np.zeros_like(dist.counts)
    counts[top] = dist.counts[top]
    ranks = np.full(len(counts), float(n + 1))
    ranks[top] = rank_descending(counts[top])
    return counts, ranks


def _rank_correlation(ranks_a: np.ndarray, ranks_b: np.ndarray) -> float:
    """Pearson correlation of two rank vectors over the union; UndefinedCorrelationError if
    either is constant, as it is over a union of one key."""
    if np.ptp(ranks_a) == 0.0 or np.ptp(ranks_b) == 0.0:
        raise UndefinedCorrelationError("constant rank vector")
    if np.array_equal(ranks_a, ranks_b):
        return 1.0
    return float(np.corrcoef(ranks_a, ranks_b)[0, 1])


def _cosine(x: np.ndarray, y: np.ndarray) -> float:
    """Cosine of two integer count vectors, neither zero. Their exact integer dot products give
    the float vectors' cosine bit for bit, without a BLAS call that wakes its threads."""
    return float(x @ y) / (math.sqrt(float(x @ x)) * math.sqrt(float(y @ y)))


class CurvePoint(NamedTuple):
    n: int
    rho: float
    cosine: float
    coverage: float


@dataclass(frozen=True)
class SimilarityCurve:
    """Top-N similarity measures by N; core_size is the N where rho peaks."""

    dimension: str
    points: tuple[CurvePoint, ...]
    core_size: Optional[int]


def default_n_grid(max_n: int = DEFAULT_MAX_N) -> list[int]:
    """Every integer to 100, then ~20 log-spaced values per decade up to max_n."""
    _check_counts(max_n=max_n)
    grid = set(range(1, min(100, max_n) + 1))
    if max_n > 100:
        exponents = np.arange(2.0, math.log10(max_n) + 1e-9, 0.05)
        grid.update(int(round(10.0 ** e)) for e in exponents)
        grid.add(max_n)
    return sorted(v for v in grid if v <= max_n)


def similarity_curve(
    index: FolksonomyIndex,
    partition: Partition,
    dimension: str,
    n_values: Optional[Sequence[int]] = None,
) -> SimilarityCurve:
    """Spearman/cosine similarity between S and not-S as a function of top-N.

    n_values defaults to default_n_grid(). Each side's top-N holds its N
    most used keys, most used first, ties by name. Over the union of the
    two top-N key sets, rho is the Pearson correlation of the two rank
    vectors: ranks 1..N by count within each top-N, ties averaged, N+1 for
    a key outside it. The cosine is that of the two top-N count vectors, 0
    outside each top-N. Coverage is the share of all annotations (full
    folksonomy) whose key falls in the union. An N where rho is undefined (a
    union under 2 keys, or a constant rank vector) is skipped. The core
    size, which the `similarity` command prints on stderr, is the smallest
    N whose rho is within CORE_RHO_TOLERANCE of the peak rho.
    """
    dist_s = freq_dist(index, partition.supertagger, dimension)
    dist_o = freq_dist(index, ~partition.supertagger, dimension)
    if not (dist_s.counts.any() and dist_o.counts.any()):
        raise DomainError("both sub-folksonomies must be non-empty")
    if n_values is None:
        n_values = default_n_grid()
    n_values = sorted(set(n_values))
    if any(n < 1 for n in n_values):
        raise DomainError("N values must be >= 1")

    ranked_s, ranked_o = _ranked(dist_s), _ranked(dist_o)
    full = dist_s.counts + dist_o.counts  # every user is in S or in not-S
    points: list[CurvePoint] = []
    for n in n_values:
        either = np.zeros(len(full), dtype=bool)
        either[ranked_s[:n]] = either[ranked_o[:n]] = True
        union = np.flatnonzero(either)
        counts_s, ranks_s = _top(dist_s, ranked_s, n)
        counts_o, ranks_o = _top(dist_o, ranked_o, n)
        try:
            rho = _rank_correlation(ranks_s[union], ranks_o[union])
        except UndefinedCorrelationError:
            continue
        cos = _cosine(counts_s[union], counts_o[union])
        points.append(CurvePoint(n, rho, cos, int(full[union].sum()) / index.n_annotations))

    best = max((p.rho for p in points), default=math.nan)
    core_size = next((p.n for p in points if p.rho >= best - CORE_RHO_TOLERANCE), None)
    return SimilarityCurve(dimension=dimension, points=tuple(points), core_size=core_size)


def _check_popularity(index: FolksonomyIndex, popularity) -> np.ndarray:
    """popularity as a float array; DomainError unless it holds one value per item code and
    lists at least one item (a value that is not NaN)."""
    popularity = np.asarray(popularity, dtype=float)
    n_items = len(index.columns.items)
    if popularity.shape != (n_items,):
        raise DomainError(f"need {n_items} popularities, one per item, got {popularity.shape}")
    if np.isnan(popularity).all():
        raise DomainError("no indexed item has an external popularity value")
    return popularity


def exogenous_popularity_diff(
    index: FolksonomyIndex,
    partition: Partition,
    popularity: np.ndarray,
    spec: BinSpec,
) -> BinnedSeries:
    """Mean S-minus-not-S annotation count per item, binned by external popularity.

    popularity holds one value per item code, NaN for an item lacking an
    external popularity value; those items are excluded. The series reports
    the paired mean difference with its standard error per logarithmic
    popularity bin. Raises if popularity does not hold one value per item or
    lists no item.
    """
    c = index.columns
    popularity = _check_popularity(index, popularity)
    in_s = _user_mask(index, partition.supertagger)[c.user]
    # S minus not-S annotations per item
    diff = 2 * np.bincount(c.item[in_s], minlength=len(c.items)) - index.item_counts
    listed = ~np.isnan(popularity)
    return binned_mean(popularity[listed], diff[listed], spec)

