"""Vocabulary and content similarity between sub-folksonomies.

Compares the supertagger and non-supertagger groups over tags or items:
usage distributions, top-N Spearman/cosine similarity curves with core-set
detection, and annotation-volume differences binned by an exogenous item
popularity signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .corpus import FolksonomyIndex
from .errors import DomainError, UndefinedCorrelationError
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


class _Ranking(NamedTuple):
    """One side's keys as codes, most used first (ties in code order), and their counts."""

    keys: np.ndarray
    counts: np.ndarray

    @classmethod
    def of(cls, dist: FreqDist) -> "_Ranking":
        keys = np.flatnonzero(dist.counts)
        keys = keys[np.argsort(-dist.counts[keys], kind="stable")]
        return cls(keys, dist.counts[keys])


def _rankings(dist_a: FreqDist, dist_b: FreqDist) -> tuple[_Ranking, _Ranking, int]:
    """Both sides ranked, and the number of key codes they share."""
    if len(dist_a.counts) != len(dist_b.counts):
        raise DomainError(f"dists over {len(dist_a.counts)} and {len(dist_b.counts)} keys")
    return _Ranking.of(dist_a), _Ranking.of(dist_b), len(dist_a.counts)


def _spread(ranking: _Ranking, values, n: int, n_keys: int, absent: float) -> np.ndarray:
    """values of the top-n keys placed at their codes; every other code holds absent."""
    full = np.full(n_keys, absent)
    full[ranking.keys[:n]] = values
    return full


def _union(a: _Ranking, b: _Ranking, n_keys: int, n: int) -> np.ndarray:
    """The codes in either top-n, ascending: the keys in sorted order."""
    either = np.zeros(n_keys, dtype=bool)
    either[a.keys[:n]] = either[b.keys[:n]] = True
    return np.flatnonzero(either)


def _spearman_tops(a: _Ranking, b: _Ranking, n_keys: int, n: int) -> float:
    """Rank correlation between the two top-n rankings over the union of their keys."""
    union = _union(a, b, n_keys, n)
    if len(union) < 2:
        raise UndefinedCorrelationError("top-N union has fewer than two keys")
    # ranks 1..N by count within each top-N; keys outside it take rank N+1
    vec_a = _spread(a, rank_descending(a.counts[:n]), n, n_keys, float(n + 1))[union]
    vec_b = _spread(b, rank_descending(b.counts[:n]), n, n_keys, float(n + 1))[union]
    if np.ptp(vec_a) == 0.0 or np.ptp(vec_b) == 0.0:
        raise UndefinedCorrelationError("constant rank vector")
    if np.array_equal(vec_a, vec_b):
        return 1.0
    return float(np.corrcoef(vec_a, vec_b)[0, 1])


def _cosine_tops(a: _Ranking, b: _Ranking, n_keys: int, n: int) -> float:
    """Cosine of the two top-n count vectors over the union of their keys; a key outside a
    side's top-n counts 0 there."""
    union = _union(a, b, n_keys, n)
    x = _spread(a, a.counts[:n], n, n_keys, 0)[union]
    y = _spread(b, b.counts[:n], n, n_keys, 0)[union]
    # Integer counts give exact integer dot products, so this is stats.cosine
    # bit for bit (its float sums of integers below 2**53 are exact too),
    # without the BLAS call that wakes its threads on every product.
    xx, yy = float(x @ x), float(y @ y)
    if xx == 0.0 or yy == 0.0:
        raise DomainError("cosine undefined for a zero vector")
    return float(x @ y) / (math.sqrt(xx) * math.sqrt(yy))


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


def _check_max_n(max_n: int) -> None:
    if max_n < 1:
        raise DomainError(f"max N must be at least 1, got {max_n}")


def default_n_grid(max_n: int = 100_000) -> list[int]:
    """Every integer to 100, then ~20 log-spaced values per decade up to max_n."""
    _check_max_n(max_n)
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

    Coverage at N is the share of all annotations (full folksonomy) whose
    key falls in the union of the two top-N sets. N values where the rank
    correlation is undefined are skipped. The core size is the smallest N
    attaining the maximum rho.
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

    s_ranked, o_ranked, n_keys = _rankings(dist_s, dist_o)
    full = dist_s.counts + dist_o.counts  # every user is in S or in not-S
    covered = np.zeros(n_keys, dtype=bool)
    covered_annotations = 0
    prev_n = 0
    points: list[CurvePoint] = []
    for n in n_values:
        new = np.concatenate((s_ranked.keys[prev_n:n], o_ranked.keys[prev_n:n]))
        new = np.unique(new[~covered[new]])
        covered[new] = True
        covered_annotations += int(full[new].sum())
        prev_n = n
        try:
            rho = _spearman_tops(s_ranked, o_ranked, n_keys, n)
        except UndefinedCorrelationError:
            continue
        cos = _cosine_tops(s_ranked, o_ranked, n_keys, n)
        points.append(CurvePoint(n, rho, cos, covered_annotations / index.n_annotations))

    core_size = None
    if points:
        best = max(p.rho for p in points)
        core_size = next(p.n for p in points if p.rho == best)
    return SimilarityCurve(dimension=dimension, points=tuple(points), core_size=core_size)


def exogenous_popularity_diff(
    index: FolksonomyIndex,
    partition: Partition,
    popularity: Mapping[str, float],
    spec: BinSpec,
) -> BinnedSeries:
    """Mean S-minus-not-S annotation count per item, binned by external popularity.

    Items lacking an external popularity value are excluded; the series
    reports the paired mean difference with its standard error per
    logarithmic popularity bin.
    """
    c = index.columns
    in_s = _user_mask(index, partition.supertagger)[c.user]
    # S minus not-S annotations per item
    diff = 2 * np.bincount(c.item[in_s], minlength=len(c.items)) - index.item_csr.counts()
    pairs = []
    for k in index.item_csr.first_seen().tolist():
        pop = popularity.get(c.items[k])
        if pop is not None:
            pairs.append((float(pop), float(diff[k])))
    if not pairs:
        raise DomainError("no indexed item has an external popularity value")
    return binned_mean(pairs, spec)
