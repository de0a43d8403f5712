"""Deterministic statistics kernel shared by all analyses.

Provides average-tie ranks (the ranks of Spearman's rho), lower-median /
nearest-rank quartiles, population z-scores, and the logarithmic binning
reduction used by every "as a function of annotation count" series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DomainError

__all__ = [
    "BinRow",
    "BinSpec",
    "BinnedSeries",
    "MedianIQR",
    "average_ranks",
    "binned_mean",
    "log_bins",
    "median_iqr",
    "population_zscores",
    "rank_descending",
]


def average_ranks(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """Ranks 1..n in ascending order, tied values sharing the average of their ranks.

    For values without NaN this equals scipy.stats.rankdata(values,
    method="average") exactly: every average is a half-integer.
    """
    x = np.asarray(values, dtype=float)
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    first = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    sizes = np.diff(np.r_[first, x.size])
    ranks = np.empty(x.size)
    ranks[order] = np.repeat(first + (sizes + 1) / 2, sizes)
    return ranks


def rank_descending(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """Rank values so that the largest gets rank 1, averaging ties."""
    return average_ranks(np.negative(np.asarray(values, dtype=float)))


class MedianIQR(NamedTuple):
    median: float
    q25: float
    q75: float


def _nearest_rank(sorted_values: Sequence[float], pct: float) -> float:
    n = len(sorted_values)
    idx = max(math.ceil(pct / 100.0 * n), 1) - 1
    return sorted_values[idx]


def median_iqr(values: Iterable[float]) -> MedianIQR:
    """Lower median plus nearest-rank 25th/75th percentiles; an array's as Python numbers."""
    s = np.sort(values) if isinstance(values, np.ndarray) else sorted(values)
    if not len(s):
        raise DomainError("median of empty sequence")
    m = MedianIQR(s[(len(s) - 1) // 2], _nearest_rank(s, 25), _nearest_rank(s, 75))
    return MedianIQR(*(v.item() for v in m)) if isinstance(s, np.ndarray) else m


# far more than a log-binned count needs: at step 1e-4, base 2 reaches 2**100
_MAX_EDGES = 1_000_000


@dataclass(frozen=True)
class BinSpec:
    """Logarithmic bin layout: edges at base**i for i = 0, step, ..., max_exponent."""

    base: float = 2.0
    exponent_step: float = 0.1
    max_exponent: float = 14.0

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.base, self.exponent_step, self.max_exponent))):
            raise DomainError(f"bin base, step and max exponent must be finite, got {self}")
        if self.base <= 1.0:
            raise DomainError(f"bin base must exceed 1, got {self.base}")
        if not 0.0 < self.exponent_step <= self.max_exponent:
            raise DomainError(
                f"need 0 < step <= max exponent, got step={self.exponent_step} "
                f"max={self.max_exponent}"
            )
        # max / step may overflow to inf even when both are finite
        if not self.max_exponent / self.exponent_step < _MAX_EDGES:
            raise DomainError(f"bin spec asks for more than {_MAX_EDGES} edges: {self}")
        # so may the top edge; float ** raises where numpy would return inf
        try:
            self.base ** self.max_exponent
        except OverflowError:
            raise DomainError(f"bin spec's top edge overflows float: {self}") from None


def log_bins(spec: BinSpec) -> np.ndarray:
    """Bin edges base**(k*step) for k = 0..floor(max_exponent/step)."""
    n_steps = math.floor(spec.max_exponent / spec.exponent_step + 1e-9)
    exponents = spec.exponent_step * np.arange(n_steps + 1)
    return np.asarray(spec.base, dtype=float) ** exponents


class BinRow(NamedTuple):
    bin_low: float
    bin_high: float
    mean: float
    stderr: float
    n: int


@dataclass(frozen=True)
class BinnedSeries:
    """Per-bin mean/stderr rows; empty bins are omitted."""

    rows: tuple[BinRow, ...]

    @property
    def total_count(self) -> int:
        return sum(row.n for row in self.rows)


def _stderr(values: np.ndarray) -> float:
    if values.size <= 1:
        return 0.0
    return float(values.std(ddof=1) / math.sqrt(values.size))


def binned_mean(keys: np.ndarray, values: np.ndarray, spec: BinSpec) -> BinnedSeries:
    """Group values by the spec's log bin of their keys and average per bin.

    keys and values are equal-length arrays. Keys below the first edge share
    an implicit [min, first_edge) bin and keys at or above the last edge an
    implicit [last_edge, inf) bin, so every value lands in exactly one bin.
    A stable sort by bin keeps each bin's values in input order, so a bin's
    mean and stderr add up in that order.
    """
    keys, values = np.asarray(keys, dtype=float), np.asarray(values, dtype=float)
    if keys.shape != values.shape:
        raise DomainError(f"{keys.shape} keys for {values.shape} values")
    if not keys.size:
        return BinnedSeries(rows=())
    edges = log_bins(spec)
    # index -1 -> underflow, len(edges)-1 -> overflow
    idx = np.searchsorted(edges, keys, side="right") - 1
    order = np.argsort(idx, kind="stable")
    idx, keys, values = idx[order], keys[order], values[order]
    cuts = np.flatnonzero(np.diff(idx)) + 1
    rows = []
    for bin_idx, bin_keys, in_bin in zip(idx[np.append(0, cuts)].tolist(), np.split(keys, cuts),
                                         np.split(values, cuts)):
        if bin_idx < 0:
            low, high = float(bin_keys.min()), float(edges[0])
        elif bin_idx == len(edges) - 1:
            low, high = float(edges[-1]), math.inf
        else:
            low, high = float(edges[bin_idx]), float(edges[bin_idx + 1])
        rows.append(BinRow(low, high, float(in_bin.mean()), _stderr(in_bin), int(in_bin.size)))
    return BinnedSeries(rows=tuple(rows))


def population_zscores(values: np.ndarray) -> np.ndarray:
    """Z-transform with population standard deviation; all-equal input maps to zeros.

    Each row of a 2-D array is transformed exactly as a 1-D call would be.
    Equal values count as equal though their std need not be 0 (seven copies of 1/7: 2.8e-17).
    """
    if not values.size:
        return np.zeros_like(values)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = (values - values.mean(axis=-1, keepdims=True)) / values.std(axis=-1, keepdims=True)
    return np.where(np.all(values == values[..., :1], axis=-1, keepdims=True), 0.0, z)
