"""Annotation datasets: parsing, validation, indexing, and synthesis.

An annotation is a (user, item, tag, time) tuple. Datasets are delimited
UTF-8 text, one annotation per line; timestamps are integers at a declared
granularity (seconds or months). The FolksonomyIndex built here is the
immutable input to every downstream analysis.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .errors import DomainError, FormatError, NotFoundError
from .stats import MedianIQR, median_iqr

__all__ = [
    "Annotation",
    "DatasetSummary",
    "FolksonomyIndex",
    "ParseResult",
    "SyntheticConfig",
    "TimeGranularity",
    "UserStats",
    "build_index",
    "generate_synthetic",
    "parse_annotations",
    "summary",
    "user_stats",
    "write_annotations",
]


class TimeGranularity(str, Enum):
    """Temporal resolution of a dataset's timestamps."""

    SECONDS = "seconds"
    MONTHS = "months"


@dataclass(frozen=True, slots=True)
class Annotation:
    """One tagging act: user annotated item with tag at time.

    All downstream code assumes user/item/tag are non-empty (tags already
    trimmed and lowercased) and time is a non-negative integer.
    """

    user: str
    item: str
    tag: str
    time: int


@dataclass(frozen=True)
class ParseResult:
    """Well-formed annotations plus a count of rejected lines."""

    annotations: list[Annotation]
    malformed: int
    granularity: TimeGranularity


def _open_lines(source) -> tuple[Iterable[str], Optional[IO]]:
    if isinstance(source, (str, Path)):
        handle = open(source, "r", encoding="utf-8")
        return handle, handle
    return source, None


def parse_annotations(
    source,
    delimiter: str = "\t",
    granularity: TimeGranularity = TimeGranularity.SECONDS,
    header: bool = False,
) -> ParseResult:
    """Parse delimited user/item/tag/time lines into annotations.

    Tags are trimmed and lowercased (Unicode-aware); user and item ids are
    trimmed only. Lines with a wrong field count, empty fields, or a
    timestamp that is not a run of ASCII digits are counted as malformed.
    If more than half of the non-blank lines are malformed a FormatError is
    raised, signalling a wrong delimiter spec. `source` may be a path or
    any iterable of text lines.
    """
    lines, handle = _open_lines(source)
    annotations: list[Annotation] = []
    malformed = 0
    intern = sys.intern
    try:
        it = iter(lines)
        if header:
            next(it, None)
        for raw in it:
            if isinstance(raw, bytes):
                raw = raw.decode("utf-8")
            line = raw.rstrip("\n").rstrip("\r")
            if not line.strip():
                continue
            parts = line.split(delimiter)
            if len(parts) != 4:
                malformed += 1
                continue
            user = parts[0].strip()
            item = parts[1].strip()
            tag = parts[2].strip().lower()
            stamp = parts[3]
            # ASCII digits only: int() would also take signs, spaces, '_' and other scripts' digits
            if not user or not item or not tag or not (stamp.isdigit() and stamp.isascii()):
                malformed += 1
                continue
            annotations.append(Annotation(intern(user), intern(item), intern(tag), int(stamp)))
    finally:
        if handle is not None:
            handle.close()
    total = len(annotations) + malformed
    if total > 0 and malformed * 2 > total:
        raise FormatError(
            f"{malformed} of {total} lines malformed; wrong delimiter spec?"
        )
    return ParseResult(annotations=annotations, malformed=malformed, granularity=granularity)


def write_annotations(annotations: Iterable[Annotation], dest, delimiter: str = "\t") -> None:
    """Serialize annotations in the same delimited format parse_annotations reads."""
    if isinstance(dest, (str, Path)):
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            write_annotations(annotations, fh, delimiter)
        return
    for a in annotations:
        dest.write(f"{a.user}{delimiter}{a.item}{delimiter}{a.tag}{delimiter}{a.time}\n")


@dataclass(frozen=True)
class UserStats:
    annotations: int
    distinct_tags: int
    distinct_items: int


@dataclass(frozen=True)
class FolksonomyIndex:
    """Immutable multi-way index over one annotation set.

    Positions in by_user/by_item/by_tag point into `annotations`.
    item_tag_freq counts distinct users per (item, tag) pair regardless of
    the dedupe flag used at build time; user_annotation_count reflects the
    indexed view (raw or deduped).
    """

    annotations: tuple[Annotation, ...]
    granularity: TimeGranularity
    deduped: bool
    by_user: Mapping[str, tuple[int, ...]]
    by_item: Mapping[str, tuple[int, ...]]
    by_tag: Mapping[str, tuple[int, ...]]
    item_tag_freq: Mapping[tuple[str, str], int]
    user_annotation_count: Mapping[str, int]

    @property
    def n_annotations(self) -> int:
        return len(self.annotations)

    def users(self) -> Iterator[str]:
        return iter(self.by_user)

    def items(self) -> Iterator[str]:
        return iter(self.by_item)

    def tags(self) -> Iterator[str]:
        return iter(self.by_tag)


def build_index(
    annotations: Sequence[Annotation],
    dedupe: bool = False,
    granularity: TimeGranularity = TimeGranularity.SECONDS,
) -> FolksonomyIndex:
    """Index an annotation collection by user, item, and tag.

    With dedupe=True, duplicate (user, item, tag) triples collapse to the
    earliest-timestamped instance (first occurrence on timestamp ties),
    preserving first-occurrence order. Deduplication is idempotent.
    """
    if dedupe:
        earliest: dict[tuple[str, str, str], int] = {}
        order: list[tuple[str, str, str]] = []
        for a in annotations:
            key = (a.user, a.item, a.tag)
            t = earliest.get(key)
            if t is None:
                earliest[key] = a.time
                order.append(key)
            elif a.time < t:
                earliest[key] = a.time
        kept = tuple(Annotation(u, i, tg, earliest[(u, i, tg)]) for u, i, tg in order)
    else:
        kept = tuple(annotations)

    by_user: dict[str, list[int]] = {}
    by_item: dict[str, list[int]] = {}
    by_tag: dict[str, list[int]] = {}
    for pos, a in enumerate(kept):
        by_user.setdefault(a.user, []).append(pos)
        by_item.setdefault(a.item, []).append(pos)
        by_tag.setdefault(a.tag, []).append(pos)

    item_tag_freq: dict[tuple[str, str], int] = {}
    for item, positions in by_item.items():
        seen: set[tuple[str, str]] = set()
        for pos in positions:
            a = kept[pos]
            pair = (a.tag, a.user)
            if pair not in seen:
                seen.add(pair)
                key = (item, a.tag)
                item_tag_freq[key] = item_tag_freq.get(key, 0) + 1

    return FolksonomyIndex(
        annotations=kept,
        granularity=granularity,
        deduped=dedupe,
        by_user={u: tuple(p) for u, p in by_user.items()},
        by_item={i: tuple(p) for i, p in by_item.items()},
        by_tag={t: tuple(p) for t, p in by_tag.items()},
        item_tag_freq=item_tag_freq,
        user_annotation_count={u: len(p) for u, p in by_user.items()},
    )


def user_stats(index: FolksonomyIndex, user: str) -> UserStats:
    """Annotation, distinct-tag, and distinct-item counts for one user."""
    positions = index.by_user.get(user)
    if positions is None:
        raise NotFoundError(f"unknown user: {user!r}")
    tags = set()
    items = set()
    for pos in positions:
        a = index.annotations[pos]
        tags.add(a.tag)
        items.add(a.item)
    return UserStats(len(positions), len(tags), len(items))


@dataclass(frozen=True)
class DatasetSummary:
    """Global counts plus median/IQR of per-user, per-tag, per-item volumes."""

    taggers: int
    tags: int
    resources: int
    annotations: int
    per_user: Optional[MedianIQR]
    per_tag: Optional[MedianIQR]
    per_item: Optional[MedianIQR]


def summary(index: FolksonomyIndex) -> DatasetSummary:
    """Dataset-level summary; medians are None for an empty index."""
    if index.n_annotations == 0:
        return DatasetSummary(0, 0, 0, 0, None, None, None)
    return DatasetSummary(
        taggers=len(index.by_user),
        tags=len(index.by_tag),
        resources=len(index.by_item),
        annotations=index.n_annotations,
        per_user=median_iqr(len(p) for p in index.by_user.values()),
        per_tag=median_iqr(len(p) for p in index.by_tag.values()),
        per_item=median_iqr(len(p) for p in index.by_item.values()),
    )


@dataclass(frozen=True)
class SyntheticConfig:
    """Power-law corpus generator settings; deterministic per seed."""

    n_users: int = 1000
    activity_exponent: float = 2.0
    n_items: int = 500
    n_tags: int = 200
    item_popularity_exponent: float = 1.0
    tag_popularity_exponent: float = 1.0
    seed: int = 0
    max_user_annotations: int = 100_000
    time_span: int = 120
    tags_per_item: int = 25

    def __post_init__(self) -> None:
        for name in ("n_users", "n_items", "n_tags", "tags_per_item"):
            if getattr(self, name) < 1:
                raise DomainError(f"{name} must be >= 1")
        for name in ("activity_exponent", "item_popularity_exponent", "tag_popularity_exponent"):
            if getattr(self, name) <= 0:
                raise DomainError(f"{name} must be > 0")


def _power_law_cdf(n: int, exponent: float) -> np.ndarray:
    weights = np.arange(1, n + 1, dtype=float) ** -exponent
    cdf = np.cumsum(weights) / weights.sum()
    # rounding must not leave the final edge below 1.0, or a uniform draw
    # could index one past the end
    cdf[-1] = 1.0
    return cdf


def generate_synthetic(config: SyntheticConfig) -> list[Annotation]:
    """Draw a synthetic corpus with power-law user activity and popularity.

    Per-user annotation counts follow a discrete power law over
    1..max_user_annotations with the configured exponent; each annotation's
    item is a rank-zipf popularity draw, and its tag is a slot of the
    item's tag pool. Pool slots are themselves independent rank-zipf tag
    draws, so the marginal tag distribution follows the configured power
    law while each item carries a bounded characteristic vocabulary (at
    most tags_per_item distinct tags), the way shared items accumulate
    topical tags in real systems. Timestamps are uniform months in
    [0, time_span). Identical seeds give identical corpora.
    """
    rng = np.random.default_rng(config.seed)
    count_cdf = _power_law_cdf(config.max_user_annotations, config.activity_exponent)
    counts = np.searchsorted(count_cdf, rng.random(config.n_users), side="right") + 1
    total = int(counts.sum())

    item_cdf = _power_law_cdf(config.n_items, config.item_popularity_exponent)
    tag_cdf = _power_law_cdf(config.n_tags, config.tag_popularity_exponent)
    pool_size = min(config.tags_per_item, config.n_tags)
    pools = np.searchsorted(
        tag_cdf, rng.random((config.n_items, pool_size)), side="right"
    )
    item_draws = np.searchsorted(item_cdf, rng.random(total), side="right")
    slot_draws = rng.integers(0, pool_size, size=total)
    tag_draws = pools[item_draws, slot_draws]
    times = rng.integers(0, config.time_span, size=total)

    width_u = len(str(config.n_users))
    width_i = len(str(config.n_items))
    width_t = len(str(config.n_tags))
    items = [sys.intern(f"i{k:0{width_i}d}") for k in range(config.n_items)]
    tags = [sys.intern(f"t{k:0{width_t}d}") for k in range(config.n_tags)]

    annotations: list[Annotation] = []
    pos = 0
    for u in range(config.n_users):
        user = sys.intern(f"u{u:0{width_u}d}")
        for _ in range(int(counts[u])):
            annotations.append(
                Annotation(user, items[item_draws[pos]], tags[tag_draws[pos]], int(times[pos]))
            )
            pos += 1
    return annotations
