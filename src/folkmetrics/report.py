"""Serialization of analysis results and the full report bundle.

CSV files carry a fixed header row; JSON objects are emitted with sorted
keys. All writers iterate in deterministic order so identical inputs give
byte-identical files.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional

import numpy as np

from . import consensus as consensus_mod
from . import expertise as expertise_mod
from . import motivation as motivation_mod
from . import similarity as similarity_mod
from . import spear as spear_mod
from . import taxonomy as taxonomy_mod
from .corpus import FolksonomyIndex, summary
from .errors import DomainError
from .partition import (Partition, _check_fraction, _check_resolution, pareto_curve,
                        partition_summary, split_supertaggers)
from .stats import BinSpec, BinnedSeries

__all__ = ["ReportConfig", "write_report"]


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, float):
        # float() first: a numpy float is a float whose repr names its type
        return repr(float(value))
    return str(value)


@contextlib.contextmanager
def _output(path):
    """A UTF-8 text stream writing to path, or to stdout (whatever the locale) for None or '-'."""
    if path is not None and path != "-":
        with open(path, "w", encoding="utf-8", newline="") as stream:
            yield stream
    elif getattr(sys.stdout, "buffer", None) is None:
        yield sys.stdout
    else:
        sys.stdout.flush()
        stream = io.TextIOWrapper(sys.stdout.buffer, encoding="utf-8", newline="")
        try:
            yield stream
        finally:
            stream.detach().flush()


def _write_csv(path, header: list[str], rows) -> None:
    """Write one CSV table to a path, or to stdout for None or '-'."""
    with _output(path) as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def write_binned_csv(path, series: BinnedSeries, value_name: str = "mean") -> None:
    _write_csv(
        path,
        ["bin_low", "bin_high", value_name, "stderr", "n"],
        ((r.bin_low, r.bin_high, r.mean, r.stderr, r.n) for r in series.rows),
    )


def write_labeled_binned_csv(path, label_name: str, series_by_label: Mapping[str, BinnedSeries]) -> None:
    rows = []
    for label in series_by_label:
        for r in series_by_label[label].rows:
            rows.append((label, r.bin_low, r.bin_high, r.mean, r.stderr, r.n))
    _write_csv(path, [label_name, "bin_low", "bin_high", "mean", "stderr", "n"], rows)


def write_motivation_csv(path, series: motivation_mod.MotivationSeries) -> None:
    write_labeled_binned_csv(path, "metric", {
        "tpp": series.tpp, "trr": series.trr, "orphan_ratio": series.orphan_ratio})


def write_similarity_csv(path, curve: similarity_mod.SimilarityCurve) -> None:
    _write_csv(
        path,
        ["N", "rho", "cosine", "coverage"],
        ((p.n, p.rho, p.cosine, p.coverage) for p in curve.points),
    )


def write_consensus_csv(path, series: consensus_mod.ConsensusSeries) -> None:
    cosine_by_low = {r.bin_low: r for r in series.cosine.rows}
    rows = []
    for r in series.top_match.rows:
        c = cosine_by_low[r.bin_low]
        rows.append((r.bin_low, r.bin_high, r.mean, r.stderr, c.mean, c.stderr, r.n))
    _write_csv(
        path,
        ["bin_low", "bin_high", "top_match_rate", "top_match_stderr",
         "cosine_mean", "cosine_stderr", "n"],
        rows,
    )


def write_usage_csv(path, series_by_group: Mapping[str, list[tuple[int, float]]]) -> None:
    rows = []
    for group in series_by_group:
        for n, proportion in series_by_group[group]:
            rows.append((group, n, proportion))
    _write_csv(path, ["group", "N", "proportion"], rows)


def _usage_by_group(index: FolksonomyIndex, part: Partition, dimension: str,
                    cumulative: bool) -> dict[str, list[tuple[int, float]]]:
    """Each group's usage distribution over the dimension; a group with no annotations is left out."""
    series = {}
    for group, users in (("S", part.supertagger), ("not_S", ~part.supertagger)):
        dist = similarity_mod.freq_dist(index, users, dimension)
        if dist.counts.any():
            series[group] = similarity_mod.usage_distribution(dist, cumulative=cumulative)
    return series


def write_pareto_csv(path, curve) -> None:
    _write_csv(path, ["fraction_users", "fraction_annotations"], curve.points)


def _median_iqr_json(m) -> Optional[dict]:
    if m is None:
        return None
    return {"median": m.median, "q25": m.q25, "q75": m.q75}


def write_json(path, payload) -> None:
    with _output(path) as stream:
        json.dump(payload, stream, indent=2, sort_keys=True)
        stream.write("\n")


def summary_json(index: FolksonomyIndex) -> dict:
    s = summary(index)
    return {
        "taggers": s.taggers,
        "tags": s.tags,
        "resources": s.resources,
        "annotations": s.annotations,
        "annotations_per_user": _median_iqr_json(s.per_user),
        "annotations_per_tag": _median_iqr_json(s.per_tag),
        "annotations_per_item": _median_iqr_json(s.per_item),
    }


def partition_users(index: FolksonomyIndex, partition: Partition) -> dict[str, list[str]]:
    """The names of the supertaggers and of the others in code order, which is name order."""
    users = index.columns.users
    return {group: [users[k] for k in np.flatnonzero(mask).tolist()]
            for group, mask in (("supertaggers", partition.supertagger),
                                ("others", ~partition.supertagger))}


def partition_json(index: FolksonomyIndex, partition: Partition,
                   include_users: bool = True) -> dict:
    n_supertaggers = int(np.count_nonzero(partition.supertagger))
    payload = {
        "annotation_threshold": partition.annotation_threshold,
        "target_fraction": partition.target_fraction,
        "n_supertaggers": n_supertaggers,
        "n_others": len(partition.supertagger) - n_supertaggers,
    }
    if include_users:
        payload.update(partition_users(index, partition))
    return payload


def partition_summary_rows(result) -> list[tuple]:
    rows = []
    for name, group in (("S", result.supertaggers), ("not_S", result.others)):
        med = group.annotations_per_user
        tags_med = group.tags_per_user
        items_med = group.items_per_user
        rows.append(
            (
                name, group.users, group.annotations,
                group.total_tags, group.unique_tags, result.shared_tags,
                group.total_items, group.unique_items, result.shared_items,
                *(("", "", "") if med is None else med),
                *(("", "", "") if tags_med is None else tags_med),
                *(("", "", "") if items_med is None else items_med),
            )
        )
    return rows


PARTITION_SUMMARY_HEADER = [
    "group", "users", "annotations",
    "total_tags", "unique_tags", "shared_tags",
    "total_items", "unique_items", "shared_items",
    "annotations_median", "annotations_q25", "annotations_q75",
    "tags_median", "tags_q25", "tags_q75",
    "items_median", "items_q25", "items_q75",
]


def forest_json(forest: taxonomy_mod.TaxonomyForest, coverage: Optional[float] = None) -> dict:
    nodes = {
        tag: {
            "parent": forest.parent[tag],
            "raw_depth": forest.raw_depth[tag],
            "norm_depth": forest.norm_depth[tag],
        }
        for tag in sorted(forest.nodes)
    }
    payload = {"nodes": nodes, "disconnected": sorted(forest.disconnected)}
    if coverage is not None:
        payload["annotation_coverage"] = coverage
    return payload


@dataclass(frozen=True)
class ReportConfig:
    """Parameters for the full analysis bundle."""

    fraction: float = 0.5
    bins: BinSpec = field(default_factory=BinSpec)
    max_n: int = 100_000
    pareto_resolution: Optional[int] = 1000
    top_k: int = spear_mod.DEFAULT_TOP_K
    min_users: int = spear_mod.DEFAULT_MIN_USERS
    exponent: float = spear_mod.DEFAULT_EXPONENT
    tolerance: float = spear_mod.DEFAULT_TOLERANCE
    max_iter: int = spear_mod.DEFAULT_MAX_ITER
    taxonomy_threshold: float = taxonomy_mod.DEFAULT_THRESHOLD
    min_support: int = taxonomy_mod.DEFAULT_MIN_SUPPORT
    orphan_divisor: int = motivation_mod.DEFAULT_ORPHAN_DIVISOR

    def __post_init__(self) -> None:
        # checked before write_report writes any file; spear_by_bin's errors would only
        # become an empty series there
        _check_fraction(self.fraction)
        similarity_mod._check_max_n(self.max_n)
        _check_resolution(self.pareto_resolution)
        spear_mod._check_top_k(self.top_k)
        spear_mod._check_parameters(self.exponent, self.tolerance, self.max_iter)
        taxonomy_mod._check_threshold(self.taxonomy_threshold)
        motivation_mod._check_divisor(self.orphan_divisor)


def write_report(
    index: FolksonomyIndex,
    out_dir,
    config: ReportConfig = ReportConfig(),
    popularity: Optional[Mapping[str, float]] = None,
) -> list[str]:
    """Run the full pipeline and write every figure/table data series.

    Emits the dataset summary, partition and per-group tables, the Pareto
    curve, tag/item usage distributions and similarity curves, the
    consensus, motivation, SPEAR, consensus-expertise and term-depth
    series, and the induced taxonomy. Analyses that are undefined for the
    given corpus (no shared items, no eligible tags) produce header-only
    files. Returns the list of files written.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    def emit(name: str) -> Path:
        written.append(name)
        return out / name

    write_json(emit("summary.json"), summary_json(index))

    part = split_supertaggers(index, config.fraction)
    write_json(emit("partition.json"), partition_json(index, part))
    _write_csv(
        emit("partition_summary.csv"),
        PARTITION_SUMMARY_HEADER,
        partition_summary_rows(partition_summary(index, part)),
    )
    write_pareto_csv(emit("pareto.csv"), pareto_curve(index, config.pareto_resolution))

    n_values = similarity_mod.default_n_grid(config.max_n)
    for dimension, cumulative in (("tag", False), ("item", True)):
        write_usage_csv(emit(f"{dimension}_usage_dist.csv"),
                        _usage_by_group(index, part, dimension, cumulative))
        try:
            curve = similarity_mod.similarity_curve(index, part, dimension, n_values)
        except DomainError:
            curve = similarity_mod.SimilarityCurve(dimension, (), None)
        write_similarity_csv(emit(f"{dimension}_similarity.csv"), curve)

    try:
        consensus_series = consensus_mod.consensus_by_bin(index, part, config.bins)
    except DomainError:
        consensus_series = consensus_mod.ConsensusSeries(
            BinnedSeries(rows=()), BinnedSeries(rows=()), 0
        )
    write_consensus_csv(emit("consensus.csv"), consensus_series)

    write_motivation_csv(
        emit("motivation_binned.csv"),
        motivation_mod.motivation_by_bin(index, config.bins, config.orphan_divisor),
    )

    try:
        spear_series = spear_mod.spear_by_bin(
            index,
            config.bins,
            top_k=config.top_k,
            min_users=config.min_users,
            exponent=config.exponent,
            tolerance=config.tolerance,
            max_iter=config.max_iter,
        )
    except DomainError:
        spear_series = BinnedSeries(rows=())
    write_binned_csv(emit("spear_binned.csv"), spear_series)

    write_binned_csv(
        emit("consensus_expertise_binned.csv"),
        expertise_mod.consensus_expertise_by_bin(index, config.bins),
    )

    forest = taxonomy_mod.induce_taxonomy(index, config.top_k, config.min_users,
                                          config.min_support, config.taxonomy_threshold)
    write_json(
        emit("taxonomy.json"),
        forest_json(forest, taxonomy_mod.annotation_coverage(index, forest)),
    )
    write_labeled_binned_csv(
        emit("depth_binned.csv"),
        "mode",
        {
            mode: taxonomy_mod.depth_by_bin(index, forest, config.bins, mode)
            for mode in ("annotation", "vocabulary")
        },
    )

    if popularity is not None:
        write_binned_csv(
            emit("exo_diff.csv"),
            similarity_mod.exogenous_popularity_diff(index, part, popularity, config.bins),
            value_name="mean_diff",
        )

    return written
