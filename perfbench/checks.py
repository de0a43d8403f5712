"""Output checks with their own oracle.

The oracle recomputes exact integers from the annotations the benchmark
generated, without calling folkmetrics: corpus sizes, distinct triples, the
supertagger split, shared items and eligible-tag users. The checks compare
those integers with what the CLI wrote, and check floats only for their
domain (correlations in [-1, 1], rates in [0, 1], distributions summing to
1, values finite). Float digests are not pinned: a change to a numerical
method may legitimately move values in their last digits.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

# the CLI's documented defaults for `report` and `spear`
TOP_K = 10_000
FRACTION = 0.5

_MASK = (1 << 64) - 1
# slack for rounding in the last digits of values that sit on a domain edge
_EPS = 1e-9


@dataclass(frozen=True)
class Oracle:
    annotations: int
    users: int
    items: int
    tags: int
    # what only the `report` checks need (the last two, `spear`'s too)
    supertaggers: int | None = None
    others: int | None = None
    threshold: int | None = None
    shared_items: int | None = None
    eligible_tags: int | None = None
    spear_users: int | None = None
    # what only the `ingest` checks need: distinct triples and an
    # order-independent digest of the deduplicated lines it must write
    triples: int | None = None
    triples_digest: int | None = None


def line_digest(line: str) -> int:
    """64-bit digest of one line; their sum identifies a multiset of lines in any order."""
    return int.from_bytes(hashlib.blake2b(line.encode(), digest_size=8).digest(), "little")


def _spear_counts(annotations, min_users: int) -> dict:
    """Eligible tags (top TOP_K by use, at least min_users users) and the users they cover."""
    tag_users: dict[str, set[str]] = {}
    for a in annotations:
        tag_users.setdefault(a.tag, set()).add(a.user)
    tag_counts = Counter(a.tag for a in annotations)
    ranked_tags = sorted(tag_counts, key=lambda t: (-tag_counts[t], t))[:TOP_K]
    eligible = [t for t in ranked_tags if len(tag_users[t]) >= min_users]
    return dict(
        eligible_tags=len(eligible),
        spear_users=len(set().union(*(tag_users[t] for t in eligible))),
    )


def _report_counts(annotations, min_users: int) -> dict:
    user_counts = Counter(a.user for a in annotations)
    ranked = sorted(user_counts.items(), key=lambda kv: (-kv[1], kv[0]))
    target = FRACTION * len(annotations)
    running = 0
    for cut, (_, count) in enumerate(ranked, start=1):
        running += count
        if running >= target:
            break
    supertaggers = {user for user, _ in ranked[:cut]}

    item_groups: dict[str, int] = {}
    for a in annotations:
        item_groups[a.item] = item_groups.get(a.item, 0) | (1 if a.user in supertaggers else 2)
    return dict(
        supertaggers=cut,
        others=len(user_counts) - cut,
        threshold=ranked[cut - 1][1],
        shared_items=sum(1 for groups in item_groups.values() if groups == 3),
        **_spear_counts(annotations, min_users),
    )


def _ingest_counts(annotations) -> dict:
    earliest: dict[tuple[str, str, str], int] = {}
    for a in annotations:
        key = (a.user, a.item, a.tag)
        t = earliest.get(key)
        if t is None or a.time < t:
            earliest[key] = a.time
    return dict(
        triples=len(earliest),
        triples_digest=sum(
            line_digest(f"{u}\t{i}\t{t}\t{tm}\n") for (u, i, t), tm in earliest.items()
        ) & _MASK,
    )


def oracle(annotations, command: str, min_users: int) -> Oracle:
    """Exact counts of the corpus that `command`'s checks need, computed without folkmetrics."""
    counts = dict(
        annotations=len(annotations),
        users=len({a.user for a in annotations}),
        items=len({a.item for a in annotations}),
        tags=len({a.tag for a in annotations}),
    )
    if command == "report":
        counts.update(_report_counts(annotations, min_users))
    elif command == "spear":
        counts.update(_spear_counts(annotations, min_users))
    elif command == "ingest":
        counts.update(_ingest_counts(annotations))
    return Oracle(**counts)


class _Problems(list):
    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.append(message)


def _csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _in(value: float, low: float, high: float) -> bool:
    return math.isfinite(value) and low - _EPS <= value <= high + _EPS


def _binned(problems: _Problems, name: str, rows: list[dict], low=-math.inf, high=math.inf) -> int:
    """Check binned rows (bin_low, bin_high, mean, stderr, n); return the summed n."""
    total = 0
    for r in rows:
        bin_low, bin_high = float(r["bin_low"]), float(r["bin_high"])
        mean, stderr, n = float(r["mean"]), float(r["stderr"]), int(r["n"])
        problems.expect(bin_low < bin_high, f"{name}: bin [{bin_low}, {bin_high}) is empty")
        problems.expect(_in(mean, low, high),
                        f"{name}: mean {mean} outside [{low}, {high}]")
        problems.expect(_in(stderr, 0.0, math.inf), f"{name}: bad stderr {stderr}")
        problems.expect(n >= 1, f"{name}: bin with n={n}")
        total += n
    return total


def _summary_counts(problems: _Problems, path: Path, oracle: Oracle, annotations: int) -> dict:
    payload = _json(path)
    for key, want in (("annotations", annotations), ("taggers", oracle.users),
                      ("resources", oracle.items), ("tags", oracle.tags)):
        problems.expect(payload[key] == want, f"{path.name}: {key}={payload[key]}, expected {want}")
    return payload


def _bundle_summary(path: Path, oracle: Oracle, problems: _Problems) -> None:
    _summary_counts(problems, path, oracle, oracle.annotations)


def _partition(path: Path, oracle: Oracle, problems: _Problems) -> None:
    part = _json(path)
    for key, want in (("n_supertaggers", oracle.supertaggers), ("n_others", oracle.others),
                      ("annotation_threshold", oracle.threshold)):
        problems.expect(part[key] == want, f"{path.name}: {key}={part[key]}, expected {want}")
    problems.expect(len(part["supertaggers"]) == oracle.supertaggers
                    and len(part["others"]) == oracle.others,
                    f"{path.name}: user lists do not match the group sizes")


def _partition_summary(path: Path, oracle: Oracle, problems: _Problems) -> None:
    groups = {r["group"]: r for r in _csv(path)}
    problems.expect(int(groups["S"]["users"]) == oracle.supertaggers
                    and int(groups["not_S"]["users"]) == oracle.others,
                    f"{path.name}: group sizes differ from the supertagger split")
    problems.expect(int(groups["S"]["annotations"]) + int(groups["not_S"]["annotations"])
                    == oracle.annotations, f"{path.name}: annotations do not add up")


def _pareto(path: Path, oracle: Oracle, problems: _Problems) -> None:
    points = [(float(r["fraction_users"]), float(r["fraction_annotations"])) for r in _csv(path)]
    problems.expect(points[0] == (0.0, 0.0) and points[-1] == (1.0, 1.0),
                    f"{path.name}: curve does not run from (0,0) to (1,1)")
    problems.expect(all(_in(x, 0, 1) and _in(y, 0, 1) for x, y in points)
                    and all(a[0] <= b[0] and a[1] <= b[1] for a, b in zip(points, points[1:])),
                    f"{path.name}: points outside [0,1] or not monotone")


def _usage(cumulative: bool):
    def check(path: Path, oracle: Oracle, problems: _Problems) -> None:
        by_group: dict[str, list[float]] = {}
        for r in _csv(path):
            by_group.setdefault(r["group"], []).append(float(r["proportion"]))
        problems.expect(set(by_group) == {"S", "not_S"}, f"{path.name}: groups {sorted(by_group)}")
        for group, values in by_group.items():
            problems.expect(all(_in(v, 0, 1) for v in values),
                            f"{path.name}: {group} outside [0,1]")
            if cumulative:
                falling = all(a >= b for a, b in zip(values, values[1:]))
                problems.expect(values[0] == 1.0 and falling,
                                f"{path.name}: {group} cumulative share does not fall from 1")
            else:
                problems.expect(abs(math.fsum(values) - 1.0) < _EPS,
                                f"{path.name}: {group} shares sum to {math.fsum(values)}")
    return check


def _similarity(path: Path, oracle: Oracle, problems: _Problems) -> None:
    rows = _csv(path)
    problems.expect(len(rows) > 0, f"{path.name}: no points")
    ns = [int(r["N"]) for r in rows]
    problems.expect(all(a < b for a, b in zip(ns, ns[1:])), f"{path.name}: N not increasing")
    problems.expect(all(_in(float(r["rho"]), -1, 1) and _in(float(r["cosine"]), -1, 1)
                        and _in(float(r["coverage"]), 0, 1) for r in rows),
                    f"{path.name}: rho, cosine or coverage outside its domain")


def _consensus(path: Path, oracle: Oracle, problems: _Problems) -> None:
    rows = _csv(path)
    problems.expect(all(_in(float(r["top_match_rate"]), 0, 1)
                        and _in(float(r["cosine_mean"]), -1, 1)
                        and _in(float(r["top_match_stderr"]), 0, math.inf)
                        and _in(float(r["cosine_stderr"]), 0, math.inf) for r in rows),
                    f"{path.name}: match rate, cosine or stderr outside its domain")
    shared = sum(int(r["n"]) for r in rows)
    problems.expect(shared == oracle.shared_items,
                    f"{path.name}: {shared} items, expected {oracle.shared_items} shared items")


def _motivation(path: Path, oracle: Oracle, problems: _Problems) -> None:
    by_metric: dict[str, list[dict]] = {}
    for r in _csv(path):
        by_metric.setdefault(r["metric"], []).append(r)
    for metric, low, high in (("tpp", 1, math.inf), ("trr", 0, math.inf), ("orphan_ratio", 0, 1)):
        n = _binned(problems, f"{path.name} {metric}", by_metric.get(metric, []), low, high)
        problems.expect(n == oracle.users, f"{path.name}: {metric} covers {n} users")


def _spear(path: Path, oracle: Oracle, problems: _Problems) -> None:
    n = _binned(problems, path.name, _csv(path))
    problems.expect(n == oracle.spear_users,
                    f"{path.name}: {n} users, expected {oracle.spear_users}")


def _consensus_expertise(path: Path, oracle: Oracle, problems: _Problems) -> None:
    n = _binned(problems, path.name, _csv(path), 0, 1)
    problems.expect(n <= oracle.users, f"{path.name}: {n} users")


def _taxonomy(path: Path, oracle: Oracle, problems: _Problems) -> None:
    taxonomy = _json(path)
    nodes = taxonomy["nodes"]
    problems.expect(len(nodes) + len(taxonomy["disconnected"]) == oracle.eligible_tags
                    and not set(nodes) & set(taxonomy["disconnected"]),
                    f"{path.name}: {len(nodes)} nodes and {len(taxonomy['disconnected'])} "
                    f"disconnected tags do not partition {oracle.eligible_tags} eligible tags")
    problems.expect(_in(taxonomy["annotation_coverage"], 0, 1), f"{path.name}: coverage")
    for tag, node in nodes.items():
        parent = node["parent"]
        depth_ok = node["raw_depth"] == 0 if parent is None else (
            parent in nodes and nodes[parent]["raw_depth"] + 1 == node["raw_depth"])
        problems.expect(depth_ok and _in(node["norm_depth"], 0, 1),
                        f"{path.name}: node {tag!r} has a bad parent or depth")


def _depth(path: Path, oracle: Oracle, problems: _Problems) -> None:
    by_mode: dict[str, list[dict]] = {}
    for r in _csv(path):
        by_mode.setdefault(r["mode"], []).append(r)
    problems.expect(set(by_mode) <= {"annotation", "vocabulary"}, f"{path.name}: modes")
    for mode, rows in by_mode.items():
        _binned(problems, f"{path.name} {mode}", rows, 0, 1)


def _ingest_lines(path: Path, oracle: Oracle, problems: _Problems) -> None:
    lines = digest = 0
    # streamed, so that this process stays small (see workloads.set_up)
    with open(path, encoding="utf-8", newline="") as fh:
        for line in fh:
            lines += 1
            digest += line_digest(line)
    problems.expect(lines == oracle.triples,
                    f"{path.name}: {lines} lines, expected {oracle.triples} distinct triples")
    problems.expect(digest & _MASK == oracle.triples_digest,
                    f"{path.name}: lines differ from the earliest instance of each triple")


def _ingest_summary(path: Path, oracle: Oracle, problems: _Problems) -> None:
    payload = _summary_counts(problems, path, oracle, oracle.triples)
    problems.expect(payload["malformed_lines"] == 0, f"{path.name}: malformed lines reported")


# command -> {output path relative to the run's output directory: check}
FILE_CHECKS = {
    "report": {
        "bundle/summary.json": _bundle_summary,
        "bundle/partition.json": _partition,
        "bundle/partition_summary.csv": _partition_summary,
        "bundle/pareto.csv": _pareto,
        "bundle/tag_usage_dist.csv": _usage(cumulative=False),
        "bundle/item_usage_dist.csv": _usage(cumulative=True),
        "bundle/tag_similarity.csv": _similarity,
        "bundle/item_similarity.csv": _similarity,
        "bundle/consensus.csv": _consensus,
        "bundle/motivation_binned.csv": _motivation,
        "bundle/spear_binned.csv": _spear,
        "bundle/consensus_expertise_binned.csv": _consensus_expertise,
        "bundle/taxonomy.json": _taxonomy,
        "bundle/depth_binned.csv": _depth,
    },
    "spear": {"spear.csv": _spear},
    "ingest": {"ingest.tsv": _ingest_lines, "summary.json": _ingest_summary},
}


def check_outputs(command: str, out: Path, oracle: Oracle) -> list[str]:
    """Problems found in what `command` wrote under `out`; empty when all checks pass."""
    problems = _Problems()
    expected = set(FILE_CHECKS[command])
    written = {str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()}
    problems.expect(written == expected,
                    f"output files differ: missing {sorted(expected - written)}, "
                    f"extra {sorted(written - expected)}")
    for name, check in FILE_CHECKS[command].items():
        if name not in written:
            continue
        try:
            check(out / name, oracle, problems)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            problems.append(f"{name}: unreadable: {type(exc).__name__}: {exc}")
    return problems
