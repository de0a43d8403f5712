"""Dict-based analyses: the loop implementations the columnar ones replaced.

Each function reads the dict views of an index (`corpus_oracle.views`) and
visits users, items and a user's items and tags in name order, which is the
columnar code's code order, so both add up their floats in the same order
and must agree exactly. Sums are plain loops, not `sum()`, whose float
summation differs between Python versions.

The references name users, tags and items: a group is a set of user names,
a frequency distribution a {name: count} dict, and a conditional table or
taxonomy forest a NamedTable or NamedForest of dicts by tag name. `named`
translates the library's user-code masks, count arrays, tables and forests
into these forms, and `forest_on` a NamedForest back into tag codes.
"""

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Optional

import numpy as np

from corpus_oracle import views
from folkmetrics.consensus import ConsensusSeries
from folkmetrics.partition import GroupSummary, Partition, PartitionSummary
from folkmetrics.similarity import CORE_RHO_TOLERANCE, CurvePoint, FreqDist, SimilarityCurve
from folkmetrics.stats import binned_mean, median_iqr, rank_descending
from folkmetrics.taxonomy import ConditionalTable, TaxonomyForest
from folkmetrics.errors import DomainError, UndefinedCorrelationError


def cosine(x, y):
    """Cosine of the angle between two vectors, dot(x,y)/(|x||y|)."""
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.shape != ya.shape:
        raise DomainError(f"length mismatch: {xa.shape} vs {ya.shape}")
    nx = math.sqrt(float(xa @ xa))
    ny = math.sqrt(float(ya @ ya))
    if nx == 0.0 or ny == 0.0:
        raise DomainError("cosine undefined for a zero vector")
    return float(xa @ ya) / (nx * ny)


def _sum(values):
    total = 0.0
    for value in values:
        total += value
    return total


class NamedPartition(NamedTuple):
    supertaggers: frozenset
    others: frozenset
    annotation_threshold: int
    target_fraction: float


class NamedTable(NamedTuple):
    """A ConditionalTable by tag name: probs holds both directions of every retained pair,
    support the item count under the sorted pair, tag_items the listed tags' item counts."""

    tags: frozenset
    probs: Mapping[tuple[str, str], float]
    support: Mapping[tuple[str, str], int]
    tag_items: Mapping[str, int]


class NamedForest(NamedTuple):
    """A TaxonomyForest by tag name: parent is None for a root; the dicts hold the nodes only."""

    nodes: frozenset
    parent: Mapping[str, Optional[str]]
    raw_depth: Mapping[str, int]
    norm_depth: Mapping[str, float]
    disconnected: frozenset


def named(index, value):
    """value with names for codes.

    A Partition becomes a NamedPartition, a FreqDist the {name: count} dict
    of its used keys, a bool mask by user code the frozenset of the user
    names it selects, and an array of user codes the list of their names.
    A ConditionalTable becomes a NamedTable and a TaxonomyForest a
    NamedForest, named by the tag names they carry.
    """
    if isinstance(value, ConditionalTable):
        names, tags = value.tag_names, value.tags.tolist()
        probs, support = {}, {}
        for a, b, count, p_ab, p_ba in zip(value.a.tolist(), value.b.tolist(),
                                           value.support.tolist(), value.p_ab.tolist(),
                                           value.p_ba.tolist()):
            support[(names[a], names[b])] = count
            probs[(names[a], names[b])] = p_ab
            probs[(names[b], names[a])] = p_ba
        return NamedTable(frozenset(names[t] for t in tags), probs, support,
                          {names[t]: int(value.tag_items[t]) for t in tags})
    if isinstance(value, TaxonomyForest):
        names, nodes = value.tag_names, value.nodes.tolist()
        parent = value.parent.tolist()
        return NamedForest(frozenset(names[t] for t in nodes),
                           {names[t]: None if parent[t] < 0 else names[parent[t]] for t in nodes},
                           {names[t]: int(value.raw_depth[t]) for t in nodes},
                           {names[t]: float(value.norm_depth[t]) for t in nodes},
                           frozenset(names[t] for t in value.disconnected.tolist()))
    c = index.columns
    if isinstance(value, Partition):
        supertaggers = named(index, value.supertagger)
        return NamedPartition(supertaggers, frozenset(c.users) - supertaggers,
                              value.annotation_threshold, value.target_fraction)
    if isinstance(value, FreqDist):
        keys = c.tags if value.dimension == "tag" else c.items
        return {keys[k]: int(value.counts[k]) for k in np.flatnonzero(value.counts)}
    value = np.asarray(value)
    if value.dtype == bool:
        return frozenset(c.users[k] for k in np.flatnonzero(value))
    return [c.users[k] for k in value.tolist()]


def forest_on(index, forest):
    """The NamedForest as a TaxonomyForest by the index's tag codes, to score that index.

    Tags the index lacks are left out; a node whose parent the index lacks becomes a root
    there, keeping its depths.
    """
    tags = index.columns.tags
    code = {tag: k for k, tag in enumerate(tags)}
    parent = np.full(len(tags), -1)
    raw_depth = np.zeros(len(tags), dtype=np.int64)
    norm_depth = np.full(len(tags), np.nan)
    for tag in forest.nodes & code.keys():
        parent[code[tag]] = code.get(forest.parent[tag], -1)
        raw_depth[code[tag]] = forest.raw_depth[tag]
        norm_depth[code[tag]] = forest.norm_depth[tag]
    nodes, disconnected = (np.array(sorted(code[t] for t in group & code.keys()), dtype=np.int64)
                           for group in (forest.nodes, forest.disconnected))
    return TaxonomyForest(tags, nodes, disconnected, parent, raw_depth, norm_depth)


def rank_users(index):
    counts = views(index).user_annotation_count
    return sorted(counts, key=lambda u: (-counts[u], u))


def split_supertaggers(index, target_fraction):
    counts = views(index).user_annotation_count
    ranked = rank_users(index)
    target = target_fraction * index.n_annotations
    running = cut = 0
    for cut, user in enumerate(ranked, start=1):
        running += counts[user]
        if running >= target:
            break
    return NamedPartition(frozenset(ranked[:cut]), frozenset(ranked[cut:]),
                          counts[ranked[cut - 1]], target_fraction)


def partition_summary(index, partition):
    v = views(index)

    def vocab(users):
        tags, items = set(), set()
        for user in users:
            for pos in v.by_user[user]:
                tags.add(v.annotations[pos].tag)
                items.add(v.annotations[pos].item)
        return tags, items

    def group(users, tags, items, other_tags, other_items):
        per_user = [(len(v.by_user[u]), len({v.annotations[p].tag for p in v.by_user[u]}),
                     len({v.annotations[p].item for p in v.by_user[u]})) for u in users]
        medians = [median_iqr(column) if per_user else None for column in zip(*per_user)]
        return GroupSummary(len(users), sum(n for n, _, _ in per_user), len(tags),
                            len(tags - other_tags), len(items), len(items - other_items),
                            *(medians or [None] * 3))

    s_tags, s_items = vocab(partition.supertaggers)
    o_tags, o_items = vocab(partition.others)
    return PartitionSummary(group(partition.supertaggers, s_tags, s_items, o_tags, o_items),
                            group(partition.others, o_tags, o_items, s_tags, s_items),
                            len(s_tags & o_tags), len(s_items & o_items))


def freq_dist(index, users, dimension):
    v = views(index)
    counts = {}
    for user in users:
        for pos in v.by_user[user]:
            a = v.annotations[pos]
            key = a.tag if dimension == "tag" else a.item
            counts[key] = counts.get(key, 0) + 1
    return counts


def _sorted_keys(counts):
    return sorted(counts, key=lambda k: (-counts[k], k))


def _spearman_tops(top_a, vals_a, top_b, vals_b, n):
    union = sorted(set(top_a) | set(top_b))
    if len(union) < 2:
        raise UndefinedCorrelationError("top-N union has fewer than two keys")
    ranks_a = dict(zip(top_a, rank_descending(vals_a)))
    ranks_b = dict(zip(top_b, rank_descending(vals_b)))
    vec_a = np.array([ranks_a.get(k, float(n + 1)) for k in union])
    vec_b = np.array([ranks_b.get(k, float(n + 1)) for k in union])
    if np.ptp(vec_a) == 0.0 or np.ptp(vec_b) == 0.0:
        raise UndefinedCorrelationError("constant rank vector")
    if np.array_equal(vec_a, vec_b):
        return 1.0
    return float(np.corrcoef(vec_a, vec_b)[0, 1])


def _cosine_tops(top_a, counts_a, top_b, counts_b):
    union = sorted(set(top_a) | set(top_b))
    return cosine([counts_a[k] if k in set(top_a) else 0 for k in union],
                  [counts_b[k] if k in set(top_b) else 0 for k in union])


def spearman_topn(counts_a, counts_b, n):
    top_a, top_b = _sorted_keys(counts_a)[:n], _sorted_keys(counts_b)[:n]
    return _spearman_tops(top_a, [counts_a[k] for k in top_a],
                          top_b, [counts_b[k] for k in top_b], n)


def cosine_topn(counts_a, counts_b, n):
    return _cosine_tops(_sorted_keys(counts_a)[:n], counts_a,
                        _sorted_keys(counts_b)[:n], counts_b)


def similarity_curve(index, partition, dimension, n_values):
    v = views(index)
    dist_s = freq_dist(index, partition.supertaggers, dimension)
    dist_o = freq_dist(index, partition.others, dimension)
    full = v.by_tag if dimension == "tag" else v.by_item
    sorted_s, sorted_o = _sorted_keys(dist_s), _sorted_keys(dist_o)
    covered, covered_annotations, prev_n, points = set(), 0, 0, []
    for n in sorted(set(n_values)):
        for key in sorted_s[prev_n:n] + sorted_o[prev_n:n]:
            if key not in covered:
                covered.add(key)
                covered_annotations += len(full[key])
        prev_n = n
        try:
            rho = spearman_topn(dist_s, dist_o, n)
        except UndefinedCorrelationError:
            continue
        points.append(CurvePoint(n, rho, cosine_topn(dist_s, dist_o, n),
                                 covered_annotations / index.n_annotations))
    core = None
    if points:
        best = max(p.rho for p in points)
        core = next(p.n for p in points if p.rho >= best - CORE_RHO_TOLERANCE)
    return SimilarityCurve(dimension, tuple(points), core)


def exogenous_popularity_diff(index, partition, popularity, spec):
    v = views(index)
    keys, diffs = [], []
    for item, positions in sorted(v.by_item.items()):
        if item in popularity:
            s = sum(1 for pos in positions if v.annotations[pos].user in partition.supertaggers)
            keys.append(float(popularity[item]))
            diffs.append(float(s - (len(positions) - s)))
    return binned_mean(np.array(keys), np.array(diffs), spec)


@dataclass(frozen=True)
class TagDistribution:
    """Distinct-user count per tag for one item within one group."""

    item: str
    counts: Mapping[str, int]


def _top_tag(dist: TagDistribution) -> str:
    # lexicographically first among the most popular tags
    best = max(dist.counts.values())
    return min(t for t, c in dist.counts.items() if c == best)


def top_tag_match(
    s_dist: Optional[TagDistribution], o_dist: Optional[TagDistribution]
) -> Optional[bool]:
    """True iff both groups' most popular tag for the item coincides.

    Returns None (not applicable) when the item is untagged in either
    group; such items are excluded from averages.
    """
    if s_dist is None or o_dist is None or not s_dist.counts or not o_dist.counts:
        return None
    return _top_tag(s_dist) == _top_tag(o_dist)


def item_cosine(
    s_dist: Optional[TagDistribution], o_dist: Optional[TagDistribution]
) -> Optional[float]:
    """Cosine between the two groups' tag distributions over the union vocabulary."""
    if s_dist is None or o_dist is None or not s_dist.counts or not o_dist.counts:
        return None
    vocab = sorted(set(s_dist.counts) | set(o_dist.counts))
    return cosine(
        [s_dist.counts.get(t, 0) for t in vocab],
        [o_dist.counts.get(t, 0) for t in vocab],
    )


def item_tag_distribution(index, users, item):
    v = views(index)
    seen, counts = set(), {}
    for pos in v.by_item.get(item, ()):
        a = v.annotations[pos]
        if a.user in users and (a.tag, a.user) not in seen:
            seen.add((a.tag, a.user))
            counts[a.tag] = counts.get(a.tag, 0) + 1
    return TagDistribution(item, counts) if counts else None


def consensus_by_bin(index, partition, spec):
    v = views(index)
    keys, matches, cosines = [], [], []
    for item, positions in sorted(v.by_item.items()):
        s_dist = item_tag_distribution(index, partition.supertaggers, item)
        o_dist = item_tag_distribution(index, partition.others, item)
        match = top_tag_match(s_dist, o_dist)
        if match is not None:
            keys.append(float(len(positions)))
            matches.append(float(match))
            cosines.append(item_cosine(s_dist, o_dist))
    keys = np.array(keys)
    return ConsensusSeries(binned_mean(keys, np.array(matches), spec),
                           binned_mean(keys, np.array(cosines), spec), len(keys))


def _binned(index, scores, spec):
    """The {user: score} values binned by the user's annotation count, in the dict's order."""
    v = views(index)
    return binned_mean(np.array([float(len(v.by_user[user])) for user in scores]),
                       np.array(list(scores.values()), dtype=float), spec)


def motivation(index, divisor):
    """{user: (tpp, trr, orphan ratio)} for every user."""
    v = views(index)
    scores = {}
    for user, positions in sorted(v.by_user.items()):
        pairs, items, usage = set(), set(), {}
        for pos in positions:
            a = v.annotations[pos]
            pairs.add((a.item, a.tag))
            items.add(a.item)
            usage.setdefault(a.tag, set()).add(a.item)
        sizes = [len(i) for i in usage.values()]
        top = max(sizes)
        orphan = 1.0 if top <= divisor else (
            sum(1 for s in sizes if s <= math.ceil(top / divisor)) / len(sizes))
        scores[user] = (len(pairs) / len(items), len(usage) / len(items), orphan)
    return scores


def motivation_by_bin(index, spec, divisor):
    """The TPP, TRR and orphan-ratio series."""
    scores = motivation(index, divisor)
    return tuple(_binned(index, {user: s[k] for user, s in scores.items()}, spec)
                 for k in range(3))


def consensus_expertise(index):
    """{user: consensus expertise} for every user whose score is defined."""
    v = views(index)
    freq = {}
    for item, positions in v.by_item.items():
        f, seen = {}, set()
        for pos in positions:
            a = v.annotations[pos]
            if (a.tag, a.user) not in seen:
                seen.add((a.tag, a.user))
                f[a.tag] = f.get(a.tag, 0) + 1
        freq[item] = f
    scores = {}
    for user, positions in sorted(v.by_user.items()):
        user_items = {}
        for pos in positions:
            user_items.setdefault(v.annotations[pos].item, []).append(v.annotations[pos].tag)
        weighted = weight_sum = 0.0
        for item, tag_list in sorted(user_items.items()):
            f = freq[item]
            best_f, total = max(f.values()), sum(f.values())
            argument = total - len(set(tag_list))
            if argument <= 0:
                continue
            w = math.log10(argument)
            best = max(1.0 if f[t] == best_f else (f[t] - 1) / best_f for t in set(tag_list))
            weighted += best * w
            weight_sum += w
        if weight_sum != 0.0:
            scores[user] = weighted / weight_sum
    return scores


def consensus_expertise_by_bin(index, spec):
    return _binned(index, consensus_expertise(index), spec)


def conditional_table(index, tags, min_support):
    v = views(index)
    tag_list = sorted(set(tags))
    items = {t: {v.annotations[p].item for p in v.by_tag[t]} for t in tag_list}
    probs, support = {}, {}
    for k, a in enumerate(tag_list):
        for b in tag_list[k + 1:]:
            both = len(items[a] & items[b])
            if both >= min_support:
                support[(a, b)] = both
                probs[(a, b)] = both / len(items[b])
                probs[(b, a)] = both / len(items[a])
    return NamedTable(frozenset(tag_list), probs, support, {t: len(items[t]) for t in tag_list})


def depth_expertise(index, forest, mode):
    """{user: mean normalized tag depth of the NamedForest} for every user with a connected tag.

    Annotation mode adds each tag's depth times its uses by the user, vocabulary mode each
    tag's depth once."""
    v = views(index)
    depths = forest.norm_depth
    scores = {}
    for user, positions in sorted(v.by_user.items()):
        uses = {}
        for pos in positions:
            tag = v.annotations[pos].tag
            uses[tag] = uses.get(tag, 0) + 1
        weights = {t: uses[t] if mode == "annotation" else 1 for t in sorted(uses) if t in depths}
        if weights:
            scores[user] = _sum(depths[t] * w for t, w in weights.items()) / _sum(weights.values())
    return scores


def depth_by_bin(index, forest, spec, mode):
    return _binned(index, depth_expertise(index, forest, mode), spec)
