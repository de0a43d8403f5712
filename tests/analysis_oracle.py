"""Dict-based analyses: the loop implementations the columnar ones replaced.

Each function reads the dict views of an index (`corpus_oracle.views`) and
visits users and items in the order of their first annotation, as the
columnar code does, so both add up their floats in the same order and must
agree exactly. Sums are plain loops, not `sum()`, whose float summation
differs between Python versions; vocabulary-mode depth adds a user's tags
in name order.

The references name users, tags and items: a group is a set of user names
and a frequency distribution a {name: count} dict. `named` translates the
library's user-code masks and count arrays into these forms.
"""

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Optional

import numpy as np

from corpus_oracle import views
from folkmetrics.consensus import ConsensusSeries
from folkmetrics.motivation import MotivationSeries
from folkmetrics.partition import GroupSummary, Partition, PartitionSummary
from folkmetrics.similarity import CurvePoint, FreqDist, SimilarityCurve
from folkmetrics.stats import binned_mean, cosine, median_iqr, rank_descending
from folkmetrics.taxonomy import ConditionalTable
from folkmetrics.errors import UndefinedCorrelationError


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


def named(index, value):
    """value with names for codes.

    A Partition becomes a NamedPartition, a FreqDist the {name: count} dict
    of its used keys, a bool mask by user code the frozenset of the user
    names it selects, and an array of user codes the list of their names.
    """
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
        core = next(p.n for p in points if p.rho == best)
    return SimilarityCurve(dimension, tuple(points), core)


def exogenous_popularity_diff(index, partition, popularity, spec):
    v = views(index)
    pairs = []
    for item, positions in v.by_item.items():
        if item in popularity:
            s = sum(1 for pos in positions if v.annotations[pos].user in partition.supertaggers)
            pairs.append((float(popularity[item]), float(s - (len(positions) - s))))
    return binned_mean(pairs, spec)


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
    match_pairs, cos_pairs = [], []
    for item, positions in v.by_item.items():
        s_dist = item_tag_distribution(index, partition.supertaggers, item)
        o_dist = item_tag_distribution(index, partition.others, item)
        match = top_tag_match(s_dist, o_dist)
        if match is not None:
            match_pairs.append((float(len(positions)), float(match)))
            cos_pairs.append((float(len(positions)), item_cosine(s_dist, o_dist)))
    return ConsensusSeries(binned_mean(match_pairs, spec), binned_mean(cos_pairs, spec),
                           len(match_pairs))


def _binned(index, scores, spec):
    """The {user: score} values binned by the user's annotation count, in the dict's order."""
    v = views(index)
    return binned_mean([(float(len(v.by_user[user])), score) for user, score in scores.items()],
                       spec)


def motivation(index, divisor):
    """{user: (tpp, trr, orphan ratio)} for every user."""
    v = views(index)
    scores = {}
    for user, positions in v.by_user.items():
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
    scores = motivation(index, divisor)
    return MotivationSeries(*(_binned(index, {user: s[k] for user, s in scores.items()}, spec)
                              for k in range(3)))


def consensus_expertise(index, raw_counts=False):
    """{user: consensus expertise} for every user whose score is defined."""
    v = views(index)
    freq = {}
    for item, positions in v.by_item.items():
        f, seen = {}, set()
        for pos in positions:
            a = v.annotations[pos]
            if raw_counts or (a.tag, a.user) not in seen:
                seen.add((a.tag, a.user))
                f[a.tag] = f.get(a.tag, 0) + 1
        freq[item] = f
    scores = {}
    for user, positions in v.by_user.items():
        user_items = {}
        for pos in positions:
            user_items.setdefault(v.annotations[pos].item, []).append(v.annotations[pos].tag)
        weighted = weight_sum = 0.0
        for item, tag_list in user_items.items():
            f = freq[item]
            best_f, total = max(f.values()), sum(f.values())
            argument = total - (len(tag_list) if raw_counts else len(set(tag_list)))
            if argument <= 0:
                continue
            w = math.log10(argument)
            best = max(1.0 if f[t] == best_f else (f[t] - 1) / best_f for t in set(tag_list))
            weighted += best * w
            weight_sum += w
        if weight_sum != 0.0:
            scores[user] = weighted / weight_sum
    return scores


def consensus_expertise_by_bin(index, spec, raw_counts=False):
    return _binned(index, consensus_expertise(index, raw_counts), spec)


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
    return ConditionalTable(frozenset(tag_list), probs, support,
                            {t: len(items[t]) for t in tag_list})


def depth_expertise(index, forest, mode):
    """{user: mean normalized tag depth} for every user with a connected tag."""
    v = views(index)
    depths = forest.norm_depth
    scores = {}
    for user, positions in v.by_user.items():
        tags = [v.annotations[pos].tag for pos in positions]
        if mode == "vocabulary":
            tags = sorted(set(tags))
        depth_list = [depths[t] for t in tags if t in depths]
        if depth_list:
            scores[user] = _sum(depth_list) / len(depth_list)
    return scores


def depth_by_bin(index, forest, spec, mode):
    return _binned(index, depth_expertise(index, forest, mode), spec)
