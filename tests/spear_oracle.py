"""SPEAR references: the implementations the batched kernel and its fast paths replaced.

`credit_matrix` counts later taggers with a bisect over each item's sorted
timestamps; `spear_scores` runs one tag's power iteration with whole-vector
`np.sum` normalization. Tests compare the batched kernel against both.
`batch_of`, `entries` and `results` translate between these dict views and
the batch API, whose codes index name lists: an index's columns, or the
`Names` that `batch_of` returns.

`eligible_tags`, `credit_batch` and `user_mean_z` are the batch functions
as they were before their steps were rebuilt around int64 sort keys and
z-scores by blocks of tags: `np.unique` over (tag, user) keys, multi-key
`np.lexsort`s, and one 1-D z-transform per tag. The rebuilt functions must
return the same arrays, bit for bit.
"""

from bisect import bisect_right
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from corpus_oracle import views
from folkmetrics.corpus import _run_starts
from folkmetrics.spear import CreditBatch, _run_ends, _slots, spear_scores as batch_scores


@dataclass(frozen=True)
class CreditMatrix:
    """Discoverer credit per (user, item) for one tag."""

    tag: str
    exponent: float
    entries: Mapping[tuple[str, str], float]


@dataclass(frozen=True)
class SpearResult:
    """Fixed point of the mutual-reinforcement iteration for one tag."""

    tag: str
    user_scores: Mapping[str, float]
    item_scores: Mapping[str, float]
    iterations: int
    converged: bool


class Names(NamedTuple):
    """The names of tag, user and item codes, in code order."""

    tags: list
    users: list
    items: list


def batch_of(entries, tag="t"):
    """A one-tag CreditBatch of {(user, item): credit}, whatever order the entries come in, and
    the Names of its codes."""
    users = sorted({u for u, _ in entries})
    items = sorted({i for _, i in entries})
    u_idx = {u: k for k, u in enumerate(users)}
    i_idx = {i: k for k, i in enumerate(items)}
    cells = sorted((u_idx[u], i_idx[i], c) for (u, i), c in entries.items())
    uu, ii, cc = (np.array(column) for column in zip(*cells))
    batch = CreditBatch(np.array([0]), np.array([0, len(users)]), np.arange(len(users)),
                        np.array([0, len(items)]), np.arange(len(items)),
                        np.array([0, len(cells)]), uu, ii, cc)
    return batch, Names([tag], users, items)


def entries(batch, names, k=0):
    """{(user, item): credit} of the batch's k-th tag, in the batch's entry order."""
    span = slice(batch.offsets[k], batch.offsets[k + 1])
    users = [names.users[c] for c in batch.user_code[batch.user[span]]]
    items = [names.items[c] for c in batch.item_code[batch.item[span]]]
    return dict(zip(zip(users, items), batch.credit[span].tolist()))


def results(scored, names):
    """{tag name: SpearResult} of a SpearBatch."""
    credits = scored.credits
    users = [names.users[c] for c in credits.user_code]
    items = [names.items[c] for c in credits.item_code]
    out = {}
    for k, tag in enumerate(names.tags[t] for t in credits.tags.tolist()):
        u = slice(credits.user_offsets[k], credits.user_offsets[k + 1])
        i = slice(credits.item_offsets[k], credits.item_offsets[k + 1])
        out[tag] = SpearResult(tag, dict(zip(users[u], scored.user_score[u].tolist())),
                               dict(zip(items[i], scored.item_score[i].tolist())),
                               int(scored.tag_iterations[k]), bool(scored.tag_converged[k]))
    return out


def credit_matrix(index, tag, exponent=0.5):
    earliest = {}
    index = views(index)
    for pos in index.by_tag[tag]:
        a = index.annotations[pos]
        key = (a.user, a.item)
        t = earliest.get(key)
        if t is None or a.time < t:
            earliest[key] = a.time

    by_item = {}
    for (user, item), t in earliest.items():
        by_item.setdefault(item, []).append((user, t))

    entries = {}
    for item, taggers in by_item.items():
        times = sorted(t for _, t in taggers)
        n = len(times)
        for user, t in taggers:
            later = n - bisect_right(times, t)
            entries[(user, item)] = float(1 + later) ** exponent
    return CreditMatrix(tag=tag, exponent=exponent, entries=entries)


def spear_scores(credit, tolerance=1e-8, max_iter=250):
    users = sorted({u for u, _ in credit.entries})
    items = sorted({i for _, i in credit.entries})
    u_idx = {u: k for k, u in enumerate(users)}
    i_idx = {i: k for k, i in enumerate(items)}
    uu = np.array([u_idx[u] for u, _ in credit.entries], dtype=np.intp)
    ii = np.array([i_idx[i] for _, i in credit.entries], dtype=np.intp)
    cc = np.array(list(credit.entries.values()), dtype=float)
    order = np.lexsort((ii, uu))
    uu, ii, cc = uu[order], ii[order], cc[order]

    e = np.full(len(users), 1.0 / len(users))
    q = np.full(len(items), 1.0 / len(items))
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        e_new = np.bincount(uu, weights=cc * q[ii], minlength=len(users))
        e_new /= e_new.sum()
        q = np.bincount(ii, weights=cc * e_new[uu], minlength=len(items))
        q /= q.sum()
        delta = float(np.max(np.abs(e_new - e)))
        e = e_new
        if delta < tolerance:
            converged = True
            break
    return SpearResult(
        tag=credit.tag,
        user_scores=dict(zip(users, e.tolist())),
        item_scores=dict(zip(items, q.tolist())),
        iterations=iterations,
        converged=converged,
    )


def mean_z(index, tags, exponent=0.5, tolerance=1e-8, max_iter=250):
    """{user: mean of the user's per-tag population z-scores} over the tags, tag by tag."""
    per_user = {}
    for tag in tags:
        result = spear_scores(credit_matrix(index, tag, exponent), tolerance, max_iter)
        users = sorted(result.user_scores)
        scores = np.array([result.user_scores[u] for u in users])
        equal = np.all(scores == scores[0])
        z = np.zeros_like(scores) if equal else (scores - scores.mean()) / scores.std(ddof=0)
        for user, value in zip(users, z.tolist()):
            per_user.setdefault(user, []).append(value)
    return {user: float(np.mean(values)) for user, values in per_user.items()}


def eligible_tags(index, top_k=10_000, min_users=10):
    """The top_k most-annotated tags having at least min_users distinct users."""
    columns = index.columns
    n_users = len(columns.users)
    counts = np.bincount(columns.tag, minlength=len(columns.tags))
    ranked = np.argsort(-counts, kind="stable")[:top_k]
    pairs = np.unique(columns.tag.astype(np.int64) * n_users + columns.user)
    users = np.bincount(pairs // n_users, minlength=len(columns.tags))
    return {columns.tags[k] for k in ranked[users[ranked] >= min_users].tolist()}


def credit_batch(index, tags, exponent=0.5):
    """The CreditBatch of the named tags, from stable multi-key lexsorts."""
    columns = index.columns
    code = {name: k for k, name in enumerate(columns.tags)}
    # each annotation's position in tags, -1 for a tag not listed
    position = np.full(len(columns.tags), -1, dtype=np.int32)
    codes = np.array([code[tag] for tag in tags], dtype=np.int64)
    position[codes] = np.arange(len(tags))
    rows = position[columns.tag] >= 0
    tag = position[columns.tag[rows]]
    user, item, time = columns.user[rows], columns.item[rows], columns.time[rows]
    order = np.lexsort((time, item, user, tag))
    first = order[_run_starts(tag[order], user[order], item[order])]
    tag, user, item, time = tag[first], user[first], item[first], time[first]
    user_slot, user_code, user_offsets = _slots(tag, user, _run_starts(tag, user), len(tags))
    order = np.lexsort((time, item, tag))
    same_item = _run_starts(tag[order], item[order])
    item_slot, later = np.empty_like(order), np.empty_like(order)
    item_slot[order], item_code, item_offsets = _slots(tag[order], item[order], same_item,
                                                       len(tags))
    later[order] = _run_ends(same_item) - _run_ends(same_item | _run_starts(time[order]))
    power = np.array([float(1 + k) ** exponent for k in range(int(later.max(initial=0)) + 1)])
    offsets = np.searchsorted(tag, np.arange(len(tags) + 1))
    return CreditBatch(codes, user_offsets, user_code, item_offsets, item_code, offsets,
                       user_slot, item_slot, power[later])


def user_mean_z(index, top_k=10_000, min_users=10, exponent=0.5, tolerance=1e-8, max_iter=250):
    """Mean per-tag z-score of every user by user code, one 1-D z-transform per tag."""
    tags = sorted(eligible_tags(index, top_k, min_users))
    scored = batch_scores(credit_batch(index, tags, exponent), tolerance, max_iter)
    credits = scored.credits
    offsets, n_users = credits.user_offsets, len(index.columns.users)
    z = []
    for a, b in zip(offsets, offsets[1:]):
        values = scored.user_score[a:b]
        equal = np.all(values == values[:1])
        z.append(np.zeros_like(values) if equal else (values - values.mean()) / values.std(ddof=0))
    z = np.concatenate(z)
    sums = np.bincount(credits.user_code, weights=z, minlength=n_users)
    counts = np.bincount(credits.user_code, minlength=n_users)
    return np.divide(sums, counts, out=np.full(n_users, np.nan), where=counts > 0)
