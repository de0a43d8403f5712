"""Per-tag, dict-based SPEAR reference: the implementation the batched kernel replaced.

`credit_matrix` counts later taggers with a bisect over each item's sorted
timestamps; `spear_scores` runs one tag's power iteration with whole-vector
`np.sum` normalization. Tests compare the batched kernel against both.
"""

from bisect import bisect_right

import numpy as np

from corpus_oracle import views
from folkmetrics.spear import CreditMatrix, SpearResult


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
