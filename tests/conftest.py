import io

import numpy as np
import pytest

from folkmetrics.corpus import Annotation, build_index, parse_annotations


def make_annotations(rows):
    """rows of (user, item, tag, time) -> list of Annotation."""
    return [Annotation(u, i, t, tm) for u, i, t, tm in rows]


def make_columns(rows):
    """The columns parse_annotations gives for the rows as tab-separated lines. Each row must
    parse to itself: four well-formed fields, names trimmed, tags lowercase and a time in
    [0, 2**63)."""
    assert all(0 <= tm < 2**63 for *_, tm in rows), "a time outside [0, 2**63) is malformed"
    text = "".join(f"{u}\t{i}\t{t}\t{tm}\n" for u, i, t, tm in rows)
    columns = parse_annotations(io.StringIO(text)).annotations
    assert list(columns) == make_annotations(rows)
    return columns


def make_index(rows, dedupe=False):
    return build_index(make_columns(rows), dedupe=dedupe)


def user_mask(index, names):
    """The bool mask by user code that selects the named users."""
    return np.array([user in names for user in index.columns.users], dtype=bool)


def code(index, user):
    """The code of the named user: the position of the name in the sorted user names."""
    return index.columns.users.index(user)


def tag_codes(index, names):
    """The codes of the named tags, in the given order: the names' positions in the sorted tag
    names, once every name is known to be one of them."""
    tags = index.columns.tags
    assert set(names) <= set(tags), sorted(set(names) - set(tags))
    return np.searchsorted(tags, names)


def tag_names(index, codes):
    """The set of the names of the tag codes."""
    return {index.columns.tags[k] for k in codes.tolist()}


def popularity_by_code(index, popularity):
    """{item: popularity} as an array by item code, NaN for an item it does not list."""
    return np.array([popularity.get(item, np.nan) for item in index.columns.items], dtype=float)


def item_tag_freq(index):
    """{(item, tag): distinct users} as the analyses count them."""
    c = index.columns
    item, tag, pair_of_triple = index.item_tags
    users = np.bincount(pair_of_triple, minlength=len(item))
    return {(c.items[i], c.tags[t]): n
            for i, t, n in zip(item.tolist(), tag.tolist(), users.tolist())}


@pytest.fixture
def four_user_index():
    """Annotation counts 10/5/3/2 across users a/b/c/d (fraction-0.5 fixture)."""
    rows = []
    for k in range(10):
        rows.append(("a", f"i{k}", "rock", k))
    for k in range(5):
        rows.append(("b", f"i{k}", "jazz", k))
    for k in range(3):
        rows.append(("c", f"i{k}", "pop", k))
    for k in range(2):
        rows.append(("d", f"i{k}", "folk", k))
    return make_index(rows)


def random_rows(rng, n_users=30, n_items=40, n_tags=15, n_annotations=400, time_span=50):
    """Small random corpus for oracle comparisons."""
    users = [f"u{k}" for k in range(n_users)]
    items = [f"i{k}" for k in range(n_items)]
    tags = [f"t{k}" for k in range(n_tags)]
    rows = []
    for _ in range(n_annotations):
        rows.append(
            (
                users[rng.integers(n_users)],
                items[rng.integers(n_items)],
                tags[rng.integers(n_tags)],
                int(rng.integers(time_span)),
            )
        )
    return rows
