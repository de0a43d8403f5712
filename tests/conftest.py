import numpy as np
import pytest

from folkmetrics.corpus import Annotation, TimeGranularity, _item_tag_users, build_index


def make_annotations(rows):
    """rows of (user, item, tag, time) -> list of Annotation."""
    return [Annotation(u, i, t, tm) for u, i, t, tm in rows]


def make_index(rows, dedupe=False, granularity=TimeGranularity.SECONDS):
    return build_index(make_annotations(rows), dedupe=dedupe, granularity=granularity)


def user_mask(index, names):
    """The bool mask by user code that selects the named users."""
    return np.array([user in names for user in index.columns.users], dtype=bool)


def code(index, user):
    """The code of the named user: the position of the name in the sorted user names."""
    return index.columns.users.index(user)


def item_tag_freq(index):
    """{(item, tag): distinct users} as the analyses count them."""
    c = index.columns
    item, tag, users = _item_tag_users(c)
    return {(c.items[i], c.tags[t]): n for i, t, n in zip(item.tolist(), tag.tolist(), users.tolist())}


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
