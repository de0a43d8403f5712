"""Dict-based parser and index: the implementation the columnar load path replaced.

`parse_annotations` builds one `Annotation` per line; `build_index` dedupes
with a dict of earliest times and groups positions in dicts of lists. Tests
compare the columnar `folkmetrics.corpus` against both, and read the dict
views of an index through `views`.
"""

from dataclasses import dataclass
from typing import Mapping

from folkmetrics.corpus import Annotation
from folkmetrics.errors import FormatError


@dataclass(frozen=True)
class ParseResult:
    annotations: list
    malformed: int


@dataclass(frozen=True)
class Index:
    annotations: tuple
    by_user: Mapping[str, tuple]
    by_item: Mapping[str, tuple]
    by_tag: Mapping[str, tuple]
    item_tag_freq: Mapping[tuple, int]
    user_annotation_count: Mapping[str, int]


def parse_annotations(lines, delimiter="\t", header=False):
    annotations = []
    malformed = 0
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
        # a time is a run of ASCII digits below 2**63
        if (not user or not item or not tag or not (stamp.isdigit() and stamp.isascii())
                or int(stamp) >= 2**63):
            malformed += 1
            continue
        annotations.append(Annotation(user, item, tag, int(stamp)))
    total = len(annotations) + malformed
    if total > 0 and malformed * 2 > total:
        raise FormatError(f"{malformed} of {total} lines malformed; wrong delimiter spec?")
    return ParseResult(annotations, malformed)


def build_index(annotations, dedupe=False):
    if dedupe:
        earliest = {}
        order = []
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

    by_user, by_item, by_tag = {}, {}, {}
    for pos, a in enumerate(kept):
        by_user.setdefault(a.user, []).append(pos)
        by_item.setdefault(a.item, []).append(pos)
        by_tag.setdefault(a.tag, []).append(pos)

    item_tag_freq = {}
    for item, positions in by_item.items():
        seen = set()
        for pos in positions:
            a = kept[pos]
            pair = (a.tag, a.user)
            if pair not in seen:
                seen.add(pair)
                key = (item, a.tag)
                item_tag_freq[key] = item_tag_freq.get(key, 0) + 1

    return Index(
        annotations=kept,
        by_user={u: tuple(p) for u, p in by_user.items()},
        by_item={i: tuple(p) for i, p in by_item.items()},
        by_tag={t: tuple(p) for t, p in by_tag.items()},
        item_tag_freq=item_tag_freq,
        user_annotation_count={u: len(p) for u, p in by_user.items()},
    )


def views(index):
    """The dict views of a FolksonomyIndex, grouped by the reference over its annotations."""
    return build_index(list(index.columns))
