"""Annotation datasets: parsing, validation, indexing, and synthesis.

An annotation is a (user, item, tag, time) tuple. Datasets are delimited
UTF-8 text, one annotation per line; timestamps are non-negative integers,
which only order the annotations. Parsed annotations are held as columns:
int32 user, item and tag codes, numbered in sorted name order, and a time
column. The FolksonomyIndex built over them here is the immutable input to
every downstream analysis.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, repeat
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError, FormatError, _check_counts
from .stats import BinSpec, BinnedSeries, MedianIQR, binned_mean, median_iqr

__all__ = [
    "Annotation",
    "AnnotationColumns",
    "CHUNK_LINES",
    "DatasetSummary",
    "FolksonomyIndex",
    "ParseResult",
    "SyntheticConfig",
    "binned_by_user_count",
    "build_index",
    "generate_synthetic",
    "parse_annotations",
    "summary",
    "write_annotations",
]


class Annotation(NamedTuple):
    """One tagging act: user annotated item with tag at time.

    All downstream code assumes user/item/tag are non-empty (tags already
    trimmed and lowercased) and time is a non-negative integer.
    """

    user: str
    item: str
    tag: str
    time: int


class AnnotationColumns:
    """Annotations held as columns rather than one object per annotation.

    user[k], item[k] and tag[k] are int32 codes into the name lists users,
    items and tags. Each list is sorted and holds only names that occur, so
    codes compare as the names do. time is int64, each in [0, 2**63).
    Iteration builds Annotation objects on demand.
    """

    __slots__ = ("user", "item", "tag", "time", "users", "items", "tags")

    def __init__(self, user, item, tag, time, users, items, tags):
        self.user, self.item, self.tag, self.time = user, item, tag, time
        self.users, self.items, self.tags = users, items, tags

    def __len__(self) -> int:
        return len(self.user)

    def __iter__(self) -> Iterator[Annotation]:
        # tuple.__new__ builds each record from its fields without a Python-level call
        return map(tuple.__new__, repeat(Annotation),
                   zip(map(self.users.__getitem__, self.user.tolist()),
                       map(self.items.__getitem__, self.item.tolist()),
                       map(self.tags.__getitem__, self.tag.tolist()), self.time.tolist()))

    def take(self, positions: np.ndarray, time: Optional[np.ndarray] = None) -> "AnnotationColumns":
        """The annotations at positions, with the given times if any; the name lists are shared."""
        return AnnotationColumns(self.user[positions], self.item[positions], self.tag[positions],
                                 self.time[positions] if time is None else time,
                                 self.users, self.items, self.tags)


def _occurring(codes: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Codes from range(n) renumbered in order over the values that occur, and those values."""
    occurs = np.bincount(codes, minlength=n) > 0
    return (np.cumsum(occurs, dtype=np.int32) - 1)[codes], np.flatnonzero(occurs)


@dataclass(frozen=True)
class ParseResult:
    """Well-formed annotations plus a count of rejected lines."""

    annotations: AnnotationColumns
    malformed: int


# A stream is read CHUNK_LINES * 32 bytes (2 MiB) at a time. The parser's working memory
# is bounded by this, not by the size of the input.
CHUNK_LINES = 1 << 16

# a time below 2**63 has at most 19 digits, and any run of 19 digits fits in uint64
_TIME_DIGITS = 19
_POW10 = 10 ** np.arange(_TIME_DIGITS + 1, dtype=np.uint64)
# _PREFIXES[k] keeps the first k bytes of a big-endian uint64
_PREFIXES = np.array([(1 << 64) - (1 << (64 - 8 * k)) for k in range(9)], dtype=np.uint64)


def _utf8(data: bytes, first_line: int) -> bytes:
    """The bytes, if they are UTF-8; else FormatError naming the line of the first bad byte:
    first_line plus the line feeds before it."""
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = first_line + data.count(b"\n", 0, exc.start)
            raise FormatError(f"line {line}: invalid UTF-8 byte {data[exc.start]:#04x}") from None
    return data


def _line_feeds(data: bytes) -> bytes:
    """The bytes with each "\\r\\n" and each lone "\\r" made one "\\n"."""
    return data.replace(b"\r\n", b"\n").replace(b"\r", b"\n") if b"\r" in data else data


def _stream_blocks(stream) -> Iterator[bytes]:
    """A stream read CHUNK_LINES * 32 characters or bytes at a time, as UTF-8 blocks cut after
    their last line break and with "\\n" line ends; a line longer than that takes more reads.
    A block is not cut right after a final "\\r", whose "\\n" may start the next read."""
    text, first, pieces = isinstance(stream, io.TextIOBase), 1, []
    while block := stream.read(CHUNK_LINES * 32):
        block = block.encode("utf-8", "surrogatepass") if text else block
        end = len(block) - block.endswith(b"\r")
        cut = max(block.rfind(b"\n", 0, end), block.rfind(b"\r", 0, end)) + 1
        if not cut:  # no line ends in the block
            pieces.append(block)
            continue
        data, pieces = _line_feeds(b"".join([*pieces, memoryview(block)[:cut]])), [block[cut:]]
        yield data if text else _utf8(data, first)
        first += np.count_nonzero(np.frombuffer(data, dtype=np.uint8) == ord("\n"))
    data = _line_feeds(b"".join(pieces))
    yield data if text else _utf8(data, first)


def _key_exponents(lengths: np.ndarray) -> np.ndarray:
    """Each name's key width as a power of two: 8 bytes, or the power at or above its length.

    A key is at most twice as wide as its name, so the keys of one width
    take at most twice the bytes of their names, however long the widest.
    """
    return np.frexp(np.maximum(lengths - 1, 7))[1]


def _name_keys(padded: np.ndarray, starts: np.ndarray, lengths: np.ndarray):
    """Per key width the names take, ascending: the rows of the names that width, their sorted
    distinct keys and each row's index into them.

    A width's keys are a (k, n) array of big-endian uint64 words, word j of a key the name's
    bytes 8j to 8j + 8, zero-padded. Names hold no NUL, so equal keys are equal names, and keys
    sort as the names' code points do.
    """
    if lengths.size and lengths.max() <= 8:
        classes = [(1, slice(None))]
    else:
        exponents = _key_exponents(lengths)
        classes = [(1 << (e - 3), np.flatnonzero(exponents == e))
                   for e in np.flatnonzero(np.bincount(exponents)).tolist()]
    for k, rows in classes:
        # word j: the 8 bytes from the name's start + 8j as one number, cut to the name's bytes
        at = 8 * np.arange(k)[:, None]
        keys = sliding_window_view(padded, 8).view(">u8")[starts[rows] + at, 0].astype(np.uint64)
        keys &= _PREFIXES[np.clip(lengths[rows] - at, 0, 8)]
        yield (rows, *_distinct_keys(keys))


def _distinct_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct columns of a (k, n) array of key words, sorted word 0 first, and each column's
    int32 index in them. Equal keys are equal names: an unstable argsort for k = 1, else lexsort."""
    order = np.argsort(keys[0]) if len(keys) == 1 else np.lexsort(keys[::-1])
    keys = keys.take(order, axis=1)
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = (keys[:, 1:] != keys[:, :-1]).any(axis=0)
    inverse = np.empty(len(order), dtype=np.int32)
    inverse[order] = np.cumsum(starts, dtype=np.int32) - 1
    return keys.compress(starts, axis=1), inverse


def _decoded(keys: np.ndarray) -> list[str]:
    """The names of sorted keys of one width, a (k, n) array of words."""
    # each key's words and a line feed word as big-endian bytes, less the zero bytes, decoded
    rows = np.full((keys.shape[1], len(keys) + 1), ord("\n") << 56, dtype=">u8")
    rows[:, :-1] = keys.T
    flat = rows.view(np.uint8)
    return flat[flat != 0].tobytes().decode("utf-8", "surrogatepass").split("\n")[:-1]


class _NameColumn:
    """One name column of a parse, block by block.

    A block holds its distinct name keys by word count, the raw names of its
    lines settled one by one, and its annotations' int32 codes into those:
    the keys by ascending width, then the settled names. finish() decodes
    and normalizes each distinct key once and numbers the names in sorted
    order.
    """

    def __init__(self, normalize):
        self.normalize = normalize
        self.blocks: list[tuple[dict, list[str], np.ndarray]] = []

    def add(self, padded, starts, lengths, before: np.ndarray, settled: list[str]) -> None:
        """A block: the names at starts in padded, and settled ones inserted before `before`."""
        code, keys, held = np.empty(len(starts), dtype=np.int32), {}, 0
        for rows, distinct, inverse in _name_keys(padded, starts, lengths):
            code[rows] = inverse + held
            keys[len(distinct)] = distinct
            held += distinct.shape[1]
        code = np.insert(code, before, np.arange(held, held + len(settled), dtype=np.int32))
        self.blocks.append((keys, settled, code))

    def finish(self) -> tuple[list[str], np.ndarray]:
        """The names sorted without repeats, and every annotation's code, block after block."""
        luts = [[] for _ in self.blocks]  # per block: each block code's index in raw
        raw: list[str] = []
        widths = sorted({k for keys, _, _ in self.blocks for k in keys})
        for k in widths:
            held = [(lut, keys[k]) for lut, (keys, _, _) in zip(luts, self.blocks) if k in keys]
            distinct, inverse = _distinct_keys(np.concatenate([d for _, d in held], axis=1))
            inverse += len(raw)
            for (lut, _), part in zip(held, np.split(inverse, np.cumsum(
                    [d.shape[1] for _, d in held[:-1]]))):
                lut.append(part)
            raw += _decoded(distinct)
        distinct_keys = len(raw)
        for lut, (_, settled, _) in zip(luts, self.blocks):
            lut.append(np.arange(len(raw), len(raw) + len(settled)))
            raw += settled
        names = list(map(self.normalize, raw))
        code = np.arange(len(names), dtype=np.int32)
        # the names of one width's distinct keys come sorted, if no name changed
        if len(widths) > 1 or len(raw) > distinct_keys or names != raw:
            # timsort merges the sorted run of each width; equal names become neighbours
            order = sorted(range(len(names)), key=names.__getitem__)
            names = [names[k] for k in order]
            new = np.ones(len(names), dtype=bool)
            new[1:] = [name != before for name, before in zip(names[1:], names)]
            code[order] = np.cumsum(new, dtype=np.int32) - 1
            names = list(compress(names, new.tolist()))
        codes = np.empty(sum(len(local) for *_, local in self.blocks), dtype=np.int32)
        at = 0
        for lut, (*_, local) in zip(luts, self.blocks):
            codes[at:at + len(local)] = code[np.concatenate(lut)][local]
            at += len(local)
        self.blocks.clear()
        return names, codes


def _normal_tag(name: str) -> str:
    return name.strip().lower()


def _matches(buf: np.ndarray, sep: bytes) -> np.ndarray:
    """Where sep starts in buf, overlapping matches too; nowhere if sep holds a line feed."""
    if b"\n" in sep:  # no line holds one
        return np.zeros(0, dtype=np.intp)
    n = max(len(buf) - len(sep) + 1, 0)
    hit = buf[:n] == sep[0]
    for k in range(1, len(sep)):
        hit &= buf[k:k + n] == sep[k]
    return np.flatnonzero(hit)


def _settle(line: str, delimiter: str) -> Optional[list]:
    """A line the vector checks flagged, settled with str.split: its three raw names and its
    time if it is well formed, [] if it is blank, None if it is malformed."""
    if line.isspace():
        return []
    fields = line.split(delimiter)
    if len(fields) != 4 or not (fields[3].isdigit() and fields[3].isascii()):
        return None
    # a time below 2**63 has at most 19 digits past its zero padding
    padding, time = fields[3][:-_TIME_DIGITS], int(fields[3][-_TIME_DIGITS:])
    return None if padding.strip("0") or time >= 1 << 63 else [*fields[:3], time]


def _parse_block(data: bytes, delimiter: str, skip_header: bool, names, times: list) -> int:
    """Append a block's annotations, in line order, to the name columns and times; return the
    count of its malformed lines.

    numpy checks all lines at once: three delimiters, four non-empty fields,
    no NUL, and a time of 1 to 19 ASCII digits below 2**63. Only the lines
    it flags are settled one by one with str.split, as blank, malformed or
    well formed (a NUL in a name, overlapping delimiters, a zero-padded time
    of more digits). No object is built per line or field of the others. A
    name that is empty once normalized is found when the names are.
    """
    if skip_header:
        data = data.partition(b"\n")[2]
    sep = delimiter.encode("utf-8", "surrogatepass")
    buf = np.frombuffer(data, dtype=np.uint8)
    breaks = np.flatnonzero(buf == ord("\n"))
    starts, ends = np.append(0, breaks + 1), np.append(breaks, len(buf))
    starts, ends = starts[ends > starts], ends[ends > starts]
    marks = _matches(buf, sep)
    # a line's marks are marks[held[i]:held[i] + counts[i]]
    held = np.searchsorted(marks, starts)
    counts = np.diff(held, append=len(marks))
    flagged = counts != 3
    # overlapping matches, of which str.split takes the leftmost, and NULs
    flagged[np.searchsorted(ends, marks[1:][np.diff(marks) < len(sep)])] = True
    if b"\0" in data:
        flagged[np.searchsorted(ends, np.flatnonzero(buf == 0))] = True
    ok = np.flatnonzero(~flagged)
    # field k of a line spans firsts[k] .. firsts[k] + lengths[k]; firsts is a view of bounds
    bounds = np.empty((5, len(ok)), dtype=np.int64)
    bounds[0], bounds[4] = starts[ok], ends[ok] + len(sep)
    bounds[1:4] = marks[held[ok] + np.arange(3)[:, None]] + len(sep)
    firsts, lengths = bounds[:4], np.diff(bounds, axis=0) - len(sep)
    widest = max(_TIME_DIGITS, 1 << int(_key_exponents(lengths[:3].max(initial=1))))
    padded = np.zeros(len(buf) + widest, dtype=np.uint8)
    padded[:len(buf)] = buf
    stamps = np.minimum(lengths[3], _TIME_DIGITS)
    stamp_width = int(stamps.max(initial=1))
    digits = sliding_window_view(padded, stamp_width)[firsts[3]]
    digits -= np.uint8(ord("0"))
    digits *= np.arange(stamp_width) < stamps[:, None]
    # the digits padded with zeros to stamp_width, read as a number; then the padding divided out
    time = np.zeros(len(ok), dtype=np.uint64)
    for column in digits.T:
        time *= 10
        time += column
    time //= _POW10[stamp_width - stamps]
    if (lengths.min(initial=1) < 1 or lengths[3].max(initial=0) > _TIME_DIGITS
            or digits.max(initial=0) > 9 or time.max(initial=0) >= 1 << 63):
        fits = ((lengths.min(axis=0) > 0) & (lengths[3] == stamps) & (digits.max(axis=1) <= 9)
                & (time < 1 << 63))
        flagged[ok[~fits]] = True
        ok, firsts, lengths, time = ok[fits], firsts[:, fits], lengths[:, fits], time[fits]
    malformed, settled = 0, []
    for line in np.flatnonzero(flagged).tolist():
        fields = _settle(data[starts[line]:ends[line]].decode("utf-8", "surrogatepass"), delimiter)
        if fields is None:
            malformed += 1
        elif fields:
            settled.append((line, fields))
    before = np.searchsorted(ok, [line for line, _ in settled]).astype(np.intp)
    for k, column in enumerate(names):
        column.add(padded, firsts[k], lengths[k], before, [f[k] for _, f in settled])
    times.append(np.insert(time.view(np.int64), before, [f[3] for _, f in settled]))
    return malformed


def parse_annotations(source, delimiter: str = "\t", header: bool = False) -> ParseResult:
    """Parse delimited user/item/tag/time lines into annotation columns.

    Tags are trimmed and lowercased (Unicode-aware); user and item ids are
    trimmed only. Lines with a wrong field count, empty fields, or a
    timestamp that is not a run of ASCII digits below 2**63 are counted as
    malformed. If more than half of the non-blank lines are malformed a
    FormatError is raised, signalling a wrong delimiter spec; so is a byte
    that is not UTF-8, naming its line. `source` is a path or a text or
    binary stream (io.IOBase); anything else raises DomainError. A line ends
    at "\\n", "\\r\\n" or a lone "\\r", as when Python reads a text file.

    A stream is read in blocks of CHUNK_LINES * 32 bytes (or characters),
    each cut after its last line break. No object is built per line or
    field: numpy finds the lines and fields of a block's UTF-8 bytes, checks
    them all at once, and keys each name field as big-endian uint64 words,
    one sort per key width finding the distinct keys. Only the lines the
    checks flag (malformed or whitespace-only lines, a NUL, overlapping
    delimiters, a timestamp of more than 19 digits or of 2**63 or more) are
    settled one by one, in place. At the end one sort per key width numbers
    the blocks' distinct keys, and each is decoded and normalized once.
    When a column's keys share one width and no name changes, the keys'
    order is the names'; otherwise the names are sorted.
    """
    if not delimiter:
        raise DomainError("the delimiter must not be empty")
    if isinstance(source, (str, Path)):
        with open(source, "rb") as stream:
            return parse_annotations(stream, delimiter, header)
    if not isinstance(source, io.IOBase):
        raise DomainError(f"source must be a path or a stream, not {type(source).__name__}")
    names = [_NameColumn(str.strip), _NameColumn(str.strip), _NameColumn(_normal_tag)]
    times = [np.zeros(0, dtype=np.int64)]
    malformed = sum(_parse_block(data, delimiter, header and not k, names, times)
                    for k, data in enumerate(_stream_blocks(source)))
    coded = [column.finish() for column in names]
    time = np.concatenate(times)
    # a name that is empty once normalized sorts first: its lines are malformed
    empty = np.zeros(len(time), dtype=bool)
    for vocab, code in coded:
        if vocab[:1] == [""]:
            empty |= code == 0
    if empty.any():
        malformed += int(np.count_nonzero(empty))
        time = time[~empty]
        for k, (vocab, code) in enumerate(coded):
            code, present = _occurring(code[~empty], len(vocab))
            coded[k] = [vocab[j] for j in present.tolist()], code
    total = len(time) + malformed
    if total > 0 and malformed * 2 > total:
        raise FormatError(
            f"{malformed} of {total} lines malformed; wrong delimiter spec?"
        )
    (users, user), (items, item), (tags, tag) = coded
    return ParseResult(AnnotationColumns(user, item, tag, time, users, items, tags), malformed)


def write_annotations(annotations: Iterable[Annotation], dest, delimiter: str = "\t") -> None:
    """Serialize annotations in the same delimited format parse_annotations reads, to a path or a
    text stream. Columns with a name that holds the delimiter, which would read back as more
    fields, raise DomainError before dest is opened: a path is then neither created nor emptied."""
    c = annotations if isinstance(annotations, AnnotationColumns) else None
    held = [] if c is None else [name for names in (c.users, c.items, c.tags) for name in names
                                 if delimiter in name]
    if held:
        raise DomainError(f"name {held[0]!r} holds the delimiter {delimiter!r}")
    with (open(dest, "w", encoding="utf-8", newline="") if isinstance(dest, (str, Path))
          else contextlib.nullcontext(dest)) as out:
        if c is None:
            for a in annotations:
                out.write(f"{a.user}{delimiter}{a.item}{delimiter}{a.tag}{delimiter}{a.time}\n")
            return
        # each name with its delimiter, built once; object arrays, so codes index them
        names = [np.array([name + delimiter for name in vocab], dtype=object)
                 for vocab in (c.users, c.items, c.tags)]
        for start in range(0, len(c), CHUNK_LINES):
            part = slice(start, start + CHUNK_LINES)
            # each distinct time of the chunk formatted once
            times, at = np.unique(c.time[part], return_inverse=True)
            fields = np.empty((len(at), 4), dtype=object)
            for k, (codes, vocab) in enumerate(zip((c.user, c.item, c.tag), names)):
                fields[:, k] = vocab[codes[part]]
            fields[:, 3] = np.array([f"{t}\n" for t in times.tolist()], dtype=object)[at]
            out.write("".join(fields.ravel().tolist()))


def _run_starts(*keys: np.ndarray) -> np.ndarray:
    """Mask of the elements of key-sorted arrays that differ from their predecessor."""
    starts = np.zeros(len(keys[0]), dtype=bool)
    starts[:1] = True
    for key in keys:
        starts[1:] |= key[1:] != key[:-1]
    return starts


def _sorted_runs(*keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The order that sorts the rows of the key columns, the first most significant, and where
    each run of equal rows starts in it. One unstable argsort of a packed int64 key that sorts
    and compares as the rows do: a run's first row is np.minimum.reduceat(order, starts).
    Where a multiply could overflow, the key so far (or an over-wide column) is first replaced
    by its dense rank, below n rows."""
    n = len(keys[0])
    packed, span = np.zeros(n, dtype=np.int64), 1
    for key in keys:
        low, high = (int(key.min()), int(key.max())) if n else (0, 0)
        if (high - low + 1) * n > 2**63:
            low, high, key = 0, n - 1, np.unique(key, return_inverse=True)[1]
        width = high - low + 1
        if span * width > 2**63:
            span, packed = n, np.unique(packed, return_inverse=True)[1]
        span *= width
        packed *= width
        packed += np.subtract(key, low, dtype=np.int64)
    order = np.argsort(packed)
    packed = packed[order]
    return order, np.flatnonzero(_run_starts(packed))


def _distinct_pairs(high: np.ndarray, low: np.ndarray, n_low: int) -> tuple[np.ndarray, ...]:
    """The distinct (high, low) rows of two int32 code columns, sorted, as int32 columns, low
    codes below n_low, and each one's row count (int32 below 2**31 rows). No row order: one
    in-place sort of high * n_low + low, which fits in int64."""
    key = high.astype(np.int64) * n_low
    key += low
    key.sort()
    # the full key freed before the counts are taken, the counts written in their own dtype
    # with no int64 copy, and the starts freed before the split: this bounds the peak
    starts = np.flatnonzero(_run_starts(key))
    key = key[starts]
    counts = np.empty(len(starts), dtype=np.int32 if len(high) < 2**31 else np.int64)
    np.subtract(starts[1:], starts[:-1], out=counts[:-1])
    counts[-1:] = len(high) - starts[-1:]
    del starts
    high = (key // n_low).astype(np.int32)
    key -= np.multiply(high, n_low, dtype=np.int64)
    return high, key.astype(np.int32), counts


def _check_codes(codes, n_codes: int) -> np.ndarray:
    """codes as an int64 array; DomainError unless they are distinct integers in [0, n_codes)
    (unchecked, a negative code would pick a name from the end of the list)."""
    codes = np.asarray(codes)
    if codes.ndim != 1 or codes.size and codes.dtype.kind not in "iu":
        raise DomainError(f"need a 1-D array of integer codes, got {codes.dtype} {codes.shape}")
    codes = codes.astype(np.int64, copy=False)
    in_range = not codes.size or 0 <= codes.min() <= codes.max() < n_codes
    if not in_range or np.bincount(codes).max(initial=0) > 1:
        raise DomainError(f"need distinct codes in [0, {n_codes})")
    return codes


def _user_means(user: np.ndarray, values: np.ndarray, n_users: int, weights=None) -> np.ndarray:
    """Each user code's mean of its values, weighted by weights if given, adding up in the
    given order; NaN for a user with no value or a total weight of 0."""
    sums = np.bincount(user, values if weights is None else values * weights, n_users)
    counts = np.bincount(user, weights, n_users)
    return np.divide(sums, counts, out=np.full(n_users, np.nan), where=counts != 0)


@dataclass(frozen=True, eq=False)
class FolksonomyIndex:
    """Immutable index over one annotation set.

    columns holds the indexed annotations (raw or deduped), the one data
    model every analysis reads. The index adds, by code, each user's, item's
    and tag's annotation count, and three distinct sets: triples, the
    (user, item, tag) codes sorted; user_tags, the (user, tag) codes sorted
    with each pair's annotation count; and item_tags, the (item, tag) codes
    sorted with each triple's pair. Each is built on first read and then
    cached. Every analysis visits users, items and tags in code order, which
    is name order, so its sums add up in the same order whatever the order
    of the annotations.
    """

    columns: AnnotationColumns

    @property
    def n_annotations(self) -> int:
        return len(self.columns)

    @cached_property
    def user_counts(self) -> np.ndarray:
        return np.bincount(self.columns.user, minlength=len(self.columns.users))

    @cached_property
    def item_counts(self) -> np.ndarray:
        return np.bincount(self.columns.item, minlength=len(self.columns.items))

    @cached_property
    def tag_counts(self) -> np.ndarray:
        return np.bincount(self.columns.tag, minlength=len(self.columns.tags))

    @cached_property
    def triples(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The distinct (user, item, tag) codes, sorted."""
        c = self.columns
        order, starts = _sorted_runs(c.user, c.item, c.tag)
        row = order[starts]
        del order, starts
        return c.user[row], c.item[row], c.tag[row]

    @cached_property
    def user_tags(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The distinct (user, tag) codes, sorted, and each pair's annotation count."""
        return _distinct_pairs(self.columns.user, self.columns.tag, len(self.columns.tags))

    @cached_property
    def item_tags(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The distinct (item, tag) codes, sorted, and the index of each triple's pair in them
        (int32 below 2**31 triples): a pair's count in it is the pair's distinct users."""
        _, item, tag = self.triples
        order, starts = _sorted_runs(item, tag)
        pair = np.zeros(len(order), dtype=np.int32 if len(order) < 2**31 else np.int64)
        pair[starts[1:]] = 1
        np.cumsum(pair, out=pair)
        pair_of_triple = np.empty_like(pair)
        pair_of_triple[order] = pair
        first = order[starts]
        return item[first], tag[first], pair_of_triple


def _dedupe(columns: AnnotationColumns) -> AnnotationColumns:
    """One annotation per (user, item, tag) triple: the first, with the triple's earliest time."""
    order, starts = _sorted_runs(columns.user, columns.item, columns.tag)
    first = np.minimum.reduceat(order, starts)
    earliest = np.minimum.reduceat(columns.time[order], starts)
    kept = np.argsort(first)
    return columns.take(first[kept], earliest[kept])


def build_index(annotations: AnnotationColumns, dedupe: bool = False) -> FolksonomyIndex:
    """Index annotation columns, as parse_annotations or generate_synthetic give them.

    Anything but AnnotationColumns, or a time column that is not int64,
    raises DomainError. With dedupe=True, duplicate (user, item, tag)
    triples collapse to the earliest-timestamped instance (first occurrence
    on timestamp ties), preserving first-occurrence order. Deduplication is
    idempotent.
    """
    if not isinstance(annotations, AnnotationColumns):
        raise DomainError(f"build_index takes AnnotationColumns, not {type(annotations).__name__}")
    if annotations.time.dtype != np.int64:
        raise DomainError(f"the time column must be int64, not {annotations.time.dtype}")
    columns = _dedupe(annotations) if dedupe else annotations
    return FolksonomyIndex(columns=columns)


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
    per_user, per_tag, per_item = (
        counts.tolist() for counts in (index.user_counts, index.tag_counts, index.item_counts))
    return DatasetSummary(
        taggers=len(per_user),
        tags=len(per_tag),
        resources=len(per_item),
        annotations=index.n_annotations,
        per_user=median_iqr(per_user),
        per_tag=median_iqr(per_tag),
        per_item=median_iqr(per_item),
    )


def binned_by_user_count(index: FolksonomyIndex, scores: np.ndarray, spec: BinSpec) -> BinnedSeries:
    """A per-user score array, by user code, binned by each user's annotation count.

    Users whose score is NaN are left out; the others add up in code order.
    """
    scored = ~np.isnan(scores)
    return binned_mean(index.user_counts[scored], scores[scored], spec)


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
        _check_counts(**{name: getattr(self, name) for name in (
            "n_users", "n_items", "n_tags", "tags_per_item", "max_user_annotations", "time_span")})
        for name in ("activity_exponent", "item_popularity_exponent", "tag_popularity_exponent"):
            if not 0 < getattr(self, name) < np.inf:  # NaN too
                raise DomainError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        if self.seed < 0:
            raise DomainError(f"seed must be at least 0, got {self.seed}")


def _power_law_cdf(n: int, exponent: float) -> np.ndarray:
    weights = np.arange(1, n + 1, dtype=float) ** -exponent
    cdf = np.cumsum(weights) / weights.sum()
    # rounding must not leave the final edge below 1.0, or a uniform draw
    # could index one past the end
    cdf[-1] = 1.0
    return cdf


def _names(prefix: str, n: int, values) -> list[str]:
    """The prefix and each value from range(n) zero-padded to n's width, so values sort as names."""
    return list(map(f"{prefix}%0{len(str(n))}d".__mod__, values))


def generate_synthetic(config: SyntheticConfig) -> AnnotationColumns:
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

    The corpus comes as columns, user by user: every user annotates at
    least once, and the item and tag lists hold the names drawn.
    """
    rng = np.random.default_rng(config.seed)
    count_cdf = _power_law_cdf(config.max_user_annotations, config.activity_exponent)
    counts = np.searchsorted(count_cdf, rng.random(config.n_users), side="right") + 1
    total = int(counts.sum())

    item_cdf = _power_law_cdf(config.n_items, config.item_popularity_exponent)
    tag_cdf = _power_law_cdf(config.n_tags, config.tag_popularity_exponent)
    pool_size = min(config.tags_per_item, config.n_tags)
    # each pool slot is a tag draw; only the slots annotations pick are looked up
    pools = rng.random((config.n_items, pool_size))
    item_draws = np.searchsorted(item_cdf, rng.random(total), side="right")
    slots = pools[item_draws, rng.integers(0, pool_size, size=total)]
    del pools
    item, drawn = _occurring(item_draws, config.n_items)
    items = _names("i", config.n_items, drawn.tolist())
    del item_draws
    tag, drawn = _occurring(np.searchsorted(tag_cdf, slots, side="right"), config.n_tags)
    tags = _names("t", config.n_tags, drawn.tolist())
    del slots
    time = rng.integers(0, config.time_span, size=total)

    user = np.repeat(np.arange(config.n_users, dtype=np.int32), counts)
    users = _names("u", config.n_users, range(config.n_users))
    return AnnotationColumns(user, item, tag, time, users, items, tags)
