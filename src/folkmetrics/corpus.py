"""Annotation datasets: parsing, validation, indexing, and synthesis.

An annotation is a (user, item, tag, time) tuple. Datasets are delimited
UTF-8 text, one annotation per line; timestamps are integers at a declared
granularity (seconds or months). Parsed annotations are held as columns:
int32 user, item and tag codes, numbered in sorted name order, and a time
column. The FolksonomyIndex built over them here is the immutable input to
every downstream analysis.
"""

from __future__ import annotations

import contextlib
import io
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import count, islice, repeat
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError, FormatError
from .stats import MedianIQR, median_iqr

__all__ = [
    "Annotation",
    "AnnotationColumns",
    "CHUNK_LINES",
    "Csr",
    "DatasetSummary",
    "FolksonomyIndex",
    "ParseResult",
    "SyntheticConfig",
    "TimeGranularity",
    "build_index",
    "generate_synthetic",
    "parse_annotations",
    "summary",
    "write_annotations",
]


class TimeGranularity(str, Enum):
    """Temporal resolution of a dataset's timestamps."""

    SECONDS = "seconds"
    MONTHS = "months"


class Annotation(NamedTuple):
    """One tagging act: user annotated item with tag at time.

    All downstream code assumes user/item/tag are non-empty (tags already
    trimmed and lowercased) and time is a non-negative integer.
    """

    user: str
    item: str
    tag: str
    time: int


class AnnotationColumns(Sequence[Annotation]):
    """Annotations held as columns rather than one object per annotation.

    user[k], item[k] and tag[k] are int32 codes into the name lists users,
    items and tags. Each list is sorted and holds only names that occur, so
    codes compare as the names do. time is int64, or an object array of
    exact Python ints when a timestamp does not fit in int64. Indexing and
    iteration build Annotation objects on demand.
    """

    __slots__ = ("user", "item", "tag", "time", "users", "items", "tags")

    def __init__(self, user, item, tag, time, users, items, tags):
        self.user, self.item, self.tag, self.time = user, item, tag, time
        self.users, self.items, self.tags = users, items, tags

    @classmethod
    def from_annotations(cls, annotations: Iterable[Annotation]) -> "AnnotationColumns":
        rows = list(annotations)
        coded = [_vocabulary([getattr(a, field) for a in rows])
                 for field in ("user", "item", "tag")]
        time = _exact_times(np.array([a.time for a in rows], dtype=object))
        return cls(*(code for _, code in coded), time, *(names for names, _ in coded))

    def __len__(self) -> int:
        return len(self.user)

    def __getitem__(self, k: int) -> Annotation:
        return Annotation(self.users[self.user[k]], self.items[self.item[k]],
                          self.tags[self.tag[k]], int(self.time[k]))

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


def _vocabulary(names: list[str], distinct_sorted: bool = False) -> tuple[list[str], np.ndarray]:
    """The names sorted without repeats, and the int32 code of each given name in them."""
    if distinct_sorted:
        return names, np.arange(len(names), dtype=np.int32)
    vocab = sorted(set(names))
    index = dict(zip(vocab, range(len(vocab))))
    return vocab, np.fromiter(map(index.__getitem__, names), dtype=np.int32, count=len(names))


def _exact_times(time: np.ndarray) -> np.ndarray:
    """The times as int64 if they all fit, else as they are."""
    if time.dtype == object:
        with contextlib.suppress(OverflowError):
            return time.astype(np.int64)
    return time


def _occurring(codes: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Codes from range(n) renumbered in order over the values that occur, and those values."""
    occurs = np.bincount(codes, minlength=n) > 0
    return (np.cumsum(occurs, dtype=np.int32) - 1)[codes], np.flatnonzero(occurs)


@dataclass(frozen=True)
class ParseResult:
    """Well-formed annotations plus a count of rejected lines."""

    annotations: AnnotationColumns
    malformed: int
    granularity: TimeGranularity


# Lines joined at a time from an iterable of lines; a stream is read CHUNK_LINES * 32
# bytes (2 MiB) at a time. The parser's working memory is bounded by this, not by the
# size of the input.
CHUNK_LINES = 1 << 16

# any run of at most 18 decimal digits fits in int64
_INT64_DIGITS = 18
_POW10 = 10 ** np.arange(_INT64_DIGITS + 1, dtype=np.int64)
# _PREFIXES[k] keeps the first k bytes of a big-endian uint64
_PREFIXES = np.array([(1 << 64) - (1 << (64 - 8 * k)) for k in range(9)], dtype=np.uint64)


def _utf8(data, first_line: int) -> bytes:
    """Text or bytes as UTF-8. Bytes that are not UTF-8 raise FormatError naming the line of
    the first bad byte: first_line plus the line feeds before it."""
    if isinstance(data, str):
        return data.encode("utf-8", "surrogatepass")
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = first_line + data.count(b"\n", 0, exc.start)
            raise FormatError(f"line {line}: invalid UTF-8 byte {data[exc.start]:#04x}") from None
    return data


def _stream_blocks(stream) -> Iterator[bytes]:
    """A stream read CHUNK_LINES * 32 characters or bytes at a time, as UTF-8 blocks cut after
    their last line break; a line longer than that takes more reads."""
    text, first, pieces = isinstance(stream, io.TextIOBase), 1, []
    while block := stream.read(CHUNK_LINES * 32):
        block = block.encode("utf-8", "surrogatepass") if text else block
        cut = max(block.rfind(b"\n"), block.rfind(b"\r")) + 1
        if not cut:  # no line ends in the block
            pieces.append(block)
            continue
        data, pieces = b"".join([*pieces, memoryview(block)[:cut]]), [block[cut:]]
        yield data if text else _utf8(data, first)
        first += np.count_nonzero(np.frombuffer(data, dtype=np.uint8) == ord("\n"))
    data = b"".join(pieces)
    yield data if text else _utf8(data, first)


def _line_blocks(lines: Iterable) -> Iterator[bytes]:
    """An iterable's text or bytes lines joined CHUNK_LINES at a time, as UTF-8 blocks."""
    it, first = iter(lines), 1
    while chunk := list(islice(it, CHUNK_LINES)):
        try:
            data = "\n".join(chunk).encode("utf-8", "surrogatepass")
        except TypeError:  # bytes lines, maybe mixed with text ones
            data = b"\n".join(map(_utf8, chunk, count(first)))
        yield data + b"\n"
        first += len(chunk)


def _key_exponents(lengths: np.ndarray) -> np.ndarray:
    """Each name's key width as a power of two: 8 bytes, or the power at or above its length.

    A key is at most twice as wide as its name, so the keys of one width
    take at most twice the bytes of their names, however long the widest.
    """
    return np.frexp(np.maximum(lengths - 1, 7))[1]


def _name_keys(padded: np.ndarray, starts: np.ndarray, lengths: np.ndarray):
    """Per key width, ascending: the rows of the names that width, their sorted distinct keys and
    each row's index into them.

    A key is the name's bytes zero-padded to the width; names hold no NUL,
    so equal keys are equal names, and keys sort as the names' code points
    do. Width 8 keys are big-endian uint64s.
    """
    if lengths.max(initial=0) <= 8:
        classes = [(8, slice(None))]
    else:
        exponents = _key_exponents(lengths)
        classes = [(1 << e, np.flatnonzero(exponents == e))
                   for e in np.flatnonzero(np.bincount(exponents)).tolist()]
    for width, rows in classes:
        if width == 8:
            # the 8 bytes from each start, as one number, cut to the name's length
            words = sliding_window_view(padded, 8).view(">u8")[starts[rows], 0]
            keys = words.astype(np.uint64) & _PREFIXES[lengths[rows]]
        else:
            keys = sliding_window_view(padded, width)[starts[rows]]
            keys[np.arange(width) >= lengths[rows, None]] = 0
            keys = keys.view(f"S{width}")[:, 0]
        yield (width, rows, *np.unique(keys, return_inverse=True))


def _decoded(width: int, keys: np.ndarray) -> list[str]:
    """The names of sorted keys of one width."""
    # each key's bytes and a line feed, less the zero padding, decoded at once
    rows = np.empty((len(keys), width + 1), dtype=np.uint8)
    rows[:, :width] = (keys.astype(">u8") if width == 8 else keys).view(np.uint8).reshape(-1, width)
    rows[:, width] = ord("\n")
    flat = rows.ravel()
    return flat[flat != 0].tobytes().decode("utf-8", "surrogatepass").split("\n")[:-1]


class _NameColumn:
    """One name column of a parse, block by block.

    A block holds its distinct name keys per width, the raw names of its
    lines settled one by one, and its annotations' int32 codes into those:
    the keys by ascending width, then the settled names. finish() decodes
    and normalizes each distinct key once and numbers the names in sorted
    order.
    """

    def __init__(self, normalize):
        self.normalize = normalize
        self.blocks: list[tuple[list, list[str], np.ndarray]] = []

    def add(self, padded, starts, lengths, before: np.ndarray, settled: list[str]) -> None:
        """A block: the names at starts in padded, and settled ones inserted before `before`."""
        code, keys, held = np.empty(len(starts), dtype=np.int32), [], 0
        for width, rows, distinct, inverse in _name_keys(padded, starts, lengths):
            code[rows] = inverse + held
            keys.append((width, distinct))
            held += len(distinct)
        code = np.insert(code, before, np.arange(held, held + len(settled), dtype=np.int32))
        self.blocks.append((keys, settled, code))

    def finish(self) -> tuple[list[str], np.ndarray]:
        """The names sorted without repeats, and every annotation's code, block after block."""
        luts = [[] for _ in self.blocks]  # per block: each block code's index in raw
        raw: list[str] = []
        widths = sorted({width for keys, _, _ in self.blocks for width, _ in keys})
        for width in widths:
            held = [(lut, distinct) for lut, (keys, _, _) in zip(luts, self.blocks)
                    for w, distinct in keys if w == width]
            keys = np.sort(np.concatenate([d for _, d in held]))
            distinct = keys[_run_starts(keys)]
            del keys
            for lut, d in held:
                lut.append(np.searchsorted(distinct, d) + len(raw))
            raw += _decoded(width, distinct)
        distinct_keys = len(raw)
        for lut, (_, settled, _) in zip(luts, self.blocks):
            lut.append(np.arange(len(raw), len(raw) + len(settled)))
            raw += settled
        names = list(map(self.normalize, raw))
        # the names of one width's distinct keys come sorted, if no name changed
        names, code = _vocabulary(names, len(widths) == 1 and len(raw) == distinct_keys
                                  and names == raw)
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


def _settle(line: str, delimiter: str) -> Optional[list[str]]:
    """A line the vector checks flagged, settled with str.split: its four raw fields if it is
    well formed, [] if it is blank, None if it is malformed."""
    if line.isspace():
        return []
    fields = line.split(delimiter)
    return fields if len(fields) == 4 and fields[3].isdigit() and fields[3].isascii() else None


def _parse_block(data: bytes, delimiter: str, skip_header: bool, names, times: list) -> int:
    """Append a block's annotations, in line order, to the name columns and times; return the
    count of its malformed lines.

    numpy checks all lines at once: three delimiters, four non-empty fields,
    no NUL, and a time of 1 to 18 ASCII digits. Only the lines it flags are
    settled one by one with str.split, as blank, malformed or well formed (a
    NUL in a name, a time of more digits). No object is built per line or
    field of the others. A name that is empty once normalized is found when
    the names are.
    """
    data = data.replace(b"\r", b"\n")
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
    # field k of a line spans firsts[k] .. firsts[k] + lengths[k]
    bounds = np.empty((5, len(ok)), dtype=np.int64)
    bounds[0], bounds[4] = starts[ok] - len(sep), ends[ok]
    bounds[1:4] = marks[held[ok] + np.arange(3)[:, None]]
    firsts, lengths = bounds[:4] + len(sep), np.diff(bounds, axis=0) - len(sep)
    widest = max(_INT64_DIGITS, 1 << int(_key_exponents(lengths[:3].max(initial=1))))
    padded = np.zeros(len(buf) + widest, dtype=np.uint8)
    padded[:len(buf)] = buf
    stamps = np.minimum(lengths[3], _INT64_DIGITS)
    stamp_width = int(stamps.max(initial=1))
    digits = sliding_window_view(padded, stamp_width)[firsts[3]]
    digits -= np.uint8(ord("0"))
    digits *= np.arange(stamp_width) < stamps[:, None]
    if (lengths.min(initial=1) < 1 or lengths[3].max(initial=0) > _INT64_DIGITS
            or digits.max(initial=0) > 9):
        fits = (lengths.min(axis=0) > 0) & (lengths[3] == stamps) & (digits.max(axis=1) <= 9)
        flagged[ok[~fits]] = True
        ok, firsts, lengths, digits = ok[fits], firsts[:, fits], lengths[:, fits], digits[fits]
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
    # the digits padded with zeros to stamp_width, read as a number; then the padding divided out
    time = np.zeros(len(ok), dtype=np.int64)
    for column in digits.T:
        time *= 10
        time += column
    time //= _POW10[stamp_width - lengths[3]]
    stamps = [int(f[3]) for _, f in settled]
    if max(stamps, default=0) >= 1 << 63:  # kept as exact Python ints
        time = time.astype(object)
    times.append(np.insert(time, before, stamps))
    return malformed


def parse_annotations(
    source,
    delimiter: str = "\t",
    granularity: TimeGranularity = TimeGranularity.SECONDS,
    header: bool = False,
) -> ParseResult:
    """Parse delimited user/item/tag/time lines into annotation columns.

    Tags are trimmed and lowercased (Unicode-aware); user and item ids are
    trimmed only. Lines with a wrong field count, empty fields, or a
    timestamp that is not a run of ASCII digits are counted as malformed.
    If more than half of the non-blank lines are malformed a FormatError is
    raised, signalling a wrong delimiter spec; so is a byte that is not
    UTF-8, naming its line. `source` may be a path, a text or binary
    stream, or any iterable of text or bytes lines. A line ends at "\\n",
    "\\r\\n" or a lone "\\r", as it does when Python reads a text file.

    A stream is read in blocks of CHUNK_LINES * 32 bytes (or characters),
    each cut after its last line break; an iterable's lines are joined
    CHUNK_LINES at a time. No object is built per line or field: numpy
    finds the lines and fields of a block's UTF-8 bytes, checks them all at
    once, and codes each name field as a fixed-width byte key with one
    np.unique per key width. Only the lines the checks flag (malformed or
    whitespace-only lines, a NUL, a timestamp of more than 18 digits) are
    settled one by one, in place. At the end one sort per key width numbers
    the blocks' distinct keys, and each distinct key is decoded and
    normalized once. When a column's keys share one width and no name
    changes, the keys' order is the names'; otherwise the names are sorted.
    """
    if not delimiter:
        raise DomainError("the delimiter must not be empty")
    if isinstance(source, (str, Path)):
        with open(source, "rb") as stream:
            return parse_annotations(stream, delimiter, granularity, header)
    blocks = _stream_blocks(source) if isinstance(source, io.IOBase) else _line_blocks(source)
    names = [_NameColumn(str.strip), _NameColumn(str.strip), _NameColumn(_normal_tag)]
    times = [np.zeros(0, dtype=np.int64)]
    malformed = sum(_parse_block(data, delimiter, header and not k, names, times)
                    for k, data in enumerate(blocks))
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
    return ParseResult(AnnotationColumns(user, item, tag, time, users, items, tags), malformed,
                       granularity)


def write_annotations(annotations: Iterable[Annotation], dest, delimiter: str = "\t") -> None:
    """Serialize annotations in the same delimited format parse_annotations reads."""
    if isinstance(dest, (str, Path)):
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            write_annotations(annotations, fh, delimiter)
        return
    if isinstance(annotations, AnnotationColumns):
        c = annotations
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
            dest.write("".join(fields.ravel().tolist()))
        return
    for a in annotations:
        dest.write(f"{a.user}{delimiter}{a.item}{delimiter}{a.tag}{delimiter}{a.time}\n")


class Csr(NamedTuple):
    """Annotation positions grouped by code: code k has positions[offsets[k]:offsets[k + 1]].

    Each group's positions ascend.
    """

    offsets: np.ndarray
    positions: np.ndarray

    @classmethod
    def of(cls, codes: np.ndarray, n_codes: int) -> "Csr":
        offsets = np.zeros(n_codes + 1, dtype=np.int64)
        np.cumsum(np.bincount(codes, minlength=n_codes), out=offsets[1:])
        return cls(offsets, np.argsort(codes, kind="stable"))

    def counts(self) -> np.ndarray:
        return np.diff(self.offsets)

    def gather(self, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The positions of the codes, concatenated in the order given, and each code's count."""
        first, sizes = self.offsets[codes], self.counts()[codes]
        shift = np.repeat(first - np.cumsum(sizes) + sizes, sizes)
        return self.positions[np.arange(len(shift)) + shift], sizes

    def first_seen(self) -> np.ndarray:
        """The codes in the order of their first position."""
        return np.argsort(self.positions[self.offsets[:-1]])


def _run_starts(*keys: np.ndarray) -> np.ndarray:
    """Mask of the elements of key-sorted arrays that differ from their predecessor."""
    starts = np.zeros(len(keys[0]), dtype=bool)
    starts[:1] = True
    for key in keys:
        starts[1:] |= key[1:] != key[:-1]
    return starts


def _packed_key(*keys: np.ndarray) -> np.ndarray:
    """One int64 per row of the key columns that sorts and compares as the rows do, the first
    column most significant. Where a multiply could overflow, the key so far (or an object or
    over-wide column) is first replaced by its dense rank, below n rows."""
    n = len(keys[0])
    packed, span = np.zeros(n, dtype=np.int64), 1
    for key in keys:
        low, high = (int(key.min()), int(key.max())) if n else (0, 0)
        if key.dtype == object or (high - low + 1) * n > 2**63:
            low, high, key = 0, n - 1, np.unique(key, return_inverse=True)[1]
        width = high - low + 1
        if span * width > 2**63:
            span, packed = n, np.unique(packed, return_inverse=True)[1]
        span *= width
        packed *= width
        packed += np.subtract(key, low, dtype=np.int64)
    return packed


def _sorted_runs(*keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The order that sorts the rows of the key columns, the first most significant, and where
    each run of equal rows starts in it. One unstable argsort of the packed key: a run's first
    row is np.minimum.reduceat(order, starts)."""
    packed = _packed_key(*keys)
    order = np.argsort(packed)
    return order, np.flatnonzero(_run_starts(packed[order]))


def _tally(*keys: np.ndarray) -> tuple[tuple[np.ndarray, ...], np.ndarray, np.ndarray]:
    """The distinct tuples of the key columns in sorted order, each one's count, and its first index."""
    order, starts = _sorted_runs(*keys)
    first = np.minimum.reduceat(order, starts)
    return tuple(key[first] for key in keys), np.diff(np.append(starts, len(order))), first


def _item_tag_users(columns: "AnnotationColumns", rows=slice(None)):
    """The distinct (item, tag) pairs of the annotations at rows, sorted, and each one's distinct users."""
    (item, tag, _), _, _ = _tally(columns.item[rows], columns.tag[rows], columns.user[rows])
    (item, tag), users, _ = _tally(item, tag)
    return item, tag, users


def _members(names: Sequence[str], wanted) -> np.ndarray:
    """Mask over the codes of names: whether each name is in the set wanted."""
    return np.fromiter(map(wanted.__contains__, names), dtype=bool, count=len(names))


def _by_user_count(index: "FolksonomyIndex", values: np.ndarray) -> list[tuple[float, float]]:
    """(annotation count, value) of each user whose value is not NaN, in first-annotation order."""
    order = index.user_csr.first_seen()
    order = order[~np.isnan(values[order])]
    return list(zip(index.user_csr.counts()[order].astype(float).tolist(), values[order].tolist()))


@dataclass(frozen=True, eq=False)
class FolksonomyIndex:
    """Immutable multi-way index over one annotation set.

    columns holds the indexed annotations (raw or deduped), the one data
    model every analysis reads; user_csr, item_csr and tag_csr group their
    positions by code. The CSRs are built on first read and then cached, so
    a command pays only for the ones it reads. Where an analysis visits
    users or items one by one, it visits them in the order of their first
    annotation (Csr.first_seen), so its sums add up in a fixed order.
    """

    columns: AnnotationColumns
    granularity: TimeGranularity
    deduped: bool

    @property
    def n_annotations(self) -> int:
        return len(self.columns)

    @cached_property
    def user_csr(self) -> Csr:
        return Csr.of(self.columns.user, len(self.columns.users))

    @cached_property
    def item_csr(self) -> Csr:
        return Csr.of(self.columns.item, len(self.columns.items))

    @cached_property
    def tag_csr(self) -> Csr:
        return Csr.of(self.columns.tag, len(self.columns.tags))


def _dedupe(columns: AnnotationColumns) -> AnnotationColumns:
    """One annotation per (user, item, tag) triple: the first, with the triple's earliest time."""
    order, starts = _sorted_runs(columns.user, columns.item, columns.tag)
    first = np.minimum.reduceat(order, starts)
    earliest = np.minimum.reduceat(columns.time[order], starts)
    kept = np.argsort(first)
    return columns.take(first[kept], earliest[kept])


def build_index(
    annotations: Sequence[Annotation],
    dedupe: bool = False,
    granularity: TimeGranularity = TimeGranularity.SECONDS,
) -> FolksonomyIndex:
    """Index an annotation collection by user, item, and tag.

    `annotations` may be AnnotationColumns, used as they are, or any
    sequence of Annotation. With dedupe=True, duplicate (user, item, tag)
    triples collapse to the earliest-timestamped instance (first occurrence
    on timestamp ties), preserving first-occurrence order. Deduplication is
    idempotent.
    """
    if isinstance(annotations, AnnotationColumns):
        columns = annotations
    else:
        columns = AnnotationColumns.from_annotations(annotations)
    if dedupe:
        columns = _dedupe(columns)
    return FolksonomyIndex(columns=columns, granularity=granularity, deduped=dedupe)


def _code(names: Sequence[str], name: str) -> int:
    """The code of name in the sorted names, or -1 if it is not one of them."""
    code = bisect_left(names, name)
    return code if code < len(names) and names[code] == name else -1


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
    c = index.columns
    per_user, per_tag, per_item = (
        np.bincount(codes, minlength=len(names)).tolist()
        for codes, names in ((c.user, c.users), (c.tag, c.tags), (c.item, c.items))
    )
    return DatasetSummary(
        taggers=len(per_user),
        tags=len(per_tag),
        resources=len(per_item),
        annotations=index.n_annotations,
        per_user=median_iqr(per_user),
        per_tag=median_iqr(per_tag),
        per_item=median_iqr(per_item),
    )


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
        for name in ("n_users", "n_items", "n_tags", "tags_per_item", "max_user_annotations",
                     "time_span"):
            if getattr(self, name) < 1:
                raise DomainError(f"{name} must be >= 1")
        for name in ("activity_exponent", "item_popularity_exponent", "tag_popularity_exponent"):
            if getattr(self, name) <= 0:
                raise DomainError(f"{name} must be > 0")


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
