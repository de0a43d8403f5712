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
from itertools import compress, islice, repeat
from pathlib import Path
from typing import IO, Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError, FormatError, NotFoundError
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
    "UserStats",
    "build_index",
    "generate_synthetic",
    "parse_annotations",
    "summary",
    "user_stats",
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
        names = [_Vocabulary() for _ in range(3)]
        codes = [vocab.encode([getattr(a, field) for a in rows])
                 for vocab, field in zip(names, ("user", "item", "tag"))]
        time = _exact_times(np.array([a.time for a in rows], dtype=object))
        return _renumbered(names, codes, time)

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


class _Vocabulary:
    """Provisional codes for names, numbered as the names arrive."""

    def __init__(self):
        self.code: dict[str, int] = {}

    def encode(self, names: list[str]) -> np.ndarray:
        code = self.code
        new = set(names).difference(code)
        code.update(zip(new, range(len(code), len(code) + len(new))))
        return np.fromiter(map(code.__getitem__, names), dtype=np.int32, count=len(names))

    def renumbering(self) -> tuple[list[str], np.ndarray]:
        """The names sorted, and the sorted position of each provisional code."""
        names = list(self.code)
        order = sorted(range(len(names)), key=names.__getitem__)
        renumber = np.empty(len(names), dtype=np.int32)
        renumber[order] = np.arange(len(names), dtype=np.int32)
        return [names[k] for k in order], renumber


class _RawNames:
    """Provisional codes of the raw names (a field's bytes) one parse has seen.

    The raw names are kept per key width as sorted keys beside their codes,
    so a chunk looks up its distinct names with one searchsorted, and only
    names no earlier chunk held are decoded and normalized. Raw names that
    normalize alike share the code the vocabulary gives their normal form.
    """

    def __init__(self, vocabulary: _Vocabulary, normalize):
        self.vocabulary, self.normalize = vocabulary, normalize
        self.keys: dict[int, np.ndarray] = {}
        self.codes: dict[int, np.ndarray] = {}

    def lookup(self, width: int, keys: np.ndarray):
        """For sorted distinct keys: where each would go, whether it is known, and the new names.

        Raises UnicodeDecodeError for a new name that is not UTF-8, and
        ValueError for one that is empty once normalized; changes nothing.
        """
        known = self.keys.get(width, keys[:0])
        at = np.searchsorted(known, keys)
        found = np.zeros(len(keys), dtype=bool)
        if len(known):
            found = known[np.minimum(at, len(known) - 1)] == keys
        new = keys[~found]
        raw = (new.astype(">u8").view("S8") if width == 8 else new).tolist()
        names = list(map(self.normalize, map(bytes.decode, raw)))
        if not all(names):
            raise ValueError("a name is empty")
        return at, found, new, names

    def codes_of(self, width: int, keys: np.ndarray, looked_up) -> np.ndarray:
        """The codes of the keys looked up, adding the new names to the vocabulary."""
        at, found, new, names = looked_up
        codes = np.empty(len(keys), dtype=np.int32)
        known_codes = self.codes.get(width, codes[:0])
        codes[found] = known_codes[at[found]]
        codes[~found] = new_codes = self.vocabulary.encode(names)
        # new keys go where searchsorted put them, so the keys stay sorted
        self.keys[width] = np.insert(self.keys.get(width, keys[:0]), at[~found], new)
        self.codes[width] = np.insert(known_codes, at[~found], new_codes)
        return codes


def _exact_times(time: np.ndarray) -> np.ndarray:
    """The times as int64 if they all fit, else as they are."""
    if time.dtype == object:
        with contextlib.suppress(OverflowError):
            return time.astype(np.int64)
    return time


def _renumbered(vocabularies, codes, time) -> AnnotationColumns:
    """Columns whose provisional codes are renumbered in sorted name order."""
    columns, names = [], []
    for vocab, code in zip(vocabularies, codes):
        sorted_names, renumber = vocab.renumbering()
        columns.append(renumber[code])
        names.append(sorted_names)
    return AnnotationColumns(*columns, time, *names)


@dataclass(frozen=True)
class ParseResult:
    """Well-formed annotations plus a count of rejected lines."""

    annotations: AnnotationColumns
    malformed: int
    granularity: TimeGranularity


# Lines parsed at a time: the parser's working memory is bounded by this,
# not by the size of the input.
CHUNK_LINES = 1 << 16

# any run of at most 18 decimal digits fits in int64
_INT64_DIGITS = 18


def _open_lines(source) -> tuple[Iterable, Optional[IO]]:
    if isinstance(source, (str, Path)):
        handle = open(source, "rb")
        return handle, handle
    return source, None


def _decode(chunk: list, joiner: str, first_line: int) -> str:
    """The chunk's lines joined into one text, bytes lines decoded as UTF-8."""
    try:
        return joiner.join(chunk)
    except TypeError:
        pass
    try:
        return joiner.encode().join(chunk).decode("utf-8")
    except (TypeError, UnicodeDecodeError):
        pass
    lines = []
    for number, line in enumerate(chunk, first_line):
        if isinstance(line, bytes):
            try:
                line = line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(
                    f"line {number}: invalid UTF-8 byte {line[exc.start]:#04x}"
                ) from None
        lines.append(line)
    return joiner.join(lines)


def _ascii_digits(stamp: str) -> bool:
    # int() would also take signs, spaces, '_' and other scripts' digits
    return stamp.isdigit() and stamp.isascii()


def _parse_chunk(lines: list[str], delimiter: str, vocabularies, columns) -> int:
    """Append the well-formed lines' codes and times to columns; return the malformed count.

    Fields are split for the whole chunk at once: the 4-field lines are
    joined and split again at newlines and delimiters alike, so their
    fields come out as one flat list, four per line.
    """
    lines = list(filter(None, lines))
    n = len(lines)
    blank = np.fromiter(map(str.isspace, lines), dtype=bool, count=n)
    shaped = np.fromiter(map(str.count, lines, repeat(delimiter)), dtype=np.intp, count=n) == 3
    shaped &= ~blank
    malformed = n - int(np.count_nonzero(blank)) - int(np.count_nonzero(shaped))
    if not shaped.all():
        lines = list(compress(lines, shaped))
    if not lines:
        return malformed
    fields = "\n".join(lines).replace(delimiter, "\n").split("\n")
    users = list(map(str.strip, fields[0::4]))
    items = list(map(str.strip, fields[1::4]))
    tags = list(map(str.lower, map(str.strip, fields[2::4])))
    stamps = fields[3::4]
    del fields
    digits = "".join(stamps)
    if not (all(users) and all(items) and all(tags) and all(stamps)
            and digits.isascii() and digits.isdigit()):
        keep = list(map(all, zip(users, items, tags, map(_ascii_digits, stamps))))
        malformed += len(keep) - sum(keep)
        users, items, tags, stamps = (list(compress(c, keep)) for c in (users, items, tags, stamps))
        if not stamps:
            return malformed
    for vocab, names, column in zip(vocabularies, (users, items, tags), columns):
        column.append(vocab.encode(names))
    if max(map(len, stamps)) <= _INT64_DIGITS:
        columns[3].append(np.fromiter(map(int, stamps), dtype=np.int64, count=len(stamps)))
    else:
        columns[3].append(np.array(list(map(int, stamps)), dtype=object))
    return malformed


def _chunk_bytes(chunk: list, joiner: str) -> Optional[bytes]:
    """The chunk's lines joined as UTF-8, or None for mixed lines or text that does not encode."""
    try:
        return joiner.encode().join(chunk)
    except TypeError:
        pass
    try:
        return joiner.join(chunk).encode("utf-8")
    except (TypeError, UnicodeEncodeError):
        return None


_POW10 = 10 ** np.arange(_INT64_DIGITS + 1, dtype=np.int64)
# _PREFIXES[k] keeps the first k bytes of a big-endian uint64
_PREFIXES = np.array([(1 << 64) - (1 << (64 - 8 * k)) for k in range(9)], dtype=np.uint64)


def _key_widths(lengths: np.ndarray) -> np.ndarray:
    """Each name's key width: 8 bytes, or the power of two at or above its length.

    A key is at most twice as wide as its name, so the keys of one width
    take at most twice the bytes of their names, however long the widest.
    """
    return np.left_shift(np.int64(1), np.frexp(np.maximum(lengths - 1, 7))[1])


def _name_keys(padded: np.ndarray, starts: np.ndarray, lengths: np.ndarray):
    """Per key width: the rows of the names that width, their distinct keys and each row's key.

    A key is the name's bytes zero-padded to the width; names hold no NUL,
    so equal keys are equal names. Width 8 keys are big-endian uint64s.
    """
    if lengths.max() <= 8:
        classes = [(8, slice(None))]
    else:
        widths = _key_widths(lengths)
        classes = [(width, np.flatnonzero(widths == width)) for width in np.unique(widths).tolist()]
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


def _normal_tag(name: str) -> str:
    return name.strip().lower()


def _parse_bytes(chunk: list, joiner: str, skip_header: bool, delimiter: int, raw_names,
                 columns) -> bool:
    """Append a well-formed chunk's codes and times to columns and return True.

    Return False, changing nothing, for a chunk of mixed or unencodable
    lines, with a NUL byte, a non-empty line that is not three delimiters
    between four non-empty fields, a timestamp that is not 1 to 18 ASCII
    digits, or a name that is not UTF-8 or is empty once normalized: the
    general path decides those lines. No object is built per line or field.
    """
    data = _chunk_bytes(chunk, joiner)
    if data is None:
        return False
    data = data.replace(b"\r", b"\n")
    if skip_header:
        head, _, data = data.partition(b"\n")
        try:
            head.decode("utf-8")
        except UnicodeDecodeError:
            return False
    if b"\0" in data:
        return False
    buf = np.frombuffer(data, dtype=np.uint8)
    breaks = np.flatnonzero(buf == ord("\n"))
    starts, ends = np.append(0, breaks + 1), np.append(breaks, len(buf))
    lines = ends > starts
    marks = np.flatnonzero(buf == delimiter)
    if len(marks) != 3 * np.count_nonzero(lines):
        return False
    if not len(marks):  # no line but empty ones
        return True
    # field k of a line spans bounds[k] + 1 .. bounds[k + 1]; all of them
    # non-empty means the line's three delimiters are its own
    bounds = np.column_stack((starts[lines] - 1, marks.reshape(-1, 3), ends[lines]))
    firsts, lengths = bounds[:, :4] + 1, np.diff(bounds) - 1
    if lengths.min() < 1 or lengths[:, 3].max() > _INT64_DIGITS:
        return False
    widest = max(_INT64_DIGITS, int(_key_widths(lengths[:, :3].max())))
    padded = np.zeros(len(buf) + widest, dtype=np.uint8)
    padded[:len(buf)] = buf
    stamp_width = int(lengths[:, 3].max())
    digits = sliding_window_view(padded, stamp_width)[firsts[:, 3]] - np.uint8(ord("0"))
    digits[np.arange(stamp_width) >= lengths[:, 3, None]] = 0
    if digits.max() > 9:
        return False
    keyed = [list(_name_keys(padded, firsts[:, k], lengths[:, k])) for k in range(3)]
    try:
        looked_up = [[names.lookup(width, keys) for width, _, keys, _ in column]
                     for names, column in zip(raw_names, keyed)]
    except (UnicodeDecodeError, ValueError):
        return False
    for names, column, lookups, codes in zip(raw_names, keyed, looked_up, columns):
        code = np.empty(len(bounds), dtype=np.int32)
        for (width, rows, keys, inverse), looked in zip(column, lookups):
            code[rows] = names.codes_of(width, keys, looked)[inverse]
        codes.append(code)
    # the digits padded with zeros to stamp_width, read as a number; then the padding divided out
    time = np.zeros(len(bounds), dtype=np.int64)
    for column in digits.T:
        time = time * 10 + column
    columns[3].append(time // _POW10[stamp_width - lengths[:, 3]])
    return True


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

    The input is read CHUNK_LINES lines at a time, and no object is built
    per line that outlives its chunk. With a one-byte (ASCII) delimiter, a
    chunk takes a byte-level path that builds no object per line or field
    and decodes each distinct raw name once per parse: its lines are
    joined as UTF-8 bytes, and numpy finds and checks the fields and codes
    the names. A chunk with a malformed or whitespace-only line, a NUL
    byte, a timestamp of more than 18 digits, a name that is empty once
    stripped, or bytes that are not UTF-8 takes the general path instead,
    which splits the decoded text; so does every chunk when the delimiter
    is longer than one byte. Both give the same annotations.
    """
    if not delimiter:
        raise DomainError("the delimiter must not be empty")
    source, handle = _open_lines(source)
    # a stream's lines end with their line break; other iterables' need not
    joiner = "" if isinstance(source, io.IOBase) else "\n"
    vocabularies = (_Vocabulary(), _Vocabulary(), _Vocabulary())
    raw_names = [_RawNames(vocab, normalize) for vocab, normalize
                 in zip(vocabularies, (str.strip, str.strip, _normal_tag))]
    byte_delimiter = ord(delimiter) if len(delimiter) == 1 and delimiter.isascii() else None
    # per column, its parts chunk by chunk: user, item and tag codes, and times
    columns = tuple([np.zeros(0, dtype=dtype)] for dtype in (np.int32,) * 3 + (np.int64,))
    malformed = 0
    first_line = 1
    try:
        it = iter(source)
        while chunk := list(islice(it, CHUNK_LINES)):
            skip_header = header and first_line == 1
            if byte_delimiter is None or not _parse_bytes(chunk, joiner, skip_header,
                                                          byte_delimiter, raw_names, columns):
                text = _decode(chunk, joiner, first_line)
                # a lone "\r" ends a line too; the empty line after a "\r\n" is blank
                lines = text.replace("\r", "\n").split("\n")
                if skip_header:
                    del lines[0]
                malformed += _parse_chunk(lines, delimiter, vocabularies, columns)
            first_line += len(chunk)
    finally:
        if handle is not None:
            handle.close()
    codes = [np.concatenate(c) for c in columns[:3]]
    time = _exact_times(np.concatenate(columns[3]))
    total = len(time) + malformed
    if total > 0 and malformed * 2 > total:
        raise FormatError(
            f"{malformed} of {total} lines malformed; wrong delimiter spec?"
        )
    return ParseResult(_renumbered(vocabularies, codes, time), malformed, granularity)


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
            times = c.time[part].tolist()
            fields = np.empty((len(times), 4), dtype=object)
            for k, (codes, vocab) in enumerate(zip((c.user, c.item, c.tag), names)):
                fields[:, k] = vocab[codes[part]]
            fields[:, 3] = [f"{t}\n" for t in times]
            dest.write("".join(fields.ravel().tolist()))
        return
    for a in annotations:
        dest.write(f"{a.user}{delimiter}{a.item}{delimiter}{a.tag}{delimiter}{a.time}\n")


@dataclass(frozen=True)
class UserStats:
    annotations: int
    distinct_tags: int
    distinct_items: int


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


def _rows(csr: Csr, code: int) -> np.ndarray:
    """The positions of one code's annotations."""
    return csr.positions[csr.offsets[code]:csr.offsets[code + 1]]


def _user_rows(index: FolksonomyIndex, user: str) -> np.ndarray:
    """The positions of the user's annotations; raises NotFoundError for an unknown user."""
    code = _code(index.columns.users, user)
    if code < 0:
        raise NotFoundError(f"unknown user: {user!r}")
    return _rows(index.user_csr, code)


def user_stats(index: FolksonomyIndex, user: str) -> UserStats:
    """Annotation, distinct-tag, and distinct-item counts for one user."""
    c = index.columns
    mine = _user_rows(index, user)
    return UserStats(len(mine), len(np.unique(c.tag[mine])), len(np.unique(c.item[mine])))


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


def _occurring(draws: np.ndarray, prefix: str, n: int) -> tuple[np.ndarray, list[str]]:
    """Codes of draws from range(n), renumbered in order over the values drawn, and their names."""
    drawn = np.bincount(draws, minlength=n) > 0
    codes = (np.cumsum(drawn, dtype=np.int32) - 1)[draws]
    return codes, _names(prefix, n, np.flatnonzero(drawn).tolist())


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
    item, items = _occurring(item_draws, "i", config.n_items)
    del item_draws
    tag, tags = _occurring(np.searchsorted(tag_cdf, slots, side="right"), "t", config.n_tags)
    del slots
    time = rng.integers(0, config.time_span, size=total)

    user = np.repeat(np.arange(config.n_users, dtype=np.int32), counts)
    users = _names("u", config.n_users, range(config.n_users))
    return AnnotationColumns(user, item, tag, time, users, items, tags)
