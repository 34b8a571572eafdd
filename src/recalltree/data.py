"""Sparse examples, text parsing, and dataset streaming.

Dataset files are line oriented, one example per line::

    <label> <index>:<value> <index>:<value> ...

Labels are dense non-negative integers in ``[0, K)``, indices are
non-negative integers into a declared raw feature space, and values are
finite decimal reals.  Duplicate indices are legal and are kept in order;
they contribute additively when an example is scored.  Files ending in
``.gz`` are transparently decompressed.

Every reader parses a chunk of lines at a time and re-parses a chunk with
a bad line one line at a time, which names the line and column at fault.
"""

from __future__ import annotations

import gzip
import math
import operator
import re
from dataclasses import dataclass
from itertools import accumulate, chain, islice
from typing import IO, Iterator

import numpy as np

from .errors import DomainError, ParseError

_TOKEN = re.compile(r"\S+")

# lines parsed per bulk conversion
_CHUNK_LINES = 1024


@dataclass
class SparseExample:
    """One labeled example: a class id plus a sparse feature vector."""

    label: int
    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        try:
            self.label = operator.index(self.label)
        except TypeError:
            raise DomainError(f"label must be an integer, got {self.label!r}") from None
        try:
            self.indices = np.asarray(self.indices, dtype=np.int64)
        except OverflowError:
            raise DomainError("feature indices must be in [0, 2^63)") from None
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.indices.ndim != 1:
            raise DomainError("indices and values must be 1-D")
        if self.indices.shape != self.values.shape:
            raise DomainError("indices and values must have equal length")
        if self.indices.size and self.indices.min() < 0:
            raise DomainError("feature indices must be in [0, 2^63)")
        if self.values.size and not np.isfinite(self.values).all():
            raise DomainError("feature values must be finite")
        if self.label < 0:
            raise DomainError(f"label must be non-negative, got {self.label}")

    @classmethod
    def _slices(cls, labels: list[int], indices: np.ndarray, values: np.ndarray,
                ends: list[int]) -> list["SparseExample"]:
        """Examples whose arrays are consecutive slices of ``indices`` and
        ``values``, the i-th ending at ``ends[i]``.  The caller has checked
        the int64/float64 arrays and the labels, so ``__post_init__``'s
        per-row checks are skipped."""
        examples = []
        start = 0
        for label, end in zip(labels, ends):
            example = object.__new__(cls)
            example.label, example.indices, example.values = label, indices[start:end], values[start:end]
            examples.append(example)
            start = end
        return examples

    @classmethod
    def from_pairs(cls, label: int, pairs) -> "SparseExample":
        return cls(label, [i for i, _ in pairs], [v for _, v in pairs])

    def features(self) -> list[tuple[int, float]]:
        return list(zip(self.indices.tolist(), self.values.tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseExample):
            return NotImplemented
        return (
            self.label == other.label
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.values, other.values)
        )


@dataclass
class DatasetMeta:
    """Shape of a dataset: class count, raw feature width, and size."""

    num_classes: int
    num_raw_features: int
    example_count: int


def _parse_chunk(lines: list[str]) -> list[SparseExample] | None:
    """Parse a chunk of lines in bulk, or return None if any line fails a
    check; the caller then re-parses the lines one at a time.

    Values go through Python's ``int`` and ``float``, so the grammar
    (signs, ``_``, non-ASCII digits) is that of :func:`parse_example`, and
    str.split() cuts a line into the tokens ``_TOKEN`` finds.
    """
    try:
        rows = [line.split() for line in lines]
        labels = list(map(int, [row.pop(0) for row in rows]))
        ends = list(accumulate(map(len, rows)))
        pairs = " ".join(chain.from_iterable(rows))
        if not _one_colon_each(pairs, ends[-1]):
            return None
        fields = pairs.replace(":", " ").split(" ") if pairs else []
        indices = np.array(list(map(int, fields[0::2])), dtype=np.int64)
        values = np.array(list(map(float, fields[1::2])), dtype=np.float64)
    except (IndexError, ValueError, OverflowError):
        return None
    if min(labels) < 0 or (indices < 0).any() or not np.isfinite(values).all():
        return None
    return SparseExample._slices(labels, indices, values, ends)


def _one_colon_each(pairs: str, count: int) -> bool:
    """Whether each of the ``count`` space-joined tokens in ``pairs`` holds
    exactly one colon.  An empty side of a colon becomes an empty field,
    which ``int`` and ``float`` reject."""
    # UTF-8 never puts a space or colon byte inside a multi-byte character
    text = np.frombuffer(pairs.encode("utf-8"), dtype=np.uint8)
    colons = np.flatnonzero(text == ord(":"))
    spaces = np.flatnonzero(text == ord(" "))
    # the i-th colon lies between the (i-1)-th and the i-th space
    return colons.size == count and bool((colons[:-1] < spaces).all() and (colons[1:] > spaces).all())


def _parse_lines(lines: list[str], numbers) -> Iterator[SparseExample]:
    """Yield the examples of a chunk whose lines are numbered ``numbers``.

    A chunk that fails a check is re-parsed one line at a time, so a bad
    line raises after the examples before it, as a line-by-line parse does.
    """
    parsed = _parse_chunk(lines)
    if parsed is None:
        parsed = (parse_example(line, line_number=number) for line, number in zip(lines, numbers))
    yield from parsed


def parse_example(line: str, *, line_number: int | None = None) -> SparseExample:
    """Parse one ``<label> <idx>:<val> ...`` line token by token.

    Raises :class:`ParseError` naming the line/column of the first malformed
    token and :class:`DomainError` for a negative label; the bulk readers
    re-parse a chunk the chunk parser rejects through here.
    """
    tokens = _TOKEN.finditer(line)
    first = next(tokens, None)
    if first is None:
        raise ParseError("empty line, expected a label", line=line_number, column=1)
    try:
        label = int(first.group())
    except ValueError:
        raise ParseError(
            f"label must be an integer, got {first.group()!r}",
            line=line_number, column=first.start() + 1,
        ) from None
    if label < 0:
        raise DomainError(f"negative label {label}" + (f" on line {line_number}" if line_number else ""))

    indices: list[int] = []
    values: list[float] = []
    for tok in tokens:
        col = tok.start() + 1
        text = tok.group()
        idx_s, sep, val_s = text.partition(":")
        if not sep:
            raise ParseError(f"expected <index>:<value>, got {text!r}", line=line_number, column=col)
        try:
            idx = int(idx_s)
        except ValueError:
            raise ParseError(f"feature index must be an integer, got {idx_s!r}", line=line_number, column=col) from None
        if not 0 <= idx < 1 << 63:
            raise ParseError(f"feature index must be in [0, 2^63), got {idx}", line=line_number, column=col)
        try:
            val = float(val_s)
        except ValueError:
            raise ParseError(f"feature value must be a real, got {val_s!r}", line=line_number, column=col) from None
        if not math.isfinite(val):
            raise ParseError(f"feature value must be finite, got {val_s!r}", line=line_number, column=col)
        indices.append(idx)
        values.append(val)

    return SparseExample(label, np.array(indices, dtype=np.int64), np.array(values, dtype=np.float64))


def format_example(example: SparseExample) -> str:
    """Render an example back to its text form; round-trips through parse."""
    parts = [str(example.label)]
    parts.extend(f"{i}:{v!r}" for i, v in zip(example.indices.tolist(), example.values.tolist()))
    return " ".join(parts)


def _open_text(path: str) -> IO[str]:
    if str(path).endswith(".gz"):
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, "r", encoding="utf-8")


def stream_dataset(path: str, permute: bool = False, seed: int = 0) -> Iterator[SparseExample]:
    """Yield parsed examples from ``path``.

    In-order mode streams lazily in file order, ``_CHUNK_LINES`` lines at a
    time.  Permuted mode materializes the line list and yields a uniformly
    random permutation determined by ``seed`` (>= 0); the same seed always
    reproduces the same order.
    """
    if permute and seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    # text mode turns \r\n and \r into \n, and lines split on \n only
    with _open_text(path) as fh:
        if not permute:
            first = 1
            while lines := list(islice(fh, _CHUNK_LINES)):
                yield from _parse_lines(lines, range(first, first + len(lines)))
                first += len(lines)
            return
        lines = fh.readlines()
    order = np.random.default_rng(seed).permutation(len(lines)).tolist()
    for start in range(0, len(order), _CHUNK_LINES):
        chunk = order[start:start + _CHUNK_LINES]
        yield from _parse_lines([lines[pos] for pos in chunk], [pos + 1 for pos in chunk])


def read_examples(path: str, permute: bool = False, seed: int = 0) -> list[SparseExample]:
    """Materialize a dataset as a list."""
    return list(stream_dataset(path, permute=permute, seed=seed))


def scan_dataset(path: str) -> DatasetMeta:
    """One pass over a file to infer classes (max label + 1), raw feature
    width (max index + 1), and example count."""
    max_label = -1
    max_index = -1
    count = 0
    for ex in stream_dataset(path):
        count += 1
        if ex.label > max_label:
            max_label = ex.label
        if ex.indices.size:
            m = int(ex.indices.max())
            if m > max_index:
                max_index = m
    return DatasetMeta(num_classes=max_label + 1, num_raw_features=max_index + 1, example_count=count)
