"""Sparse examples, text parsing, and dataset streaming.

Dataset files are line oriented, one example per line::

    <label> <index>:<value> <index>:<value> ...

Labels are dense non-negative integers in ``[0, K)``, indices are
non-negative integers into a declared raw feature space, and values are
finite decimal reals.  Duplicate indices are legal and are kept in order;
they contribute additively when an example is scored.  Files ending in
``.gz`` are transparently decompressed.
"""

from __future__ import annotations

import gzip
import math
import re
from dataclasses import dataclass
from typing import IO, Iterator

import numpy as np

from .errors import DomainError, ParseError

_TOKEN = re.compile(r"\S+")


@dataclass
class SparseExample:
    """One labeled example: a class id plus a sparse feature vector."""

    label: int
    indices: np.ndarray
    values: np.ndarray
    importance: float = 1.0

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.indices.shape != self.values.shape:
            raise DomainError("indices and values must have equal length")
        if self.indices.size and self.indices.min() < 0:
            raise DomainError("feature indices must be non-negative")
        if self.values.size and not np.isfinite(self.values).all():
            raise DomainError("feature values must be finite")
        if not (math.isfinite(self.importance) and self.importance > 0):
            raise DomainError("importance must be a positive finite real")
        if self.label < 0:
            raise DomainError(f"label must be non-negative, got {self.label}")

    @classmethod
    def from_pairs(cls, label: int, pairs, importance: float = 1.0) -> "SparseExample":
        idx = [i for i, _ in pairs]
        val = [v for _, v in pairs]
        return cls(label, np.array(idx, dtype=np.int64), np.array(val, dtype=np.float64), importance)

    def features(self) -> list[tuple[int, float]]:
        return list(zip(self.indices.tolist(), self.values.tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseExample):
            return NotImplemented
        return (
            self.label == other.label
            and self.importance == other.importance
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.values, other.values)
        )


@dataclass
class DatasetMeta:
    """Shape of a dataset: class count, raw feature width, and size."""

    num_classes: int
    num_raw_features: int
    example_count: int


def parse_example(line: str, *, line_number: int | None = None) -> SparseExample:
    """Parse one ``<label> <idx>:<val> ...`` line.

    Raises :class:`ParseError` naming the line/column of a malformed token
    and :class:`DomainError` for a negative label.
    """
    # Fast path: whitespace split, one partition per token, and the
    # example's constructor as the only validation.  Any failure re-parses
    # the line with _parse_located, which names the offending token.
    # str.split() and the \S+ regex cut every line into the same tokens.
    try:
        label, *tokens = line.split()
        indices = []
        values = []
        for token in tokens:
            idx, _, val = token.partition(":")
            indices.append(int(idx))
            values.append(float(val))
        return SparseExample(int(label), np.array(indices, dtype=np.int64),
                             np.array(values, dtype=np.float64))
    except (ValueError, OverflowError):
        pass
    return _parse_located(line, line_number)


def _parse_located(line: str, line_number: int | None) -> SparseExample:
    """Token-by-token parse that raises at the first malformed token."""
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
        if idx < 0:
            raise ParseError(f"feature index must be non-negative, got {idx}", line=line_number, column=col)
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

    In-order mode streams lazily in file order.  Permuted mode materializes
    the line list and yields a uniformly random permutation determined by
    ``seed``; the same seed always reproduces the same order.
    """
    if not permute:
        with _open_text(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                yield parse_example(line, line_number=lineno)
        return

    with _open_text(path) as fh:
        lines = fh.readlines()
    order = np.random.default_rng(seed).permutation(len(lines))
    for pos in order:
        yield parse_example(lines[pos], line_number=int(pos) + 1)


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
