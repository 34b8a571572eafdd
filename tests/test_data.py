import gzip

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recalltree.data import (
    _TOKEN,
    SparseExample,
    _parse_located,
    format_example,
    parse_example,
    read_examples,
    scan_dataset,
    stream_dataset,
)
from recalltree.errors import DomainError, ParseError


class TestParseExample:
    def test_basic_line(self):
        ex = parse_example("3 0:1.0 7:0.5")
        assert ex.label == 3
        assert ex.features() == [(0, 1.0), (7, 0.5)]

    def test_label_only(self):
        ex = parse_example("0")
        assert ex.label == 0
        assert ex.features() == []

    def test_duplicate_indices_kept_in_order(self):
        ex = parse_example("2 5:1 5:1")
        assert ex.features() == [(5, 1.0), (5, 1.0)]

    def test_scientific_notation_value(self):
        assert parse_example("1 2:1e-3").features() == [(2, 0.001)]

    def test_negative_label_is_domain_error(self):
        with pytest.raises(DomainError):
            parse_example("-1 0:1")

    @pytest.mark.parametrize("line,column", [
        ("x 0:1", 1),        # non-integer label
        ("1.5 0:1", 1),      # fractional label
        ("1 a:2", 3),        # non-integer index
        ("1 3", 3),          # missing colon
        ("1 3:zz", 3),       # bad value
        ("1 3:inf", 3),      # non-finite value
        ("1 3:nan", 3),      # non-finite value
        ("1 -3:1", 3),       # negative index
        ("", 1),             # empty line
    ])
    def test_malformed_token_names_column(self, line, column):
        with pytest.raises(ParseError) as err:
            parse_example(line, line_number=17)
        assert err.value.column == column
        if line:
            assert err.value.line == 17

    def test_tolerates_extra_whitespace(self):
        ex = parse_example("  4   1:2.5   9:1  ")
        assert ex.label == 4
        assert ex.features() == [(1, 2.5), (9, 1.0)]


_SEPARATORS = [" ", "  ", "\t", "\x1c", "\x85", "\xa0", "\u3000"]
_MALFORMED = ["1:2:3", ":5", "7:", "x:1", "-1:2", "3:inf", "3:nan", "+4:1", "1_0:2",
              "١٢:٣.5", "१:2", "3:٤", "8", "",
              "99999999999999999999:1", "-99999999999999999999:1", "2:1e999"]
_LABELS = ["0", "3", "-1", "x", "+3", "1_0", "١", "1.5", "99999999999999999999"]


def _pair():
    return st.builds(lambda i, v: f"{i}:{v!r}",
                     st.integers(0, 10**6),
                     st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _lines(draw):
    seps = st.sampled_from(_SEPARATORS)
    if draw(st.integers(0, 9)) == 0:
        return "".join(draw(st.lists(seps, max_size=3)))
    tokens = [draw(st.sampled_from(_LABELS) | st.integers(0, 50).map(str))]
    tokens += draw(st.lists(_pair() | st.sampled_from(_MALFORMED), max_size=8))
    line = draw(st.sampled_from(["", " "]))
    for token in tokens:
        line += token + draw(seps)
    return line


def _outcome(parse, line):
    try:
        return parse(line, line_number=7)
    except Exception as err:  # the exception itself is what is compared
        return type(err), str(err), getattr(err, "line", None), getattr(err, "column", None)


class TestFastPathMatchesLocatedParse:
    """parse_example's split-based fast path gives the example, or the
    error with its line and column, that the token-by-token parse gives."""

    @given(_lines())
    @settings(max_examples=400, deadline=None)
    def test_same_example_or_same_error(self, line):
        assert _outcome(parse_example, line) == _outcome(_parse_located, line)

    @pytest.mark.parametrize("line", ["", " \t", "\x85", "-1 x:1", "1 -3:1 x", "4 2:1e999",
                                      "1 99999999999999999999:1"])
    def test_edge_lines(self, line):
        assert _outcome(parse_example, line) == _outcome(_parse_located, line)

    def test_split_and_token_regex_agree_on_every_code_point(self):
        text = "a".join(map(chr, range(0x110000)))
        assert text.split() == _TOKEN.findall(text)


class TestRoundTrip:
    @given(
        label=st.integers(0, 10_000),
        feats=st.lists(
            st.tuples(
                st.integers(0, 10**6),
                st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
            ),
            max_size=20,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_format_then_parse_is_identity(self, label, feats):
        ex = SparseExample.from_pairs(label, feats)
        assert parse_example(format_example(ex)) == ex


class TestSparseExampleInvariants:
    def test_rejects_nan_value(self):
        with pytest.raises(DomainError):
            SparseExample.from_pairs(0, [(1, float("nan"))])

    def test_rejects_negative_index(self):
        with pytest.raises(DomainError):
            SparseExample.from_pairs(0, [(-1, 1.0)])

    def test_rejects_nonpositive_importance(self):
        with pytest.raises(DomainError):
            SparseExample.from_pairs(0, [(1, 1.0)], importance=0.0)

    def test_rejects_negative_label(self):
        with pytest.raises(DomainError):
            SparseExample.from_pairs(-3, [(1, 1.0)])


class TestStreamDataset:
    def _lines(self, n, seed=0):
        rng = np.random.default_rng(seed)
        return [f"{int(rng.integers(0, 50))} 0:{rng.uniform():.6f}" for _ in range(n)]

    def test_in_order_is_repeatable(self, tmp_dataset):
        path = tmp_dataset(self._lines(100))
        a = [x.label for x in stream_dataset(path)]
        b = [x.label for x in stream_dataset(path)]
        assert a == b

    def test_permuted_same_seed_is_repeatable(self, tmp_dataset):
        path = tmp_dataset(self._lines(200))
        a = [x.label for x in stream_dataset(path, permute=True, seed=5)]
        b = [x.label for x in stream_dataset(path, permute=True, seed=5)]
        assert a == b

    def test_permuted_differs_from_in_order(self, tmp_dataset):
        path = tmp_dataset(self._lines(1000))
        plain = [x.label for x in stream_dataset(path)]
        shuffled = [x.label for x in stream_dataset(path, permute=True, seed=5)]
        assert sorted(plain) == sorted(shuffled)
        assert plain != shuffled

    def test_two_seeds_give_different_orders(self, tmp_dataset):
        path = tmp_dataset(self._lines(1000))
        a = [x.label for x in stream_dataset(path, permute=True, seed=1)]
        b = [x.label for x in stream_dataset(path, permute=True, seed=2)]
        assert a != b

    def test_parse_error_carries_line_number(self, tmp_dataset):
        path = tmp_dataset(["1 0:1", "2 0:2", "broken:"])
        with pytest.raises(ParseError) as err:
            list(stream_dataset(path))
        assert err.value.line == 3

    def test_gzip_input(self, tmp_path):
        path = tmp_path / "data.txt.gz"
        with gzip.open(path, "wt") as fh:
            fh.write("1 0:1.5\n2 3:0.25\n")
        got = read_examples(str(path))
        assert [x.label for x in got] == [1, 2]

    def test_scan_dataset(self, tmp_dataset):
        path = tmp_dataset(["0 0:1", "4 9:1", "2 3:1"])
        meta = scan_dataset(path)
        assert meta.num_classes == 5
        assert meta.num_raw_features == 10
        assert meta.example_count == 3
