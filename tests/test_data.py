import gzip

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recalltree.data import (
    _CHUNK_LINES,
    _TOKEN,
    SparseExample,
    _parse_chunk,
    _parse_lines,
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
        ("0 0:1 99999999999999999999:0.5", 7),  # index past int64
        ("1 9223372036854775808:1", 3),         # index 2^63
        ("", 1),             # empty line
    ])
    def test_malformed_token_names_column(self, line, column):
        with pytest.raises(ParseError) as err:
            parse_example(line, line_number=17)
        assert err.value.column == column
        if line:
            assert err.value.line == 17

    def test_largest_index(self):
        assert parse_example("1 9223372036854775807:1").features() == [(2**63 - 1, 1.0)]

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


def _check_fast_path(line: str) -> None:
    parsed = _parse_chunk([line])
    try:
        want = parse_example(line)
    except (ParseError, DomainError):
        assert parsed is None
    else:
        assert parsed is not None
        _assert_same_examples(parsed, [want])


class TestFastPathMatchesLocatedParse:
    """The split-based chunk parser, given one line, accepts it exactly
    when the token-by-token parse_example does, with the same example."""

    @given(_lines())
    @settings(max_examples=400, deadline=None)
    def test_same_example_or_same_error(self, line):
        _check_fast_path(line)

    @pytest.mark.parametrize("line", ["", " \t", "\x85", "-1 x:1", "1 -3:1 x", "4 2:1e999",
                                      "1 99999999999999999999:1"])
    def test_edge_lines(self, line):
        _check_fast_path(line)

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

    # these raised numpy's OverflowError ("too large to convert to C long")
    @pytest.mark.parametrize("index", [2**63, 2**64, -(2**63) - 1])
    def test_rejects_an_index_outside_int64(self, index):
        with pytest.raises(DomainError, match=r"feature indices must be in \[0, 2\^63\)"):
            SparseExample(0, [3, index], [1.0, 2.0])
        with pytest.raises(DomainError, match=r"feature indices must be in \[0, 2\^63\)"):
            SparseExample.from_pairs(0, [(3, 1.0), (index, 2.0)])

    def test_largest_index(self):
        assert SparseExample.from_pairs(0, [(2**63 - 1, 1.0)]).indices.tolist() == [2**63 - 1]

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

    def test_index_past_int64_is_parse_error(self, tmp_dataset):
        path = tmp_dataset(["1 0:1"] * 5 + ["0 0:1 99999999999999999999:0.5"])
        with pytest.raises(ParseError) as err:
            read_examples(path)
        assert (err.value.line, err.value.column) == (6, 7)

    def test_negative_seed_is_domain_error(self, tmp_dataset):
        path = tmp_dataset(self._lines(10))
        with pytest.raises(DomainError, match="seed must be >= 0"):
            next(stream_dataset(path, permute=True, seed=-1))

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


def _file_lines(path: str) -> list[str]:
    """A dataset file's lines: "\\r\\n" and "\\r" end a line as "\\n" does,
    and nothing else does (not "\\x0c", not "\\u2028")."""
    with open(path, "rb") as fh:
        data = fh.read()
    if path.endswith(".gz"):
        data = gzip.decompress(data)
    lines = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return lines[:-1] if lines[-1] == "" else lines


def _error(err: Exception):
    return type(err), str(err), getattr(err, "line", None), getattr(err, "column", None)


def _linewise(lines: list[str], numbers) -> tuple[list, tuple | None]:
    """The reference: parse_example one line at a time, up to the first error."""
    examples = []
    for number in numbers:
        try:
            examples.append(parse_example(lines[number - 1], line_number=number))
        except Exception as err:  # the exception itself is what is compared
            return examples, _error(err)
    return examples, None


def _drain(examples) -> tuple[list, tuple | None]:
    got = []
    try:
        for x in examples:
            got.append(x)
    except Exception as err:  # the exception itself is what is compared
        return got, _error(err)
    return got, None


def _assert_same_examples(got: list, want: list) -> None:
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert type(a.label) is int and a.label == b.label
        assert a.indices.dtype == np.int64 and a.values.dtype == np.float64
        assert a.indices.tobytes() == b.indices.tobytes()
        assert a.values.tobytes() == b.values.tobytes()
        assert a.importance == 1.0


def _good_lines(n: int, seed: int = 0) -> list[str]:
    """Valid lines in the grammar's odd corners as well as plain ones."""
    rng = np.random.default_rng(seed)
    odd = ["+4:1", "1_0:2", "١٢:٣.5", "१:2", "3:٤", "7:-0.0", "2:1e-300", "5:+.5", "0:1E3"]
    seps = [" ", "  ", "\t", "\x0c", "\u2028", "\xa0"]
    lines = []
    for _ in range(n):
        tokens = [str(int(rng.integers(0, 40)))]
        for _ in range(int(rng.integers(0, 6))):
            if rng.random() < 0.2:
                tokens.append(odd[int(rng.integers(len(odd)))])
            else:
                tokens.append(f"{int(rng.integers(0, 10**6))}:{float(rng.standard_normal())!r}")
        line = tokens[0]
        for token in tokens[1:]:
            line += seps[int(rng.integers(len(seps)))] + token
        lines.append(line + (" " if rng.random() < 0.1 else ""))
    return lines


_BAD_LINES = {
    "parse": "3 1:2 broken: 4:5",
    "domain": "-2 0:1",
    "blank": "",
    "nonfinite": "1 3:1e999",
}
_SIZE = 2 * _CHUNK_LINES + 100


class TestChunkedReadersMatchLinewise:
    """stream_dataset, read_examples and scan_dataset, which parse a chunk
    of lines at a time, give what parse_example gives line by line: the
    same examples, and the same error after the same examples."""

    def _check(self, path: str, permute: bool = False, seed: int = 0) -> None:
        lines = _file_lines(path)
        numbers = range(1, len(lines) + 1)
        if permute:
            numbers = (np.random.default_rng(seed).permutation(len(lines)) + 1).tolist()
        want, want_err = _linewise(lines, numbers)
        got, got_err = _drain(stream_dataset(path, permute=permute, seed=seed))
        _assert_same_examples(got, want)
        assert got_err == want_err
        try:
            bulk = read_examples(path, permute=permute, seed=seed)
        except Exception as err:  # the exception itself is what is compared
            assert _error(err) == want_err
        else:
            assert want_err is None
            _assert_same_examples(bulk, want)

    @pytest.mark.parametrize("kind", sorted(_BAD_LINES))
    @pytest.mark.parametrize("at", [0, _CHUNK_LINES - 1, _CHUNK_LINES, _SIZE - 1],
                             ids=["first", "last_of_chunk", "first_of_next", "last"])
    def test_bad_line(self, tmp_dataset, at, kind):
        lines = _good_lines(_SIZE)
        lines[at] = _BAD_LINES[kind]
        self._check(tmp_dataset(lines))

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("trailing", [True, False], ids=["trailing", "no_trailing"])
    @pytest.mark.parametrize("gz", [False, True], ids=["text", "gz"])
    def test_line_endings(self, tmp_dataset, newline, trailing, gz):
        lines = _good_lines(_SIZE, seed=1)
        path = tmp_dataset(lines, newline=newline, trailing=trailing, gz=gz)
        assert len(_file_lines(path)) == _SIZE
        self._check(path)
        lines[_CHUNK_LINES] = _BAD_LINES["parse"]
        self._check(tmp_dataset(lines, "bad.txt", newline=newline, trailing=trailing, gz=gz))

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("bad", [False, True], ids=["clean", "bad_line"])
    def test_permuted(self, tmp_dataset, seed, bad):
        lines = _good_lines(_SIZE, seed=4)
        if bad:
            lines[_CHUNK_LINES - 1] = _BAD_LINES["domain"]
        self._check(tmp_dataset(lines, newline="\r\n"), permute=True, seed=seed)

    def test_label_only_lines(self, tmp_dataset):
        self._check(tmp_dataset([str(i % 7) for i in range(_CHUNK_LINES + 3)]))

    def test_scan_dataset(self, tmp_dataset):
        lines = _good_lines(_SIZE, seed=5)
        path = tmp_dataset(lines, gz=True)
        want, _ = _linewise(lines, range(1, _SIZE + 1))
        meta = scan_dataset(path)
        assert meta.example_count == _SIZE
        assert meta.num_classes == max(x.label for x in want) + 1
        assert meta.num_raw_features == max(int(x.indices.max()) for x in want if x.indices.size) + 1
        lines[-1] = _BAD_LINES["nonfinite"]
        with pytest.raises(ParseError) as err:
            scan_dataset(tmp_dataset(lines))
        assert (err.value.line, err.value.column) == (_SIZE, 3)


@st.composite
def _chunks(draw):
    """A chunk of lines, mostly valid, sometimes with malformed ones."""
    odd = st.sampled_from(["+4:1", "1_0:2", "١٢:٣.5", "१:2", "3:٤"])
    seps = st.sampled_from(_SEPARATORS)

    def good():
        tokens = [draw(st.integers(0, 50).map(str) | st.sampled_from(["+3", "1_0", "١"]))]
        tokens += draw(st.lists(_pair() | odd, max_size=6))
        return "".join(token + draw(seps) for token in tokens)

    return [draw(_lines()) if draw(st.integers(0, 5)) == 0 else good()
            for _ in range(draw(st.integers(1, 12)))]


def _check_chunk(lines: list[str]) -> None:
    numbers = range(1, len(lines) + 1)
    want, want_err = _linewise(lines, numbers)
    got, got_err = _drain(_parse_lines(lines, numbers))
    _assert_same_examples(got, want)
    assert got_err == want_err


class TestChunkMatchesLocatedParse:
    @given(_chunks())
    @settings(max_examples=300, deadline=None)
    def test_same_examples_then_same_error(self, lines):
        _check_chunk(lines)

    # a token with two colons beside one with none has one colon per token
    # on average, and splits into valid fields one place out of step
    @pytest.mark.parametrize("lines", [["1 1:2:3 8"], ["1 8 1:2:3"], ["1 1:2:3", "2 8"],
                                       ["0 4:1", "2 8 5:1:2"], ["1 :1 2:"]])
    def test_colons_out_of_step(self, lines):
        _check_chunk(lines)
