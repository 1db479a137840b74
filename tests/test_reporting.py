"""Report writers: JSON layout, CSV cells, refusal of non-finite floats, and
streamed writers that match the whole-text ones byte for byte."""

import io
import itertools
import json
import math
from datetime import datetime, timezone
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from ghzgap import reporting
from ghzgap.errors import DomainError
from ghzgap.reporting import BATCH_ROWS, dumps_csv, dumps_json, encode, write_csv, write_json


class TestJson:
    def test_layout_is_pinned(self):
        payload = {
            "empty_object": {},
            "empty_list": [],
            "missing": None,
            "flag": False,
            "big": 2**70,
            "ratio": Fraction(3, 8),
            "name": "Schrödinger",
            "rows": [1, [0.1, -2.5e-300], {"x": 1e22}],
        }
        assert dumps_json(payload) == (
            "{\n"
            '  "empty_object": {},\n'
            '  "empty_list": [],\n'
            '  "missing": null,\n'
            '  "flag": false,\n'
            '  "big": 1180591620717411303424,\n'
            '  "ratio": "3/8",\n'
            '  "name": "Schr\\u00f6dinger",\n'
            '  "rows": [\n'
            "    1,\n"
            "    [\n"
            "      0.1,\n"
            "      -2.5e-300\n"
            "    ],\n"
            "    {\n"
            '      "x": 1e+22\n'
            "    }\n"
            "  ]\n"
            "}"
        )

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_float_refused(self, value):
        with pytest.raises(DomainError):
            dumps_json({"x": value})

    def test_unknown_type_refused(self):
        with pytest.raises(DomainError):
            dumps_json({"x": object()})

    def test_floats_round_trip(self):
        values = [0.1, 1 / 3, 5e-324, 1.7976931348623157e308, 0.0, -0.0]
        assert json.loads(dumps_json(values)) == values


class TestCsv:
    def test_cells(self):
        text = dumps_csv(
            ["q", "p", "note", "absent"],
            [{"q": 3, "p": 0.1, "note": "a,b", "absent": None}, {"q": 4, "p": 2.5e-300}],
        )
        assert text == 'q,p,note,absent\n3,0.1,"a,b",\n4,2.5e-300,,\n'

    def test_header_only(self):
        assert dumps_csv(["q", "eps"], []) == "q,eps\n"


#: Values that stress the row encoder: escapes, the text of a row boundary,
#: integers past 64 bits and floats at the ends of the binary64 range.
_SPECIAL_VALUES = [
    'say "hi"', "back\\slash", "line\nbreak", "Schrödinger ✓", "},\n      {", "",
    2**64 + 1, -(2**70), 0, -0.0, 5e-324, 1e308, -1.5, Fraction(3, 8), None, True, False,
]

_values = st.one_of(
    st.sampled_from(_SPECIAL_VALUES),
    st.text(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.none(),
    st.booleans(),
)


def _pools(names, values):
    """Column names and a few distinct rows of cells in their order, repeated
    to each tested length."""
    return st.lists(names, min_size=1, max_size=5, unique=True).flatmap(
        lambda columns: st.tuples(
            st.just(columns), st.lists(st.tuples(*[values] * len(columns)), min_size=1, max_size=4)
        )
    )


_row_pools = _pools(st.text(max_size=8), _values)

#: Cells the row template writes: ints and finite floats, with a negative
#: zero, the ends of the binary64 range and an int past 64 bits.
_plain_values = st.one_of(
    st.sampled_from([0, -0.0, 5e-324, 1e308, -1e308, 2**64 + 1, -(2**70)]),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
)

#: Column names with a JSON escape, the template's own `%`, text outside
#: ASCII, and the text of a non-finite float.
_plain_pools = _pools(
    st.one_of(
        st.sampled_from(
            ['say "hi"', "back\\slash", "100%", "%r", "%%s", "Schrödinger ✓", "inf", "nan"]
        ),
        st.text(max_size=8),
    ),
    _plain_values,
)

_ROW_COUNTS = [0, 1, BATCH_ROWS - 1, BATCH_ROWS, BATCH_ROWS + 1]

#: No shrinking: an example encodes up to BATCH_ROWS + 1 rows with the
#: pure-Python encoder, and its pool of at most four rows is already small.
_streamed = settings(
    max_examples=30, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate]
)


def _rows(pool, count):
    return list(itertools.islice(itertools.cycle(pool[1]), count))


def _dicts(pool, rows):
    """`rows` as the dicts the whole-text writers take."""
    return [dict(zip(pool[0], row)) for row in rows]


def assert_same_text(got, want):
    """Equal texts; a mismatch shows where they part instead of a diff of
    two texts of up to a megabyte."""
    if got != want:
        pairs = enumerate(zip(got, want))
        at = next((i for i, (a, b) in pairs if a != b), min(len(got), len(want)))
        window = slice(max(at - 60, 0), at + 60)
        assert got[window] == want[window], f"texts part at character {at}"
        assert len(got) == len(want)


def assert_json_is_whole_text(pool, count, scalar):
    rows = _rows(pool, count)
    fields = {"manifest": {"command": "enumerate", "parameters": {"q": 3}}, "x": scalar}
    out = io.StringIO()
    write_json(out, {**fields, "rows": encode("json", pool[0], iter(rows))})
    assert_same_text(out.getvalue(), dumps_json({**fields, "rows": _dicts(pool, rows)}) + "\n")


def assert_csv_is_whole_text(pool, count):
    rows = _rows(pool, count)
    out = io.StringIO()
    write_csv(out, encode("csv", pool[0], iter(rows)))
    assert_same_text(out.getvalue(), dumps_csv(pool[0], _dicts(pool, rows)))


class TestStreamedWriters:
    @_streamed
    @given(pool=_row_pools, count=st.sampled_from(_ROW_COUNTS), scalar=_values)
    def test_json_matches_whole_text(self, pool, count, scalar):
        assert_json_is_whole_text(pool, count, scalar)

    @_streamed
    @given(pool=_row_pools, count=st.sampled_from(_ROW_COUNTS))
    def test_csv_matches_whole_text(self, pool, count):
        assert_csv_is_whole_text(pool, count)

    @_streamed
    @given(pool=_plain_pools, count=st.sampled_from(_ROW_COUNTS), scalar=_plain_values)
    def test_plain_json_matches_whole_text(self, pool, count, scalar):
        assert_json_is_whole_text(pool, count, scalar)

    @_streamed
    @given(pool=_plain_pools, count=st.sampled_from(_ROW_COUNTS))
    def test_plain_csv_matches_whole_text(self, pool, count):
        assert_csv_is_whole_text(pool, count)

    # The JSON writer encodes the cells of each batch in one pass, and a CSV
    # batch of ints and floats never reaches csv.writer.
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_plain_rows_take_the_row_template(self, monkeypatch, fmt):
        columns = ["q", 'say "hi"', "100%", "Schrödinger", "inf", "nan"]
        cells = [(3, -0.0, 5e-324, 1e300, 2**64 + 1, 0.1), (-(2**70), 0.0, -1.5, 7, 2, 1e-300)]
        pool = (columns, cells)
        rows = _rows(pool, BATCH_ROWS + 1)
        dicts = _dicts(pool, rows)
        want = dumps_json({"rows": dicts}) + "\n" if fmt == "json" else dumps_csv(columns, dicts)
        name = "_json_cells" if fmt == "json" else "_encode_csv"
        calls = []  # what each call of that encoder was given
        encoder = getattr(reporting, name)
        monkeypatch.setattr(reporting, name, lambda a: calls.append(a) or encoder(a))
        out = io.StringIO()
        if fmt == "json":
            write_json(out, {"rows": encode("json", columns, iter(rows))})
            assert [len(a) for a in calls] == [BATCH_ROWS * len(columns), len(columns)]
        else:
            write_csv(out, encode("csv", columns, iter(rows)))
            assert calls == [[columns]]  # only the header
        assert_same_text(out.getvalue(), want)

    # A cell of any other type sends its CSV batch to csv.writer; JSON writes
    # True, None, 'x', Fraction(3, 8) and np.float64(0.1) as dumps_json does
    # and refuses np.float64(inf).
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("position", [0, BATCH_ROWS])
    @pytest.mark.parametrize(
        "cell", [True, None, "x", Fraction(3, 8), np.float64(0.1), np.float64(math.inf)], ids=repr
    )
    def test_other_cells_match_whole_text(self, fmt, position, cell):
        rows = [(3, 0.25)] * (BATCH_ROWS + 1)
        rows[position] = (4, cell)
        pool = (["q", "p"], rows)
        if fmt == "csv":
            assert_csv_is_whole_text(pool, len(rows))
        elif isinstance(cell, float) and not math.isfinite(cell):
            out = io.StringIO()
            with pytest.raises(DomainError):
                write_json(out, {"rows": encode("json", pool[0], iter(rows))})
        else:
            assert_json_is_whole_text(pool, len(rows), 0)

    # Column names that hold "inf" and "nan", so that finding either text in
    # a block would not tell a non-finite cell.
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_cell_refused_before_any_write(self, value):
        rows = [(1, 0.5)] * BATCH_ROWS
        rows[-1] = (1, value)
        out = io.StringIO()
        with pytest.raises(DomainError):
            write_json(out, {"q": 3, "rows": encode("json", ["inf", "nan"], iter(rows))})
        assert out.getvalue() == ""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("row", [(1,), (1, 0.5, 2)], ids=["short", "long"])
    def test_wrong_width_row_refused_before_any_write(self, fmt, row):
        rows = [(1, 0.5)] * BATCH_ROWS
        rows[-1] = row
        out = io.StringIO()
        with pytest.raises(DomainError):
            if fmt == "json":
                write_json(out, {"q": 3, "rows": encode("json", ["q", "p"], iter(rows))})
            else:
                write_csv(out, encode("csv", ["q", "p"], iter(rows)))
        assert out.getvalue() == ""

    @pytest.mark.parametrize("row, column", [(0, 0), (BATCH_ROWS - 1, 0), (BATCH_ROWS - 1, 1)])
    @pytest.mark.parametrize("cell", [[], [2], [2, 3], {}, {"a": 1}, (2, 3)], ids=repr)
    def test_container_cell_refused_before_any_write(self, row, column, cell):
        rows = [[1, 0.5] for _ in range(BATCH_ROWS)]
        rows[row][column] = cell
        out = io.StringIO()
        with pytest.raises(DomainError):
            write_json(out, {"q": 3, "rows": encode("json", ["q", "p"], iter(rows))})
        assert out.getvalue() == ""

    def test_payload_without_rows_is_whole_text(self):
        out = io.StringIO()
        write_json(out, {"q": 3, "rows": [{"a": 1}]})
        assert out.getvalue() == dumps_json({"q": 3, "rows": [{"a": 1}]}) + "\n"

    @pytest.mark.parametrize("position", [0, BATCH_ROWS - 1])
    def test_nan_in_first_batch_writes_nothing(self, position):
        rows = [(0.5,) for _ in range(BATCH_ROWS + 1)]
        rows[position] = (float("nan"),)
        out = io.StringIO()
        with pytest.raises(DomainError):
            write_json(out, {"q": 3, "rows": encode("json", ["p"], iter(rows))})
        assert out.getvalue() == ""

    def test_first_batch_read_before_any_write(self):
        def rows():
            yield (0.5,)
            raise LookupError("row failed")

        for write in (
            lambda out: write_json(out, {"rows": encode("json", ["p"], rows())}),
            lambda out: write_csv(out, encode("csv", ["p"], rows())),
        ):
            out = io.StringIO()
            with pytest.raises(LookupError):
                write(out)
            assert out.getvalue() == ""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_fragments_of_no_rows_are_the_empty_block(self, fmt):
        # no rows encode to no text, so there is nothing to cut
        assert reporting.fragments(fmt, ["a", "b"], []) == [""]
        rows = [("a#b", 1), ("c", 2)]
        whole = next(encode(fmt, ["a", "b"], rows).blocks)
        assert "#".join(reporting.fragments(fmt, ["a", "b"], rows)) == whole


#: The first and last second of the years 1 to 9999, by `datetime`.
_FIRST_EPOCH = int(datetime(1, 1, 1, tzinfo=timezone.utc).timestamp())
_LAST_EPOCH = int(datetime(9999, 12, 31, 23, 59, 59, tzinfo=timezone.utc).timestamp())


class TestTimestamp:
    @settings(max_examples=300, deadline=None)
    @given(epoch=st.integers(_FIRST_EPOCH, _LAST_EPOCH))
    @example(epoch=_FIRST_EPOCH)
    @example(epoch=_LAST_EPOCH)
    @example(epoch=-1)
    def test_matches_datetime_isoformat(self, epoch):
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("SOURCE_DATE_EPOCH", str(epoch))
            timestamp = reporting._timestamp()
        assert timestamp == datetime.fromtimestamp(epoch, tz=timezone.utc).isoformat()

    @pytest.mark.parametrize(
        "epoch", [_FIRST_EPOCH - 1, _LAST_EPOCH + 1, -(10**30), 10**30], ids=str
    )
    def test_epoch_outside_the_years_1_to_9999_refused(self, monkeypatch, epoch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", str(epoch))
        with pytest.raises(DomainError) as info:
            reporting._timestamp()
        assert str(info.value).startswith(f"SOURCE_DATE_EPOCH {epoch} ")
