"""The column parser against the scalar cascade it replaced.

``tests/scalar_oracle.py`` keeps the per-cell ``strptime`` cascade; the
column parser must infer the same type and store byte-identical values
for any mix of cells.  The structural tests pin the two facts the
parser's shortcuts rest on: at most one format accepts any string (so
trying the column's last format first changes nothing), and no format
accepts a string that parses as a number (so such strings skip the
cascade).
"""

import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dataset import ColumnType, build_column, infer_type
from repro.dataset.inference import (
    _TEMPORAL_FORMATS,
    _parse_number,
    _shape,
)
from tests import scalar_oracle as oracle

MONTHS = ["Jan", "Feb", "Mar", "Apr", "May", "Jun",
          "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"]

instants = st.datetimes(
    min_value=dt.datetime(1900, 1, 1), max_value=dt.datetime(2100, 12, 31)
)


def _unpadded(moment: dt.datetime) -> str:
    return f"{moment.year}-{moment.month}-{moment.day} {moment.hour}:{moment.minute}"


# Every format, zero-padded, with the month names of the C locale.
formatted = st.builds(
    lambda moment, fmt: moment.strftime(fmt), instants,
    st.sampled_from(_TEMPORAL_FORMATS),
)
date_like = st.one_of(
    formatted,
    instants.map(_unpadded),
    instants.map(lambda m: f"{m.year}-{m.month}-{m.day}"),
    instants.map(lambda m: f"{m.month}/{m.day}/{m.year}"),
    instants.map(lambda m: m.strftime("%Y-%m-%dT%H:%M")),
    instants.map(lambda m: m.strftime("%Y-%m-%d %H:%M:%S.%f")),
    instants.map(lambda m: m.strftime("%H:%M:%S.%f")[:-3]),
    instants.map(lambda m: m.strftime("%Y-%m-%dt%H:%M:%S")),
    instants.map(lambda m: m.strftime("%Y-%m-%d  %H:%M")),
    instants.map(lambda m: m.strftime(" %d-%b %H:%M ").upper()),
    instants.map(lambda m: m.strftime("%b %Y").lower()),
    st.sampled_from([
        "2015-02-30", "2015-02-29", "2016-02-29", "2015-13-01",
        "0000-01-01", "2015-01-01 00:00:60", "2015-01-01 24:00:00",
        "29-Feb", "31-Apr 10:00", "12:60", "25:00", "2015-1-3",
        "2015-01-03T14:30", "1/3/2015 9:05", "Sept 2015", "2015/1/3",
        "1/ 3/2015", "2015/01/ 3", " 3-Jan 10:00",
    ]),
)
number_like = st.one_of(
    st.sampled_from([
        "1_000", "1e-5", "1,234", " 12 ", "inf", "-inf", "nan", "NaN",
        "-0", "+3.5", "1e999", ".5", "1,2,3", "0x10", "１２",
    ]),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False).map(str),
    st.integers(min_value=1700, max_value=2300).map(str),
)
cells = st.one_of(
    date_like,
    number_like,
    st.integers(min_value=1700, max_value=2300),
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(min_value=1700, max_value=2300).map(round),
    st.floats(min_value=1790, max_value=2210, allow_nan=False),
    st.floats(allow_nan=True, allow_infinity=True, width=64).filter(
        lambda v: not (math.isfinite(v) and abs(v) > 1e9)
    ),
    st.builds(np.int64, st.integers(min_value=1790, max_value=2210)),
    st.booleans(),
    instants,
    instants.map(lambda m: m.date()),
    st.sampled_from([None, "", "   ", float("nan"), "NA", "null", "alpha",
                     "UA", "New York", "A12", "12 oz", "3-5"]),
)
# Columns dominated by one kind of cell, so every type gets inferred,
# with a few stray cells mixed in.
columns = st.one_of(
    st.lists(cells, max_size=40),
    st.builds(
        lambda main, stray: main + stray,
        st.lists(date_like, min_size=1, max_size=60),
        st.lists(cells, max_size=3),
    ),
    st.builds(
        lambda main, stray: main + stray,
        st.lists(number_like, min_size=1, max_size=60),
        st.lists(cells, max_size=3),
    ),
    st.builds(
        lambda main, stray: main + stray,
        st.lists(st.one_of(
            st.integers(min_value=1800, max_value=2200),
            st.integers(min_value=1800, max_value=2200).map(float),
        ), min_size=1, max_size=60),
        st.lists(st.one_of(cells, st.floats(min_value=1800, max_value=2200)),
                 max_size=2),
    ),
    st.lists(formatted, min_size=1, max_size=60),
)


def _accepting_formats(text: str) -> list:
    accepted = []
    for fmt in _TEMPORAL_FORMATS:
        try:
            dt.datetime.strptime(text, fmt)
        except ValueError:
            continue
        accepted.append(fmt)
    return accepted


class TestMatchesScalarCascade:
    @given(columns)
    @example([2010] * 30 + [2011.5])
    @settings(max_examples=400, deadline=None)
    def test_inferred_type_and_fingerprint(self, values):
        column = build_column("c", values)
        expected = oracle.build_column("c", values)
        assert column.ctype is expected.ctype
        assert column.fingerprint() == expected.fingerprint()
        assert infer_type(values) is oracle.infer_type(values)

    @given(columns, st.sampled_from(list(ColumnType)))
    @settings(max_examples=300, deadline=None)
    def test_pinned_type_fingerprint(self, values, ctype):
        column = build_column("c", values, ctype)
        assert column.fingerprint() == oracle.build_column(
            "c", values, ctype
        ).fingerprint()

    @given(st.lists(cells, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_parse_temporal_per_cell(self, values):
        from repro.dataset import parse_temporal

        for value in values:
            assert parse_temporal(value) == oracle.parse_temporal(value)

    def test_invalid_iso_date_among_valid_ones(self):
        # The valid cells set the column's format guess; the invalid
        # day under that same format must still be rejected.
        values = ["2015-01-03", "2015-02-30", "2015-03-01"] * 20
        column = build_column("c", values, ColumnType.TEMPORAL)
        assert column.fingerprint() == oracle.build_column(
            "c", values, ColumnType.TEMPORAL
        ).fingerprint()
        assert column.values[1] == 0.0

    def test_large_number_in_temporal_column_loads(self):
        # The scalar path added the seconds to a datetime and overflowed
        # past year 9999; the value is kept as plain seconds instead.
        column = build_column("c", ["2015-01-03", "1e12"], ColumnType.TEMPORAL)
        assert column.values[1] == 1e12


# Short strings over the characters the formats and floats are made of.
fuzz = st.text(alphabet="0123456789-/:. TtJanFebMayDec,e+_", max_size=20)


class TestFormatStructure:
    @given(st.one_of(date_like, number_like, fuzz))
    @settings(max_examples=600, deadline=None)
    def test_at_most_one_format_accepts_a_string(self, value):
        text = value.strip()
        accepted = _accepting_formats(text)
        assert len(accepted) <= 1, accepted
        for fmt in accepted:
            assert _shape(fmt).fullmatch(text), fmt

    @given(st.one_of(number_like, fuzz))
    @settings(max_examples=600, deadline=None)
    def test_no_format_accepts_a_number(self, value):
        if _parse_number(value) is not None:
            assert _accepting_formats(value.strip()) == []

    @pytest.mark.parametrize("fmt", _TEMPORAL_FORMATS)
    def test_every_month_name_passes_the_shape(self, fmt):
        for month in MONTHS:
            text = dt.datetime(2015, MONTHS.index(month) + 1, 9, 7, 5, 3)
            assert _shape(fmt).fullmatch(text.strftime(fmt))
