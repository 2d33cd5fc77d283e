"""Differential tests: sqlite GROUP BY pushdown vs the in-memory kernels.

Every (transform, aggregate) signature the pushdown claims to serve
must reproduce the kernel's labels, sort keys, and bucket values
byte-for-byte, and the aggregated y within float tolerance — over
mixed storage classes, NA tokens, NULLs, constants, and empty
relations.  Signatures outside the contract must fall back with the
documented reason.
"""

import sqlite3
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset import ColumnType
from repro.dataset.sources import SqliteSource, from_source
from repro.language import bin_numeric, bin_temporal, group_categorical
from repro.language.ast import (
    AggregateOp,
    BinByGranularity,
    BinByUDF,
    BinIntoBuckets,
    BinGranularity,
    GroupBy,
)


def _make_db(directory, rows, column_sql, table="rel"):
    path = Path(directory) / "data.db"
    conn = sqlite3.connect(str(path))
    conn.execute(f"CREATE TABLE {table} ({column_sql})")
    width = column_sql.count(",") + 1
    holes = ", ".join("?" * width)
    conn.executemany(f"INSERT INTO {table} VALUES ({holes})", rows)
    conn.commit()
    conn.close()
    return path


def _load(path, table="rel", query=None, pushdown=True):
    source = SqliteSource(path, table=table if query is None else None,
                          query=query)
    return from_source(source, materialize=True, pushdown=pushdown)


def _kernel_parts(table, transform, op, y):
    """What the in-memory kernels produce for one chart signature."""
    column = table.column(transform.column)
    if isinstance(transform, GroupBy):
        small = group_categorical(column)
    elif isinstance(transform, BinByGranularity):
        small = bin_temporal(column, transform.granularity)
    else:
        small = bin_numeric(column, transform.n)
    counts = np.bincount(small.assignment, minlength=small.num_buckets)
    if op is AggregateOp.CNT:
        y_values = counts.astype(np.float64)
    else:
        weights = table.column(y).values.astype(np.float64)
        sums = np.bincount(
            small.assignment, weights=weights, minlength=small.num_buckets
        )
        if op is AggregateOp.SUM:
            y_values = sums
        else:
            with np.errstate(invalid="ignore", divide="ignore"):
                y_values = np.where(counts > 0, sums / counts, 0.0)
    return small, y_values


def _assert_served_matches(table, transform, op, y):
    provider = table.pushdown_provider
    parts = provider.serve(transform, op, y if op is not AggregateOp.CNT else None)
    assert parts is not None, provider.stats()
    small, y_values = _kernel_parts(table, transform, op, y)
    assert parts["labels"] == small.labels
    assert parts["sort_keys"] == tuple(
        np.asarray(small.sort_keys, dtype=np.float64).tolist()
    )
    assert parts["values"] == tuple(
        np.asarray(small.values, dtype=np.float64).tolist()
    )
    np.testing.assert_allclose(
        np.asarray(parts["y_values"]), y_values, rtol=1e-9, atol=1e-9
    )
    assert parts["source_rows"] == table.num_rows


# Raw sqlite cells across storage classes, NULLs, and NA tokens.
cat_cell = st.one_of(
    st.sampled_from(["red", "green", "blue", "NA", "null", ""]),
    st.none(),
    st.integers(min_value=0, max_value=3),
)
num_cell = st.one_of(
    st.none(),
    st.integers(min_value=-50, max_value=50),
    st.floats(min_value=-50, max_value=50, allow_nan=False),
    st.sampled_from(["NA", "n/a"]),
)
tem_cell = st.sampled_from(
    ["2021-01-05", "2021-02-11", "2021-02-28", "2022-07-01", None, "NA"]
)
y_cell = st.one_of(
    st.none(),
    st.integers(min_value=-100, max_value=100),
    st.floats(min_value=-100, max_value=100, allow_nan=False),
)

row_lists = st.lists(
    st.tuples(cat_cell, num_cell, tem_cell, y_cell), min_size=1, max_size=80
)

SIGNATURES = [
    (GroupBy("c"), AggregateOp.CNT),
    (GroupBy("c"), AggregateOp.SUM),
    (GroupBy("c"), AggregateOp.AVG),
    (GroupBy("t"), AggregateOp.CNT),
    (BinIntoBuckets("n", 7), AggregateOp.CNT),
    (BinIntoBuckets("n", 7), AggregateOp.SUM),
    (BinByGranularity("t", BinGranularity.MONTH), AggregateOp.CNT),
    (BinByGranularity("t", BinGranularity.MONTH), AggregateOp.AVG),
    (BinByGranularity("t", BinGranularity.YEAR), AggregateOp.SUM),
]


class TestDifferential:
    @given(row_lists)
    @settings(max_examples=30, deadline=None)
    def test_mixed_storage_matches_kernels(self, rows):
        with tempfile.TemporaryDirectory() as tmp:
            path = _make_db(tmp, rows, "c, n, t, y REAL")
            table = _load(path)
            # The enumerator only emits type-valid signatures with a
            # numeric y; mirror that contract here — inference over the
            # generated cells may flip any column's type.
            types = {col.name: col.ctype for col in table.columns}
            for transform, op in SIGNATURES:
                x_type = types[transform.column]
                if isinstance(transform, GroupBy):
                    valid = x_type in (
                        ColumnType.CATEGORICAL, ColumnType.TEMPORAL
                    )
                elif isinstance(transform, BinByGranularity):
                    valid = x_type is ColumnType.TEMPORAL
                else:
                    valid = x_type is ColumnType.NUMERICAL
                if op is not AggregateOp.CNT:
                    valid = valid and types["y"] is ColumnType.NUMERICAL
                if not valid:
                    continue
                provider = table.pushdown_provider
                before = dict(provider.fallbacks)
                parts = provider.serve(
                    transform, op,
                    "y" if op is not AggregateOp.CNT else None,
                )
                if parts is None:
                    # Only the documented reasons may reject a serve.
                    grown = {
                        reason
                        for reason, count in provider.fallbacks.items()
                        if count > before.get(reason, 0)
                    }
                    assert grown <= {"y_storage", "empty"}
                    continue
                _assert_served_matches(
                    table, transform, op,
                    "y" if op is not AggregateOp.CNT else None,
                )

    @given(
        st.lists(
            st.integers(min_value=-1000, max_value=1000),
            min_size=1,
            max_size=200,
        ),
        st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=30, deadline=None)
    def test_clean_numeric_index_pushdown(self, values, n):
        rows = [(v, float(v) * 0.5) for v in values]
        with tempfile.TemporaryDirectory() as tmp:
            path = _make_db(tmp, rows, "n REAL, y REAL")
            table = _load(path)
            for op in (AggregateOp.CNT, AggregateOp.SUM, AggregateOp.AVG):
                _assert_served_matches(
                    table, BinIntoBuckets("n", n), op,
                    "y" if op is not AggregateOp.CNT else None,
                )
            # A clean REAL column must use index pushdown, never the
            # distinct path: no cardinality probe recorded.
            assert "cardinality" not in table.pushdown_provider.fallbacks


class TestEdgeRelations:
    def test_empty_relation_falls_back(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = _make_db(tmp, [], "c, n REAL")
            table = _load(path)
            provider = table.pushdown_provider
            assert provider.serve(GroupBy("c"), AggregateOp.CNT, None) is None
            assert provider.fallbacks.get("empty") == 1

    def test_constant_numeric_column(self):
        rows = [(3.5, i) for i in range(20)]
        with tempfile.TemporaryDirectory() as tmp:
            path = _make_db(tmp, rows, "n REAL, y REAL")
            table = _load(path)
            for op in (AggregateOp.CNT, AggregateOp.SUM):
                _assert_served_matches(
                    table, BinIntoBuckets("n", 5), op,
                    "y" if op is not AggregateOp.CNT else None,
                )

    def test_all_null_column_infers_categorical(self):
        # An all-NULL column infers CATEGORICAL, so BIN INTO is the
        # enumerator's mistake, not the pushdown's: type_mismatch.
        rows = [(None, "a") for _ in range(10)]
        with tempfile.TemporaryDirectory() as tmp:
            path = _make_db(tmp, rows, "n REAL, c")
            table = _load(path)
            assert table.column("n").ctype is ColumnType.CATEGORICAL
            provider = table.pushdown_provider
            assert (
                provider.serve(BinIntoBuckets("n", 4), AggregateOp.CNT, None)
                is None
            )
            assert provider.fallbacks.get("type_mismatch") == 1
            # GROUP BY over the single empty-token bucket still serves.
            _assert_served_matches(
                table, GroupBy("n"), AggregateOp.CNT, None
            )

    def test_text_stored_numeric_uses_distinct_path(self):
        # Text storage fails the clean-numeric probe, so BIN INTO must
        # take the distinct path and still match the kernel exactly.
        rows = [(str(i % 9),) for i in range(40)]
        with tempfile.TemporaryDirectory() as tmp:
            path = _make_db(tmp, rows, "n TEXT")
            table = _load(path)
            _assert_served_matches(
                table, BinIntoBuckets("n", 3), AggregateOp.CNT, None
            )
            assert table.pushdown_provider._is_clean_numeric("n") is False

    def test_infinity_storage_is_unclean(self):
        # 9e999 parses to inf in SQL but _parse_number coerces it to
        # 0.0 in memory; the clean probe must reject the column.
        rows = [(9e999,)] + [(float(i),) for i in range(49)]
        with tempfile.TemporaryDirectory() as tmp:
            path = _make_db(tmp, rows, "n REAL")
            table = _load(path)
            assert table.column("n").ctype is ColumnType.NUMERICAL
            _assert_served_matches(
                table, BinIntoBuckets("n", 2), AggregateOp.CNT, None
            )
            assert table.pushdown_provider._is_clean_numeric("n") is False

    def test_blob_storage_is_unclean(self):
        rows = [(b"\x01",)] + [(float(i),) for i in range(49)]
        with tempfile.TemporaryDirectory() as tmp:
            path = _make_db(tmp, rows, "n")
            table = _load(path)
            assert table.pushdown_provider._is_clean_numeric("n") is False

    def test_null_cells_widen_the_bin_range_to_zero(self):
        # NULL coalesces to 0.0 in memory, so the binned range of a
        # positive column with NULLs starts at 0.
        rows = [(None if i % 5 == 0 else 3.0 + i, float(i)) for i in range(40)]
        with tempfile.TemporaryDirectory() as tmp:
            path = _make_db(tmp, rows, "n REAL, y REAL")
            table = _load(path)
            for op in (AggregateOp.CNT, AggregateOp.SUM):
                _assert_served_matches(
                    table, BinIntoBuckets("n", 4), op,
                    "y" if op is not AggregateOp.CNT else None,
                )

    def test_integer_and_real_storage_stay_apart(self):
        # 5 and 5.0 are equal to sqlite but coerce to the categorical
        # tokens '5' and '5.0'; grouping must keep the storage classes.
        rows = [(5,), (5.0,), (5.0,), ("x",), ("y",)] * 4
        with tempfile.TemporaryDirectory() as tmp:
            path = _make_db(tmp, rows, "c")
            table = _load(path)
            assert table.column("c").ctype is ColumnType.CATEGORICAL
            _assert_served_matches(
                table, GroupBy("c"), AggregateOp.CNT, None
            )

    def test_charts_of_one_x_share_one_scan(self):
        rows = [
            (("a", "b", "c")[i % 3], float(i % 11), float(i), float(i % 4))
            for i in range(60)
        ]
        with tempfile.TemporaryDirectory() as tmp:
            path = _make_db(tmp, rows, "c TEXT, n REAL, y REAL, u REAL")
            table = _load(path)
            statements = []
            table.pushdown_provider._connection().set_trace_callback(
                statements.append
            )
            for transform in (GroupBy("c"), BinIntoBuckets("n", 5)):
                _assert_served_matches(table, transform, AggregateOp.CNT, None)
                for y in ("y", "u"):
                    for op in (AggregateOp.SUM, AggregateOp.AVG):
                        _assert_served_matches(table, transform, op, y)
            group_bys = [s for s in statements if "GROUP BY" in s]
            assert len(group_bys) == 2, group_bys

    def test_integer_overflow_in_one_column_serves_the_rest(self):
        # Every clean column is summed beside each grouping; a column
        # whose integer sum overflows int64 must not fail that fetch.
        rows = [(("a", "b")[i % 2], 2 ** 62, float(i)) for i in range(8)]
        with tempfile.TemporaryDirectory() as tmp:
            path = _make_db(tmp, rows, "c TEXT, big INTEGER, y REAL")
            table = _load(path)
            _assert_served_matches(table, GroupBy("c"), AggregateOp.SUM, "y")
            _assert_served_matches(table, GroupBy("c"), AggregateOp.SUM, "big")

    def test_cross_storage_distincts_merge(self):
        # Integer 5 and text '5' are distinct to sqlite's GROUP BY but
        # coerce to one categorical token; counts must merge.
        rows = [(5,), ("5",), ("5",), ("x",)]
        with tempfile.TemporaryDirectory() as tmp:
            path = _make_db(tmp, rows, "c")
            table = _load(path)
            _assert_served_matches(
                table, GroupBy("c"), AggregateOp.CNT, None
            )

    def test_query_relation_group_by_falls_back_on_rowid(self):
        rows = [("a", 1), ("b", 2), ("a", 3)]
        with tempfile.TemporaryDirectory() as tmp:
            path = _make_db(tmp, rows, "c, n REAL")
            table = _load(path, query="SELECT c, n FROM rel")
            provider = table.pushdown_provider
            # First-appearance ordering needs rowid; a subquery has none.
            assert provider.serve(GroupBy("c"), AggregateOp.CNT, None) is None
            assert provider.fallbacks.get("rowid") == 1
            # BIN INTO doesn't need rowid and still pushes down.
            _assert_served_matches(
                table, BinIntoBuckets("n", 2), AggregateOp.CNT, None
            )

    def test_udf_transform_falls_back(self):
        rows = [(1.0,)] * 3
        with tempfile.TemporaryDirectory() as tmp:
            path = _make_db(tmp, rows, "n REAL")
            table = _load(path)
            provider = table.pushdown_provider
            transform = BinByUDF("n", "weekend", lambda v: 0)
            assert provider.serve(transform, AggregateOp.CNT, None) is None
            assert provider.fallbacks.get("udf") == 1

    def test_unknown_column_falls_back(self):
        rows = [(1.0,)] * 3
        with tempfile.TemporaryDirectory() as tmp:
            path = _make_db(tmp, rows, "n REAL")
            table = _load(path)
            provider = table.pushdown_provider
            assert (
                provider.serve(GroupBy("missing"), AggregateOp.CNT, None)
                is None
            )
            assert provider.fallbacks.get("unknown_column") == 1

    def test_cardinality_limit_falls_back(self):
        rows = [(f"v{i}",) for i in range(30)]
        with tempfile.TemporaryDirectory() as tmp:
            path = _make_db(tmp, rows, "c")
            table = _load(path)
            provider = table.pushdown_provider
            provider.distinct_limit = 10
            assert provider.serve(GroupBy("c"), AggregateOp.CNT, None) is None
            assert provider.fallbacks.get("cardinality") == 1

    def test_serve_memoises_per_chart(self):
        rows = [("a",), ("b",)]
        with tempfile.TemporaryDirectory() as tmp:
            path = _make_db(tmp, rows, "c")
            table = _load(path)
            provider = table.pushdown_provider
            first = provider.serve(GroupBy("c"), AggregateOp.CNT, None)
            second = provider.serve(GroupBy("c"), AggregateOp.CNT, None)
            assert first == second
            assert provider.served == 2
            assert len(provider._charts) == 1

    def test_no_pushdown_flag_detaches_provider(self):
        rows = [("a", 1.0)]
        with tempfile.TemporaryDirectory() as tmp:
            path = _make_db(tmp, rows, "c, n REAL")
            table = _load(path, pushdown=False)
            assert table.pushdown_provider is None
            assert table.cache_scope is None
