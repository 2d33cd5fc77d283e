"""Streaming-sketch properties: exactness on materialisable streams,
bounded error past the spill points, and chunk-boundary invariance."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset import ColumnType, build_column, infer_type
from repro.dataset.inference import TypeTally, decide_type
from repro.dataset.sketches import (
    ColumnSketch,
    DistinctCounter,
    ReservoirSample,
    StreamingHistogram,
    StreamingMoments,
    TableSketch,
)
from tests import scalar_oracle

# Cells that exercise every inference branch: numbers, year-like ints,
# dates, plain text, and the null shapes (_is_null drops).
cells = st.one_of(
    st.none(),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.integers(min_value=-5000, max_value=5000),
    st.integers(min_value=1800, max_value=2200).map(str),
    st.sampled_from(["2021-03-01", "2021-04-15", "1999-12-31"]),
    st.sampled_from(["alpha", "beta", "gamma", "", "  "]),
    st.floats(min_value=-100, max_value=100, allow_nan=False).map(
        lambda v: f"{v:.3f}"
    ),
)
cell_lists = st.lists(cells, min_size=0, max_size=120)

float_chunks = st.lists(
    st.lists(
        st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
        min_size=0,
        max_size=50,
    ),
    min_size=0,
    max_size=6,
)


class TestTypeVotes:
    @given(cell_lists, st.lists(st.integers(min_value=0, max_value=120)))
    @settings(max_examples=100, deadline=None)
    def test_decide_matches_infer_type(self, values, cuts):
        # The tallies streamed over any chunking decide the type that
        # both the column parser and the scalar cascade infer.
        sketch = ColumnSketch("c")
        bounds = sorted({0, len(values), *(c for c in cuts if c < len(values))})
        for lo, hi in zip(bounds, bounds[1:]):
            sketch.add_chunk(values[lo:hi])
        decided = decide_type(sketch.votes)
        assert decided is infer_type(values)
        assert decided is scalar_oracle.infer_type(values)

    def test_empty_stream_is_categorical(self):
        assert decide_type(TypeTally()) is ColumnType.CATEGORICAL
        assert decide_type(ColumnSketch("c").votes) is ColumnType.CATEGORICAL


class TestStreamingMoments:
    @given(float_chunks)
    @settings(max_examples=80, deadline=None)
    def test_matches_numpy_regardless_of_chunking(self, chunks):
        moments = StreamingMoments()
        for chunk in chunks:
            moments.add_chunk(np.asarray(chunk, dtype=np.float64))
        flat = np.asarray(
            [v for chunk in chunks for v in chunk], dtype=np.float64
        )
        assert moments.count == len(flat)
        if len(flat) == 0:
            assert moments.min is None and moments.max is None
            return
        assert moments.min == float(flat.min())
        assert moments.max == float(flat.max())
        assert np.isclose(moments.mean, flat.mean(), rtol=1e-9, atol=1e-6)
        assert np.isclose(
            moments.variance, flat.var(), rtol=1e-6, atol=1e-6
        )


class TestDistinctCounter:
    @given(
        st.lists(
            st.integers(min_value=0, max_value=500), min_size=0, max_size=400
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_exact_below_spill(self, values):
        counter = DistinctCounter()
        arr = np.asarray(values, dtype=np.float64)
        counter.add_floats(arr)
        assert counter.exact
        assert counter.estimate() == len(set(values))

    def test_string_and_float_streams_are_independent(self):
        counter = DistinctCounter()
        counter.add_strings(["a", "b", "a"])
        counter.add_strings(["b", "c"])
        assert counter.estimate() == 3

    def test_kmv_estimate_bounded_error(self):
        # Push far past the spill threshold: the KMV estimate must land
        # within a few sigma of 1/sqrt(k) relative error.
        counter = DistinctCounter(spill_limit=1000, k=1024)
        truth = 200_000
        values = np.arange(truth, dtype=np.float64)
        for start in range(0, truth, 10_000):
            counter.add_floats(values[start : start + 10_000])
        assert not counter.exact
        estimate = counter.estimate()
        assert abs(estimate - truth) / truth < 0.15

    def test_negative_zero_folds_into_zero(self):
        counter = DistinctCounter()
        counter.add_floats(np.asarray([0.0, -0.0], dtype=np.float64))
        assert counter.estimate() == 1


class TestStreamingHistogram:
    @given(
        st.lists(
            st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
            min_size=1,
            max_size=300,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_quantiles_within_range_and_monotone(self, values):
        hist = StreamingHistogram(max_bins=32)
        arr = np.asarray(values, dtype=np.float64)
        hist.add_chunk(arr[: len(arr) // 2])
        hist.add_chunk(arr[len(arr) // 2 :])
        qs = hist.quantiles((0.25, 0.5, 0.75))
        assert all(arr.min() <= q <= arr.max() for q in qs)
        assert qs[0] <= qs[1] <= qs[2]

    def test_empty_quantile_is_none(self):
        assert StreamingHistogram().quantile(0.5) is None


class TestReservoirSample:
    def test_sample_is_stream_while_under_capacity(self):
        sample = ReservoirSample(capacity=100, seed=1)
        rows = [(i,) for i in range(60)]
        for row in rows:
            sample.offer(row)
        assert sample.rows == rows
        assert not sample.saturated

    @given(st.integers(min_value=0, max_value=7))
    @settings(max_examples=20, deadline=None)
    def test_chunk_boundaries_do_not_change_the_sample(self, seed):
        rows = [(i, f"r{i}") for i in range(997)]
        one = ReservoirSample(capacity=50, seed=seed)
        for row in rows:
            one.offer(row)
        two = ReservoirSample(capacity=50, seed=seed)
        for start in range(0, len(rows), 13):
            for row in rows[start : start + 13]:
                two.offer(row)
        assert one.rows == two.rows
        assert one.saturated and two.saturated


class TestTableSketchExactness:
    @given(cell_lists, cell_lists)
    @settings(max_examples=50, deadline=None)
    def test_stats_exact_on_materialisable_streams(self, left, right):
        # While the reservoir holds the full stream, the profile must
        # agree exactly with the built in-memory columns.
        width = max(len(left), len(right))
        left = left + [None] * (width - len(left))
        right = right + [None] * (width - len(right))
        rows = list(zip(left, right))
        sketch = TableSketch(["a", "b"], sample_capacity=max(width, 1))
        for start in range(0, width, 17):
            sketch.add_rows(rows[start : start + 17])
        profile = sketch.finish()
        assert profile.sample_exact
        assert profile.rows == width
        for name, values in (("a", left), ("b", right)):
            stats = profile.stats_for(name)
            column = build_column(name, values)
            assert stats.ctype is column.ctype
            assert stats.num_tuples == width
            if column.ctype is ColumnType.CATEGORICAL:
                assert stats.num_distinct == len(set(column.values))
                assert stats.min_value is None and stats.max_value is None
            else:
                assert stats.num_distinct == len(np.unique(column.values))
                if width:
                    assert stats.min_value == float(column.values.min())
                    assert stats.max_value == float(column.values.max())

    def test_sample_table_pins_full_stream_types(self):
        # 98 numeric rows then 2 text rows: the full stream votes
        # NUMERICAL, and a sample that only caught text rows must still
        # build a NUMERICAL column.
        rows = [(str(i),) for i in range(98)] + [("x",)] * 2
        sketch = TableSketch(["v"], sample_capacity=200)
        sketch.add_rows(rows)
        table = sketch.sample_table("t")
        assert table.columns[0].ctype is ColumnType.NUMERICAL

    def test_profile_digest_tracks_full_stream_not_sample(self):
        # Two streams with identical samples but different tails must
        # produce different digests (the cache-scope separator).
        first = TableSketch(["v"], sample_capacity=5, seed=3)
        second = TableSketch(["v"], sample_capacity=5, seed=3)
        shared = [(i,) for i in range(5)]
        first.add_rows(shared + [(100,)] * 50)
        second.add_rows(shared + [(999,)] * 50)
        if first.reservoir.rows == second.reservoir.rows:
            assert first.finish().digest() != second.finish().digest()
