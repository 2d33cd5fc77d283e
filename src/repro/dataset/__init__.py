"""Relational-table substrate: typed columns, tables, inference, and IO."""

from .column import EPOCH, Column, ColumnType
from .inference import (
    ColumnParser,
    TypeTally,
    build_column,
    decide_type,
    infer_type,
    parse_temporal,
)
from .io import read_csv, write_csv
from .profile import ColumnProfile, TableProfile, profile_table
from .sketches import (
    ColumnSketch,
    DistinctCounter,
    ReservoirSample,
    SketchColumnStats,
    StreamProfile,
    StreamingHistogram,
    StreamingMoments,
    TableSketch,
)
from .sources import (
    NA_TOKENS,
    CsvSource,
    JsonlSource,
    SqlitePushdown,
    SqliteSource,
    TableSource,
    from_source,
    resolve_source,
)
from .stats import ColumnStats, TableStats, column_stats, entropy, table_stats
from .table import Table

__all__ = [
    "EPOCH",
    "Column",
    "ColumnType",
    "Table",
    "build_column",
    "infer_type",
    "decide_type",
    "parse_temporal",
    "ColumnParser",
    "TypeTally",
    "read_csv",
    "write_csv",
    "ColumnProfile",
    "TableProfile",
    "profile_table",
    "ColumnStats",
    "TableStats",
    "column_stats",
    "table_stats",
    "entropy",
    "ColumnSketch",
    "DistinctCounter",
    "ReservoirSample",
    "SketchColumnStats",
    "StreamProfile",
    "StreamingHistogram",
    "StreamingMoments",
    "TableSketch",
    "NA_TOKENS",
    "CsvSource",
    "JsonlSource",
    "SqliteSource",
    "SqlitePushdown",
    "TableSource",
    "from_source",
    "resolve_source",
]
