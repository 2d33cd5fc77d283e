"""Unit tests for CSV IO round-trips."""

import datetime as dt

import pytest

from repro.dataset import ColumnType, Table, read_csv, write_csv
from repro.errors import DatasetError


def _table():
    return Table.from_dict(
        "sample",
        {
            "city": ["a", "b"],
            "value": [1.5, 2.0],
            "count": [3, 4],
            "when": [dt.datetime(2020, 1, 1, 9, 30), dt.datetime(2020, 2, 2)],
        },
    )


def test_roundtrip_preserves_schema_and_values(tmp_path):
    path = tmp_path / "sample.csv"
    write_csv(_table(), path)
    loaded = read_csv(path)
    assert loaded.name == "sample"
    assert loaded.column("city").ctype is ColumnType.CATEGORICAL
    assert loaded.column("value").ctype is ColumnType.NUMERICAL
    assert loaded.column("when").ctype is ColumnType.TEMPORAL
    assert list(loaded.column("value").values) == [1.5, 2.0]
    assert loaded.column("when").as_datetimes()[0] == dt.datetime(2020, 1, 1, 9, 30)


def test_integer_cells_written_without_decimal(tmp_path):
    path = tmp_path / "ints.csv"
    write_csv(_table(), path)
    text = path.read_text()
    assert ",3," in text or ",3\n" in text  # not "3.0"


def test_read_csv_type_pinning(tmp_path):
    path = tmp_path / "pin.csv"
    path.write_text("code\n1\n2\n")
    loaded = read_csv(path, types={"code": ColumnType.CATEGORICAL})
    assert loaded.column("code").ctype is ColumnType.CATEGORICAL


def test_read_csv_custom_name_and_delimiter(tmp_path):
    path = tmp_path / "semi.csv"
    path.write_text("a;b\n1;x\n")
    loaded = read_csv(path, name="renamed", delimiter=";")
    assert loaded.name == "renamed"
    assert loaded.num_columns == 2


def test_read_empty_csv_raises(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(DatasetError):
        read_csv(path)


@pytest.mark.xfail(
    strict=True,
    reason="write_csv writes sub-second timestamps that no temporal "
    "format accepts, so the column re-infers as categorical",
)
def test_roundtrip_keeps_sub_second_timestamps_temporal(tmp_path):
    path = tmp_path / "stamps.csv"
    stamps = [
        dt.datetime(2015, 1, 16, 21, 30, 56, 920847),
        dt.datetime(2015, 1, 17, 6, 5, 0, 125),
    ]
    write_csv(Table.from_dict("stamps", {"scheduled": stamps}), path)
    loaded = read_csv(path)
    assert loaded.column("scheduled").ctype is ColumnType.TEMPORAL
    assert loaded.column("scheduled").as_datetimes() == stamps
