"""Typed columns of a relational table.

DeepEye distinguishes three column types (Section III, feature 5):

* **Categorical** (``Cat``) — a limited set of discrete values, e.g. carriers.
* **Numerical** (``Num``) — integers or floats, e.g. delays in minutes.
* **Temporal** (``Tem``) — timestamps, dates, years, e.g. scheduled time.

A :class:`Column` stores its values in a numpy array together with its
inferred :class:`ColumnType` and exposes the per-column statistics the
paper uses as features: the number of tuples ``|X|``, the number of
distinct values ``d(X)``, the unique ratio ``r(X) = d(X)/|X|`` and the
``min``/``max`` of the domain.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional, Sequence

import numpy as np

from ..errors import DatasetError

__all__ = ["ColumnType", "Column", "EPOCH"]

#: Reference epoch used to encode temporal values as float seconds.
EPOCH = _dt.datetime(1970, 1, 1)


class ColumnType(str, Enum):
    """The three data types DeepEye reasons about.

    The string values match the paper's abbreviations so that features,
    rules and error messages read like the paper: ``Cat``, ``Num``, ``Tem``.
    """

    CATEGORICAL = "Cat"
    NUMERICAL = "Num"
    TEMPORAL = "Tem"

    @property
    def is_groupable(self) -> bool:
        """Grouping applies to categorical and temporal columns (rules I, III)."""
        return self in (ColumnType.CATEGORICAL, ColumnType.TEMPORAL)

    @property
    def is_binnable(self) -> bool:
        """Binning applies to numerical and temporal columns (rules II, III)."""
        return self in (ColumnType.NUMERICAL, ColumnType.TEMPORAL)

    @property
    def is_sortable_on_x(self) -> bool:
        """Sorting rules: numeric and temporal x-values can be ordered."""
        return self in (ColumnType.NUMERICAL, ColumnType.TEMPORAL)


def _to_temporal_floats(values: Iterable) -> np.ndarray:
    """Encode datetimes/dates as float seconds since :data:`EPOCH`."""
    if isinstance(values, np.ndarray) and values.dtype == np.float64:
        return values
    encoded = []
    for value in values:
        if isinstance(value, _dt.datetime):
            encoded.append((value - EPOCH).total_seconds())
        elif isinstance(value, _dt.date):
            as_dt = _dt.datetime(value.year, value.month, value.day)
            encoded.append((as_dt - EPOCH).total_seconds())
        elif isinstance(value, (int, float, np.integer, np.floating)):
            encoded.append(float(value))
        else:
            raise DatasetError(
                f"cannot encode {value!r} ({type(value).__name__}) as temporal"
            )
    return np.asarray(encoded, dtype=np.float64)


@dataclass
class Column:
    """A named, typed column of values.

    Parameters
    ----------
    name:
        Column name as it appears in the table schema.
    ctype:
        One of the three :class:`ColumnType` members.
    values:
        The raw values.  Numerical and temporal columns are stored as
        ``float64`` arrays (temporal values are seconds since the epoch);
        categorical columns are stored as object arrays of strings.
    """

    name: str
    ctype: ColumnType
    values: np.ndarray = field(repr=False)

    def __init__(self, name: str, ctype: ColumnType, values: Sequence) -> None:
        self.name = name
        self.ctype = ColumnType(ctype)
        self._fingerprint: Optional[str] = None
        self._hasher = None
        if self.ctype is ColumnType.CATEGORICAL:
            self.values = np.asarray([str(v) for v in values], dtype=object)
        elif self.ctype is ColumnType.TEMPORAL:
            self.values = _to_temporal_floats(values)
        else:
            try:
                self.values = np.asarray(values, dtype=np.float64)
            except (TypeError, ValueError) as exc:
                raise DatasetError(
                    f"column {name!r} declared numerical but holds "
                    f"non-numeric values"
                ) from exc

    def _absorb(self, hasher, values) -> None:
        """Feed ``values`` into ``hasher`` in the frozen byte encoding
        (categorical as UTF-8 strings with ``\\x1f`` separators,
        numerical/temporal as little-endian float64)."""
        if self.ctype is ColumnType.CATEGORICAL:
            for value in values:
                hasher.update(str(value).encode("utf-8"))
                hasher.update(b"\x1f")
        else:
            hasher.update(
                np.ascontiguousarray(values, dtype=np.float64).tobytes()
            )

    def fingerprint(self) -> str:
        """A stable content hash over this column's *type and values*.

        The column **name is deliberately excluded**: two columns holding
        identical data under different names (a ``carrier`` column in one
        table, ``airline`` in another) hash identically, which is what
        cross-table computation sharing keys on — a transform's output
        depends only on the values it scans, never on what the column is
        called.  Contrast :meth:`repro.dataset.table.Table.fingerprint`,
        which *does* cover names because a rename changes which charts
        are produced.  Like the table hash it is a hex SHA-256, stable
        across processes and platforms, and memoised (columns are
        immutable by convention).

        Internally the digest is kept as a *running* hash state over the
        prefix ``ctype tag + value bytes``, so :meth:`extended` can grow
        a column by hashing only the appended chunk (``O(delta)``) —
        appending bytes to a SHA-256 stream never rewrites the prefix.
        """
        if self._fingerprint is None:
            hasher = self._hasher
            if hasher is None:
                hasher = hashlib.sha256()
                hasher.update(self.ctype.value.encode("ascii"))
                hasher.update(b"\x00")
                self._absorb(hasher, self.values)
                self._hasher = hasher
            self._fingerprint = hasher.hexdigest()
        return self._fingerprint

    def extended(self, values: Sequence) -> "Column":
        """A new column with ``values`` appended (rows coerced like the
        constructor's), carrying the rolling content hash forward.

        When this column's hash state exists (it is built on the first
        :meth:`fingerprint` call), the extension copies it and absorbs
        only the new chunk's bytes — the appended column's fingerprint
        then costs ``O(len(values))`` instead of ``O(total rows)``.
        """
        chunk = Column(self.name, self.ctype, values)
        if len(chunk.values) == 0:
            return self
        clone = Column.__new__(Column)
        clone.name = self.name
        clone.ctype = self.ctype
        clone.values = np.concatenate([self.values, chunk.values])
        clone._fingerprint = None
        clone._hasher = None
        if self._hasher is not None:
            hasher = self._hasher.copy()
            self._absorb(hasher, chunk.values)
            clone._hasher = hasher
        return clone

    def __getstate__(self):
        # hashlib objects cannot pickle; the memoised hex digest (a
        # plain string) travels, the live hash state is rebuilt lazily.
        state = self.__dict__.copy()
        state["_hasher"] = None
        return state

    # ------------------------------------------------------------------
    # Statistics used as ML features (Section III, features 1-4)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.values)

    @property
    def num_tuples(self) -> int:
        """``|X|`` — the number of tuples in the column (feature 2)."""
        return len(self.values)

    @property
    def num_distinct(self) -> int:
        """``d(X)`` — the number of distinct values (feature 1)."""
        return len(self.distinct_values())

    @property
    def unique_ratio(self) -> float:
        """``r(X) = d(X) / |X|`` (feature 3); 0.0 for an empty column."""
        if len(self.values) == 0:
            return 0.0
        return self.num_distinct / len(self.values)

    def distinct_values(self) -> np.ndarray:
        """Distinct values in first-appearance order for Cat, sorted otherwise."""
        if self.ctype is ColumnType.CATEGORICAL:
            seen: dict = {}
            for value in self.values:
                seen.setdefault(value, None)
            return np.asarray(list(seen), dtype=object)
        return np.unique(self.values)

    def min(self) -> Optional[float]:
        """``min(X)`` for Num/Tem columns; ``None`` for categorical/empty."""
        if self.ctype is ColumnType.CATEGORICAL or len(self.values) == 0:
            return None
        return float(np.min(self.values))

    def max(self) -> Optional[float]:
        """``max(X)`` for Num/Tem columns; ``None`` for categorical/empty."""
        if self.ctype is ColumnType.CATEGORICAL or len(self.values) == 0:
            return None
        return float(np.max(self.values))

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def as_datetimes(self) -> list:
        """Decode a temporal column back into ``datetime`` objects."""
        if self.ctype is not ColumnType.TEMPORAL:
            raise DatasetError(f"column {self.name!r} is not temporal")
        return [EPOCH + _dt.timedelta(seconds=float(s)) for s in self.values]

    def take(self, indices: Sequence[int]) -> "Column":
        """A new column restricted to ``indices`` (row selection)."""
        return Column(self.name, self.ctype, self.values[np.asarray(indices)])

    def renamed(self, name: str) -> "Column":
        """A shallow copy of this column under a different name (the
        content fingerprint carries over — renames don't change it)."""
        clone = Column.__new__(Column)
        clone.name = name
        clone.ctype = self.ctype
        clone.values = self.values
        clone._fingerprint = self._fingerprint
        # Safe to share: the stored hash state is only ever read
        # (hexdigest) or copied (extended), never updated in place.
        clone._hasher = self._hasher
        return clone

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Column(name={self.name!r}, ctype={self.ctype.value}, "
            f"n={len(self.values)}, distinct={self.num_distinct})"
        )
