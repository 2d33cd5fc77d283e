"""Automatic column type inference.

The paper states that temporal data types "can be automatically detected
based on the attribute values" (Section II-A).  This module implements
that detection for raw (string or mixed) value sequences:

1. values that parse as timestamps/dates under a set of common formats
   are **temporal**;
2. values that parse as floats are **numerical** — unless they look like
   four-digit years (then temporal) or like low-cardinality integer codes
   (then categorical);
3. everything else is **categorical**.

Inference is majority-vote tolerant: a column is accepted as a type when
at least :data:`TYPE_THRESHOLD` of its non-empty values conform, which
mirrors how real CSVs contain occasional stray cells.

Every ingest path — :func:`build_column` (CSV, JSONL and sqlite loads via
``Table.from_rows``), the streaming sketches and the sqlite pushdown —
parses cells through one :class:`ColumnParser`, and every type decision
goes through :func:`decide_type` over a :class:`TypeTally`.  The parser
gives each cell exactly the outcome of the format cascade in
:data:`_TEMPORAL_FORMATS`, but pays for far fewer ``strptime`` calls:

* a string that parses as a number never enters the cascade — every
  format demands a ``-``, ``/``, ``:`` or month-name literal that the
  float grammar cannot contain;
* repeated tokens are parsed once per call (a bounded per-call memo);
* a format is only tried when a cheap superset regex of what
  ``strptime`` could accept under it matches, so a miss costs a regex
  match instead of a raised ``ValueError``;
* the column's last successful format is tried first; at most one
  format accepts any string, so the guess never changes a result.
"""

from __future__ import annotations

import datetime as _dt
import math
import re
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .column import EPOCH, Column, ColumnType

__all__ = [
    "TYPE_THRESHOLD",
    "TypeTally",
    "decide_type",
    "ColumnParser",
    "ParsedColumn",
    "parse_temporal",
    "infer_type",
    "build_column",
]

#: Fraction of non-null values that must conform for a type to win.
TYPE_THRESHOLD = 0.95

#: Formats tried, in order, when parsing temporal strings.
_TEMPORAL_FORMATS = (
    "%Y-%m-%d %H:%M:%S",
    "%Y-%m-%dT%H:%M:%S",
    "%Y-%m-%d %H:%M",
    "%Y-%m-%d",
    "%Y/%m/%d",
    "%d-%b %H:%M",  # "01-Jan 00:05" as in the paper's Table I
    "%d-%b",
    "%b %Y",
    "%Y-%m",
    "%m/%d/%Y",
    "%m/%d/%Y %H:%M",
    "%H:%M:%S",
    "%H:%M",
)

#: Year assumed for formats that lack one (e.g. "01-Jan 00:05").
_DEFAULT_YEAR = 2015

#: Cap on the distinct string tokens one parse call remembers.
_MEMO_LIMIT = 65536

#: Directive -> regex for :func:`_shape`: a superset of what ``strptime``
#: matches for the directive, whatever the Python version or locale.
_LOOSE_DIRECTIVES = {"Y": r"\s?\d+", "m": r"\s?\d+", "d": r"\s?\d+",
                     "H": r"\s?\d+", "M": r"\s?\d+", "S": r"\s?\d+",
                     "b": r".+?"}


def _shape(fmt: str) -> "re.Pattern[str]":
    """A regex every string ``strptime(text, fmt)`` accepts fullmatches.

    ``strptime`` matches a regex built from the format: digits for the
    numeric directives, the locale's month names for ``%b``, ``\\s+`` for
    whitespace and the other characters literally, ignoring case.
    """
    regex = "".join(
        _LOOSE_DIRECTIVES[part[1]] if part.startswith("%")
        else r"\s+" if part.isspace()
        else re.escape(part)
        for part in re.split(r"(%.|\s+)", fmt)
    )
    return re.compile(regex, re.IGNORECASE | re.DOTALL)


class _Format(NamedTuple):
    pattern: str
    shape: "re.Pattern[str]"
    has_year: bool


_FORMATS = tuple(_Format(f, _shape(f), "%Y" in f) for f in _TEMPORAL_FORMATS)


def _strptime(text: str, fmt: _Format) -> Optional[_dt.datetime]:
    """``text`` parsed under one format, or None when it rejects it."""
    if fmt.shape.fullmatch(text) is None:
        return None
    try:
        parsed = _dt.datetime.strptime(text, fmt.pattern)
    except ValueError:
        return None
    if not fmt.has_year:
        parsed = parsed.replace(year=_DEFAULT_YEAR)
    return parsed


def _parse_number(value) -> Optional[float]:
    """Parse a raw value into a float, or ``None`` when it is not numeric."""
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float, np.integer, np.floating)):
        result = float(value)
        return result if math.isfinite(result) else None
    if isinstance(value, str):
        text = value.strip().replace(",", "")
        if not text:
            return None
        try:
            result = float(text)
        except ValueError:
            return None
        return result if math.isfinite(result) else None
    return None


def _is_null(value) -> bool:
    """Whether a cell is missing: ``None``, a float NaN or a blank string."""
    if value is None:
        return True
    if isinstance(value, float) and math.isnan(value):
        return True
    return isinstance(value, str) and not value.strip()


def parse_temporal(value) -> Optional[_dt.datetime]:
    """Parse a single raw value into a ``datetime``, or ``None``.

    Handles ``datetime``/``date`` instances, four-digit year integers, and
    strings in any of the :data:`_TEMPORAL_FORMATS`.
    """
    if isinstance(value, _dt.datetime):
        return value
    if isinstance(value, _dt.date):
        return _dt.datetime(value.year, value.month, value.day)
    if isinstance(value, (int, np.integer)) and 1800 <= int(value) <= 2200:
        return _dt.datetime(int(value), 1, 1)
    if isinstance(value, float) and value.is_integer() and 1800 <= value <= 2200:
        return _dt.datetime(int(value), 1, 1)
    if not isinstance(value, str):
        return None
    text = value.strip()
    return ColumnParser().parse_text(text) if text else None


# ----------------------------------------------------------------------
# The type vote
# ----------------------------------------------------------------------
@dataclass
class TypeTally:
    """The counts a column's type is decided from.

    Tallies are additive: the tally of a stream is the sum of its
    chunks' tallies, whatever the chunk boundaries.
    """

    #: Non-null cells.
    present: int = 0
    #: Present cells with a temporal reading.
    temporal: int = 0
    #: Present cells that parse as finite numbers.
    numeric: int = 0
    #: Whether every present cell is a whole number in [1800, 2200].
    year_like: bool = True

    def __iadd__(self, other: "TypeTally") -> "TypeTally":
        self.present += other.present
        self.temporal += other.temporal
        self.numeric += other.numeric
        self.year_like = self.year_like and other.year_like
        return self


def decide_type(tally: TypeTally) -> ColumnType:
    """The :class:`ColumnType` a column with these counts is inferred as.

    Empty or all-null columns default to categorical (the safest type: it
    supports grouping and counting but no arithmetic).
    """
    n = tally.present
    if n == 0:
        return ColumnType.CATEGORICAL
    # Strings like "2015-01-03" parse as dates but not as numbers;
    # integers like 2015 parse as both.  Prefer temporal only when the
    # values *look* like dates rather than plain measurements: either
    # they are non-numeric strings, or they are all year-like numbers.
    if tally.temporal / n >= TYPE_THRESHOLD and (
        tally.temporal > tally.numeric or tally.year_like
    ):
        return ColumnType.TEMPORAL
    if tally.numeric / n >= TYPE_THRESHOLD:
        return ColumnType.NUMERICAL
    return ColumnType.CATEGORICAL


# ----------------------------------------------------------------------
# The column parser
# ----------------------------------------------------------------------
_NAN = float("nan")
#: ``(number, seconds, null)`` of a null cell.
_NULL = (_NAN, _NAN, 1.0)


def _parse_cell(value) -> Tuple[float, float, float]:
    """``(number, temporal seconds, null)`` of one non-string cell."""
    if _is_null(value):
        return _NULL
    number = _parse_number(value)
    parsed = parse_temporal(value)
    return (
        _NAN if number is None else number,
        _NAN if parsed is None else (parsed - EPOCH).total_seconds(),
        0.0,
    )


@dataclass(frozen=True)
class ParsedColumn:
    """Per-cell parse outcomes of one column, in cell order."""

    #: The raw cells.
    values: list
    #: Each cell's number; NaN where the cell is not a finite number.
    numbers: np.ndarray
    #: Each cell's temporal reading in seconds since :data:`EPOCH`;
    #: NaN where it has none.
    seconds: np.ndarray
    #: Whether each cell is null (see :func:`_is_null`).
    null: np.ndarray

    def tally(self) -> TypeTally:
        """The type-vote counts of these cells."""
        present = self.numbers[~self.null]
        return TypeTally(
            present=len(present),
            temporal=int(np.count_nonzero(~np.isnan(self.seconds))),
            numeric=int(np.count_nonzero(~np.isnan(present))),
            year_like=bool(np.all(
                (present >= 1800) & (present <= 2200)
                & (present == np.floor(present))
            )),
        )

    def coerced(self, ctype: ColumnType) -> np.ndarray:
        """The values a :class:`Column` of type ``ctype`` stores.

        Unparseable cells fall back to a neutral value (0.0 / epoch /
        empty string); a temporal column reads a number without a
        temporal reading as seconds since the epoch.
        """
        ctype = ColumnType(ctype)
        if ctype is ColumnType.NUMERICAL:
            return np.where(np.isnan(self.numbers), 0.0, self.numbers)
        if ctype is ColumnType.TEMPORAL:
            out = self.seconds.copy()
            for i in np.flatnonzero(np.isnan(out)):
                number = self.numbers[i]
                out[i] = (
                    0.0 if math.isnan(number)
                    else _dt.timedelta(seconds=float(number)).total_seconds()
                )
            return out
        return np.asarray(
            ["" if v is None else str(v) for v in self.values], dtype=object
        )


class ColumnParser:
    """Parses the cells of one column, remembering which format fits it.

    One parser serves one column: :meth:`parse` may be called once for a
    whole column or once per chunk of a stream, and the format guess
    carries across calls.
    """

    def __init__(self) -> None:
        #: The format of the last string the cascade parsed.
        self._format: Optional[_Format] = None

    def parse_text(self, text: str) -> Optional[_dt.datetime]:
        """The datetime the format cascade reads from a stripped,
        non-empty string, or None when no format accepts it."""
        guess = self._format
        if guess is not None:
            parsed = _strptime(text, guess)
            if parsed is not None:
                return parsed
        for fmt in _FORMATS:
            if fmt is guess:
                continue
            parsed = _strptime(text, fmt)
            if parsed is not None:
                self._format = fmt
                return parsed
        return None

    def parse(self, values: Sequence) -> ParsedColumn:
        """Parse every cell of ``values``."""
        cells = values if isinstance(values, list) else list(values)
        outcomes: List[Tuple[float, float, float]] = []
        for start in range(0, len(cells), _MEMO_LIMIT):
            block = cells[start:start + _MEMO_LIMIT]
            memo = self._parse_tokens(
                dict.fromkeys(v for v in block if isinstance(v, str))
            )
            outcomes.extend(
                memo[v] if isinstance(v, str) else _parse_cell(v)
                for v in block
            )
        table = np.asarray(outcomes, dtype=np.float64).reshape(-1, 3)
        return ParsedColumn(
            values=cells,
            numbers=table[:, 0],
            seconds=table[:, 1],
            null=table[:, 2] > 0.0,
        )

    def _parse_tokens(self, tokens) -> Dict[str, Tuple[float, float, float]]:
        """``token -> (number, seconds, null)`` for distinct strings."""
        out: Dict[str, Tuple[float, float, float]] = {}
        for token in tokens:
            text = token.strip()
            if not text:
                out[token] = _NULL
                continue
            number = _parse_number(text)
            if number is not None:
                # No format accepts a float-parseable string.
                out[token] = (number, _NAN, 0.0)
                continue
            parsed = self.parse_text(text)
            out[token] = (
                _NAN,
                _NAN if parsed is None else (parsed - EPOCH).total_seconds(),
                0.0,
            )
        return out


def infer_type(values: Sequence) -> ColumnType:
    """Infer the :class:`ColumnType` of a raw value sequence."""
    return decide_type(ColumnParser().parse(values).tally())


def build_column(name: str, values: Sequence, ctype: Optional[ColumnType] = None) -> Column:
    """Build a typed :class:`Column`, inferring the type when not given.

    Raw values are coerced to the chosen representation; unparseable cells
    fall back to a neutral value (0.0 / epoch / empty string) so that a
    column with a handful of stray cells still loads.
    """
    if ctype is not None and ColumnType(ctype) is ColumnType.CATEGORICAL:
        return Column(name, ColumnType.CATEGORICAL,
                      ["" if v is None else str(v) for v in values])
    parsed = ColumnParser().parse(values)
    ctype = decide_type(parsed.tally()) if ctype is None else ColumnType(ctype)
    return Column(name, ctype, parsed.coerced(ctype))
