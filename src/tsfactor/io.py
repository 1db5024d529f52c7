"""CSV ingestion and artifact serialization.

All numeric output uses 17-significant-digit decimal floats, which
round-trip IEEE doubles exactly, so written loadings re-read to the bit
and identical runs produce byte-identical files.  Input files are read
as UTF-8, with or without a byte-order mark.  Ingestion errors carry the
1-based file line and column of the offending cell.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from typing import Iterable, Optional

import numpy as np

from .errors import IngestError
from .matrixfactor import MatrixPanel
from .tsstats import TimePanel, demean

__all__ = [
    "fmt_float",
    "ingest_csv",
    "ingest_matrix_csv",
    "loadings_table",
    "read_loadings_csv",
    "write_loadings_csv",
    "write_table",
    "write_text",
    "write_trace_kv",
]


_ENCODING = "utf-8-sig"  # UTF-8 that drops a leading byte-order mark


def fmt_float(x: float) -> str:
    """Decimal form that parses back to exactly the same double."""
    return format(float(x), ".17g")


def _cell_value(cell: str, line: int, col: int) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise IngestError(
            f"non-numeric cell {cell.strip()!r} at line {line}, column {col}",
            row=line,
            column=col,
        ) from None
    if not math.isfinite(value):
        raise IngestError(
            f"non-finite cell {cell.strip()!r} at line {line}, column {col}",
            row=line,
            column=col,
        )
    return value


def _read_rows(path) -> list[tuple[int, list[str]]]:
    try:
        with open(path, newline="", encoding=_ENCODING) as fh:
            rows = [(i, row) for i, row in enumerate(csv.reader(fh), start=1)]
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise IngestError(f"{path} is not UTF-8 text: {exc}") from None
    return [(i, row) for i, row in rows if any(cell.strip() for cell in row)]


def _is_header(row: list[str]) -> bool:
    for cell in row:
        try:
            float(cell)
        except ValueError:
            return True
    return False


def _data_rows(path) -> tuple[Optional[list[str]], list[tuple[int, list[str]]]]:
    """The header row, if the first row is one, and the numbered data rows,
    which must all be as wide as the first."""
    rows = _read_rows(path)
    if not rows:
        raise IngestError(f"{path} contains no data")
    header = rows.pop(0)[1] if _is_header(rows[0][1]) else None
    if not rows:
        raise IngestError(f"{path} has a header but no data rows")
    width = len(rows[0][1])
    for line, row in rows:
        if len(row) != width:
            raise IngestError(f"line {line} has {len(row)} cells, expected {width}", row=line)
    return header, rows


def _bulk_rows(path) -> Optional[tuple[Optional[list[str]], np.ndarray]]:
    """The header row, if any, and the data rows parsed in one C-level call,
    or None where the cell scan must run: ``np.loadtxt`` reads strtod's
    grammar, a subset of ``float()``'s, into the same doubles, and a file
    it rejects or warns on, or one with a non-finite value, is left to the
    scan to name the bad cell."""
    try:
        with open(path, "rb") as fh:  # \x1c-\x1f are whitespace to numpy, not to float()
            if any(map(fh.read().__contains__, b"\x1c\x1d\x1e\x1f")):
                return None
        with open(path, newline="", encoding=_ENCODING) as fh:
            reader = csv.reader(fh)
            first = next(row for row in reader if any(cell.strip() for cell in row))
            header = first if _is_header(first) else None
            skip = reader.line_num if header is not None else 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = np.loadtxt(
                path, delimiter=",", comments=None, ndmin=2, skiprows=skip, encoding=_ENCODING
            )
    except Exception:
        return None
    return (header, values) if np.isfinite(values).all() else None


def _table(path) -> tuple[Optional[list[str]], np.ndarray]:
    """The header row, if any, and the data rows as floats: parsed in bulk where
    :func:`_bulk_rows` can, else by the cell scan, which names the first bad cell."""
    bulk = _bulk_rows(path)
    if bulk is not None:
        return bulk
    header, rows = _data_rows(path)
    values = np.empty((len(rows), len(rows[0][1])))
    for r, (line, row) in enumerate(rows):
        for c, cell in enumerate(row):
            values[r, c] = _cell_value(cell, line, c + 1)
    return header, values


def ingest_csv(path, demean_panel: bool = True) -> TimePanel:
    """Parse a rectangular numeric CSV into a panel, one row per time.

    An optional first row of non-numeric labels becomes the series
    names; otherwise names default to ``v1..vp``.  Ragged rows and
    non-numeric or non-finite cells raise :class:`IngestError` with the
    offending location.  The panel is demeaned unless ``demean_panel``
    is False.
    """
    header, data = _table(path)
    width = data.shape[1]
    if header is None:
        names = tuple(f"v{j + 1}" for j in range(width))
    elif len(header) != width:
        line = _data_rows(path)[1][0][0]  # file lines are looked up only for an error
        raise IngestError(
            f"header has {len(header)} names but line {line} has {width} cells", row=line
        )
    else:
        names = tuple(cell.strip() for cell in header)
    panel = TimePanel(data, names=names)
    return demean(panel) if demean_panel else panel


def ingest_matrix_csv(path) -> MatrixPanel:
    """Parse a stacked-matrix CSV: a block index column, then p2 values.

    Each observation occupies p1 consecutive rows sharing one strictly
    increasing block index in the first column; every block must have
    the same shape.
    """
    values = _table(path)[1]
    n, width = values.shape
    if width < 2:
        raise IngestError("matrix CSV needs a block index column plus data columns")
    index = values[:, 0]
    steps = np.diff(index)
    down = np.flatnonzero(steps < 0) + 1
    if down.size:
        t, line = fmt_float(index[down[0]]), _data_rows(path)[1][down[0]][0]
        raise IngestError(f"block index {t} at line {line} does not increase", row=line, column=1)
    starts = np.flatnonzero(np.r_[True, steps != 0])
    sizes = np.diff(np.r_[starts, n])
    odd = np.flatnonzero(sizes != sizes[0])
    if odd.size:
        t, size = fmt_float(index[starts[odd[0]]]), sizes[odd[0]]
        raise IngestError(f"block {t} has {size} rows, expected {sizes[0]}")
    return MatrixPanel(values[:, 1:].reshape(len(starts), sizes[0], width - 1))


def write_table(path, header: list[str], rows: Iterable[Iterable]) -> None:
    """Write a CSV table: floats in :func:`fmt_float` form, None as an empty
    cell, and a cell holding a comma, quote or newline quoted; a table with
    a carriage return in any cell has every cell quoted."""
    table = [header, *([fmt_float(v) if isinstance(v, float) else v for v in row] for row in rows)]
    # csv quotes the terminator's \n but not a \r, at which readers end a row too
    for quoting in (csv.QUOTE_MINIMAL, csv.QUOTE_ALL):
        text = io.StringIO()
        csv.writer(text, lineterminator="\n", quoting=quoting).writerows(table)
        if "\r" not in text.getvalue():
            break
    with open(path, "w", newline="") as fh:
        fh.write(text.getvalue())


def loadings_table(loading: np.ndarray, names: Iterable[str]) -> tuple[list[str], Iterable]:
    """The header and rows of a loading matrix, one labelled row per series."""
    loading = np.asarray(loading, dtype=float)
    header = ["series"] + [f"a{j + 1}" for j in range(loading.shape[1])]
    return header, ([name, *row] for name, row in zip(names, loading))


def write_loadings_csv(path, loading: np.ndarray, names: Iterable[str]) -> None:
    """Write a loading matrix with one labelled row per series."""
    write_table(path, *loadings_table(loading, names))


def read_loadings_csv(path) -> np.ndarray:
    """Read back a loading matrix written by :func:`write_loadings_csv`; a
    row unlike the first in width raises :class:`IngestError` naming its line."""
    _, rows = _data_rows(path)
    out = [[_cell_value(cell, line, c + 2) for c, cell in enumerate(row[1:])] for line, row in rows]
    return np.asarray(out, dtype=float)


def _kv_text(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return fmt_float(value)
    return str(value)


def write_trace_kv(path, items: Iterable[tuple[str, object]]) -> None:
    """Write ``key=value`` lines; arrays expand to one indexed key each."""
    with open(path, "w", newline="\n") as fh:
        for key, value in items:
            if isinstance(value, np.ndarray):
                for i, v in enumerate(np.asarray(value).ravel(), start=1):
                    fh.write(f"{key}_{i}={_kv_text(v)}\n")
            else:
                fh.write(f"{key}={_kv_text(value)}\n")


def write_text(path, text: str) -> None:
    """Write a report with unix newlines regardless of platform."""
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
