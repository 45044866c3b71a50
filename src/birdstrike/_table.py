"""The CSV table reader shared by the species, materials and measurements files,
the loader (read_named) and lookup (find_named) of the named species and
materials records, the JSON reader of the matrix and descriptor files, and
the CSV writer (render_csv) of the report, plan and sweep outputs.

Every input CSV follows the same rules: the first row is the header and must
equal the format's column names once each cell is stripped; blank or
whitespace-only rows are skipped; every other row has exactly one cell per
column; and each cell is converted by its column's kind (str.strip, int or
float). Errors are ParseErrors naming the file, the row (the header is row 1)
and, for a bad cell, the column.

A row is tested for blankness only when it fails the column count or a
conversion, not on every row. That skips every blank row all the same: each
format has a numeric column, and int and float reject an empty or
whitespace-only cell.

Rows are read in batches of BATCH_ROWS. When every row of a batch has one
cell per column, each column is converted in one map over the batch, with no
Python loop per cell. A batch with a row of another width (a blank row, too
many or too few cells) or a cell its kind rejects goes instead through the
per-row loop, which skips blank rows, names the first bad row and column, and
yields the rows before it first, so a caller's error on an earlier row of the
batch still comes first.

A file that is not UTF-8, or that the csv module cannot parse (such as a cell
over its field size limit), is a ParseError too. A decode error can surface
one read buffer ahead of its row, so it names only the file.
"""

from __future__ import annotations

import csv
import io
import json
from itertools import count, islice
from typing import Callable, Iterator, Sequence

from .errors import InvalidParameterError, ParseError

Columns = Sequence[tuple[str, Callable[[str], object]]]

BATCH_ROWS = 1024


def _names(columns: Columns) -> tuple[str, ...]:
    return tuple(name for name, _ in columns)


def read_table(path, columns: Columns, optional: Columns = ()) -> Iterator[tuple[int, tuple]]:
    """Yield (row number, converted cells) for each data row of a CSV file.

    columns are (name, kind) pairs. The optional columns may follow them in
    the header, all or none; rows then carry their cells too. An empty file
    yields nothing.
    """
    row_no = 1
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None:
                return
            found = tuple(cell.strip() for cell in header)
            if found == _names(columns):
                spec = columns
            elif found == _names((*columns, *optional)):
                spec = (*columns, *optional)
            else:
                expected = repr(",".join(_names(columns)))
                if optional:
                    expected += f" (optionally plus {','.join(_names(optional))!r})"
                raise ParseError(f"{path}: expected header {expected}, got {','.join(header)!r}")
            width = len(spec)
            row_no = 2
            while True:
                batch: list[list[str]] = []
                failed = None
                try:
                    batch.extend(islice(reader, BATCH_ROWS))
                except csv.Error as exc:  # batch keeps the rows read before the bad one
                    failed = exc
                converted = None
                if set(map(len, batch)) == {width}:
                    try:
                        converted = [list(map(kind, column))
                                     for (_, kind), column in zip(spec, zip(*batch))]
                    except ValueError:
                        pass
                if converted is None:
                    yield from _rows_one_by_one(path, spec, batch, row_no)
                else:
                    yield from zip(count(row_no), zip(*converted))
                row_no += len(batch)
                if failed is not None:
                    raise failed
                if len(batch) < BATCH_ROWS:
                    return
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise ParseError(f"{path}: row {row_no}: {exc}") from None


def _rows_one_by_one(path, spec: Columns, batch: list[list[str]], first: int):
    """The per-row path for a batch that failed the width or conversion test."""
    width = len(spec)
    for row_no, row in enumerate(batch, start=first):
        # A blank row is looked for only once a row fails: see the module docstring.
        if len(row) != width:
            if not "".join(row).strip():
                continue
            raise ParseError(f"{path}: row {row_no}: expected {width} columns, got {len(row)}")
        cells = []
        for (name, kind), cell in zip(spec, row):
            try:
                cells.append(kind(cell))
            except ValueError:
                if not "".join(row).strip():
                    break
                raise ParseError(
                    f"{path}: row {row_no}, column {name}: not a number: {cell!r}"
                ) from None
        else:
            yield row_no, tuple(cells)


def render_csv(rows) -> str:
    """The rows as CSV text with "\n" line ends, each cell quoted as the csv module needs."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def read_json(path, build):
    """build(payload) for the JSON file at path. A file that does not load, or a
    KeyError, InvalidParameterError or TypeError from build, is a ParseError naming it."""
    with open(path, encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except ValueError as exc:  # bad JSON, an int past the digit limit, or bad UTF-8
            raise ParseError(f"{path}: {exc}") from exc
    try:
        return build(payload)
    except KeyError as exc:
        raise ParseError(f"{path}: missing field {exc}") from exc
    except (InvalidParameterError, TypeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def read_named(path, columns: Columns, build, kind: str) -> list:
    """build(*cells) for each row of a CSV file whose first column is the name. A
    repeated name, or an InvalidParameterError from build, is a ParseError naming the row."""
    items = {}
    for row_no, (name, *values) in read_table(path, columns):
        if name in items:
            raise ParseError(f"{path}: row {row_no}: duplicate {kind} name {name!r}")
        try:
            items[name] = build(name, *values)
        except InvalidParameterError as exc:
            raise ParseError(f"{path}: row {row_no}: {exc}") from exc
    return list(items.values())


def find_named(items, name: str, kind: str):
    """Look an item up by its .name: exact match first, then case-insensitive."""
    for item in items:
        if item.name == name:
            return item
    folded = name.casefold()
    for item in items:
        if item.name.casefold() == folded:
            return item
    raise KeyError(f"unknown {kind} {name!r}")
