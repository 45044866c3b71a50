"""The CSV table reader and name lookup shared by the species, materials and
measurements files.

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
"""

from __future__ import annotations

import csv
from typing import Callable, Iterator, Sequence

from .errors import ParseError

Columns = Sequence[tuple[str, Callable[[str], object]]]


def _names(columns: Columns) -> tuple[str, ...]:
    return tuple(name for name, _ in columns)


def read_table(path, columns: Columns, optional: Columns = ()) -> Iterator[tuple[int, list]]:
    """Yield (row number, converted cells) for each data row of a CSV file.

    columns are (name, kind) pairs. The optional columns may follow them in
    the header, all or none; rows then carry their cells too. An empty file
    yields nothing.
    """
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
        for row_no, row in enumerate(reader, start=2):
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
                yield row_no, cells


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
