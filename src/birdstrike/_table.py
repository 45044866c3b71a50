"""The CSV table reader shared by the species, materials and measurements files,
the loader (read_named) of the named species and materials records, the JSON
reader of the matrix file (descriptor files are written, never read), the CSV
writer (render_csv) of the report, plan and sweep outputs, and the one writer
(render_json) of every JSON output. The library imports it in the functions that
read or write a file, so set-up (the modules, the bundled species, the default
matrix and the projectile set) compiles none of it.

Every input CSV follows the same rules: the first row is the header and must
equal the format's column names once each cell is stripped; blank or
whitespace-only rows are skipped; every other row has exactly one cell per
column; and each cell is converted by its column's kind (str.strip, int or
float). Errors are ParseErrors naming the file, the row (the header is row 1)
and, for a bad cell, the column. Every input file is UTF-8, a leading byte-order
mark skipped; one that is not is a ParseError too, naming only the file: a
decode error can surface one read buffer ahead of its row.

After csv.reader reads the header, lines are read BATCH_ROWS at a time, and a
batch's CRLF line ends are made LF. A plain batch (no quote, lone CR or NUL, and
no longer than csv.field_size_limit()) is cut by one str.split on commas, each
line end made a cell of its own. When the line ends fall at every width+1-th
cell, each line has one cell per column, as csv.reader would split it (every
format has two or more, so an empty line fails), and each column is a slice of
the cells, converted in one map. Any other batch, and a plain batch with a
cell its kind rejects (a bad number, or a blank row such as ",,"), goes with the
rest of the file to csv.reader a row at a time, so quoted cells, lone CR line
ends, NUL and over-long cells (a ParseError naming the row) mean what the csv
module says; no later batch is split. Row by row, the first bad row and column
are named after the rows before it are yielded, so a caller's error on an
earlier row comes first. Only that route looks for blank rows, and it skips them
all: each format has a numeric column, which rejects a blank cell.
"""

from __future__ import annotations

import io
from collections.abc import Callable, Iterator, Sequence
from itertools import chain, count, islice

from .errors import InvalidParameterError, ParseError

Columns = Sequence[tuple[str, Callable[[str], object]]]

BATCH_ROWS = 1024


def _names(columns: Columns) -> tuple[str, ...]:
    return tuple(name for name, _ in columns)


def read_batches(path, columns: Columns,
                 optional: Columns = ()) -> Iterator[tuple[Sequence[int], list]]:
    """Yield (row numbers, converted columns) for each batch of data rows of a CSV file.

    columns are (name, kind) pairs; the optional ones may follow them in the header, all
    or none, and batches then carry their columns too. An empty file yields nothing.
    """
    # csv and json are imported where used: the commands that read and write neither
    # (force, check-cert, plan's text table, ...) skip their import.
    import csv
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
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
                batch = list(islice(handle, BATCH_ROWS))
                text = "".join(batch)
                if "\r" in text:  # CRLF ends made LF: a lone CR stays, and fails the test
                    text = text.replace("\r\n", "\n")
                cells = text.replace("\n", ",\n,").split(",")  # each line's cells, then "\n"
                if not (cells[width::width + 1] == ["\n"] * len(batch)
                        and len(text) <= csv.field_size_limit()
                        and not any(char in text for char in '"\r\0')):
                    break
                # No column slice is held: it would keep the cells alive through the next read.
                try:
                    converted = [list(map(kind, cells[j:-1:width + 1]))
                                 for j, (_, kind) in enumerate(spec)]
                except ValueError:  # csv.reader splits a plain batch the same way
                    break
                yield range(row_no, row_no + len(batch)), converted
                row_no += len(batch)
                if len(batch) < BATCH_ROWS:
                    return
            yield from _rows_one_by_one(path, spec, csv.reader(chain(batch, handle)), row_no)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:  # the header's: _rows_one_by_one names the other rows
        raise ParseError(f"{path}: row 1: {exc}") from None


def read_table(path, columns: Columns, optional: Columns = ()) -> Iterator[tuple[int, tuple]]:
    """Yield (row number, converted cells) for each data row: read_batches a row at a time."""
    for numbers, converted in read_batches(path, columns, optional):
        yield from zip(numbers, zip(*converted))


def _rows_one_by_one(path, spec: Columns, rows: Iterator[list[str]], row_no: int):
    """Yield each row of a csv.reader but blank ones as a batch of one, the first numbered
    row_no; a csv.Error or a bad row is a ParseError naming it, once the rows before it are."""
    import csv
    width = len(spec)
    for row_no in count(row_no):
        try:
            row = next(rows, None)
        except csv.Error as exc:
            raise ParseError(f"{path}: row {row_no}: {exc}") from None
        if row is None:
            return
        if not "".join(row).strip():
            continue
        if len(row) != width:
            raise ParseError(f"{path}: row {row_no}: expected {width} columns, got {len(row)}")
        cells = []
        for (name, kind), cell in zip(spec, row):
            try:
                cells.append(kind(cell))
            except ValueError:
                raise ParseError(
                    f"{path}: row {row_no}, column {name}: not a number: {cell!r}"
                ) from None
        yield (row_no,), [(cell,) for cell in cells]


def render_csv(rows) -> str:
    """The rows as CSV text with "\n" line ends, each cell quoted as the csv module needs."""
    import csv
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def render_json(payload) -> str:
    """The payload as JSON text, indented by 2 spaces, with a final newline."""
    import json
    return json.dumps(payload, indent=2) + "\n"


def read_json(path, build):
    """build(payload) for the matrix JSON file at path. A file that does not load, or a
    KeyError, InvalidParameterError or TypeError from build, is a ParseError naming it."""
    import json
    with open(path, encoding="utf-8-sig") as handle:
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
