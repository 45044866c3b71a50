"""The CSV reader converts whole batches of rows at once; a bad row must still be
found, named and ordered as if the rows were read one by one.

Each fault goes at the first data row, either side of a batch boundary and in
the last, partial batch of a file several batches long. The rows read, or the
error, must match those of csv.reader reading the file one row at a time.
"""

import csv
import hashlib
import random
import re
import warnings

import pytest

from birdstrike._table import BATCH_ROWS, read_table
from birdstrike.errors import ParseError
from birdstrike.harness import (
    _MEASUREMENTS_COLUMNS,
    _MEASUREMENTS_VELOCITY,
    analyze,
    build_test_matrix,
    ingest_measurements,
    render_report_csv,
    render_report_json,
)
from oracles import csv_rows, write_measurements

HEADER = "scenario_id,iteration,force_n,impact_velocity_m_s"
ITERATIONS = (3 * BATCH_ROWS + BATCH_ROWS // 2) // 9 + 1  # nine scenarios: 3.5 batches of rows
MATRIX = build_test_matrix(iterations_per_scenario=ITERATIONS)
# Index among the data rows where a fault line goes; its file row is index + 2.
POSITIONS = {
    "first row": 0,
    "last of a batch": BATCH_ROWS - 1,
    "first of a batch": BATCH_ROWS,
    "last partial batch": 3 * BATCH_ROWS + BATCH_ROWS // 4,
}


def data_rows(seed=1):
    rows = [f"{s.id},{i},{20.0 + i / 1000!r},7.3"
            for s in MATRIX.scenarios for i in range(1, ITERATIONS + 1)]
    random.Random(seed).shuffle(rows)
    return rows


def write(tmp_path, rows):
    return write_measurements(tmp_path / "measurements.csv", [(row,) for row in rows],
                              velocity=True)


def with_line(index, line):
    rows = data_rows()
    rows.insert(index, rows[index] if line is None else line)
    return rows


def test_file_spans_several_batches():
    assert 3 * BATCH_ROWS < len(data_rows()) < 4 * BATCH_ROWS
    assert POSITIONS["last partial batch"] < len(data_rows())


@pytest.mark.parametrize("where", POSITIONS)
@pytest.mark.parametrize("line", ["", "  \t ", ",,,", " , , , "],
                         ids=["blank", "whitespace", "empty cells", "whitespace cells"])
def test_blank_row_skipped(tmp_path, where, line):
    clean = ingest_measurements(write(tmp_path, data_rows()), MATRIX, strict=True)
    assert ingest_measurements(write(tmp_path, with_line(POSITIONS[where], line)),
                               MATRIX, strict=True) == clean


@pytest.mark.parametrize("where", POSITIONS)
@pytest.mark.parametrize(
    "line, message",
    [
        ("baseline,1", "row {row}: expected 4 columns, got 2"),
        ("baseline,1,5,7.3,9", "row {row}: expected 4 columns, got 5"),
        ("baseline,x,5,7.3", "row {row}, column iteration: not a number: 'x'"),
        ("baseline,1,5,fast", "row {row}, column impact_velocity_m_s: not a number: 'fast'"),
        ("nosuch,1,5,7.3", "row {row}: scenario id 'nosuch' not in matrix"),
        ("baseline,1,-5,7.3", "row {row}: force_n must be >= 0, got -5.0"),
        # The inserted line repeats the row it displaces, which is reported one row on.
        (None, "row {next}: scenario {id!r}: iteration {iteration} repeats or is outside "
               f"1..{ITERATIONS}"),
    ],
    ids=["short row", "long row", "bad cell", "bad velocity cell", "unknown id", "bad force",
         "repeated iteration"],
)
def test_bad_row_named(tmp_path, where, line, message):
    index = POSITIONS[where]
    rows = with_line(index, line)
    scenario_id, iteration = rows[index].split(",")[:2]
    path = write(tmp_path, rows)
    expected = f"{path}: " + message.format(row=index + 2, next=index + 3, id=scenario_id,
                                            iteration=iteration)
    with pytest.raises(ParseError, match=f"^{re.escape(expected)}$"):
        ingest_measurements(path, MATRIX, strict=True)


def lines_text(lines, end="\n"):
    return "".join(line + end for line in lines)


def inserted(line):
    return lambda rows, index: lines_text([HEADER, *rows[:index], line, *rows[index:]])


def crlf_from(rows, index):
    return lines_text([HEADER, *rows[:index]]) + lines_text(rows[index:], "\r\n")


def lone_cr_ending(rows, index):
    rows[index:index + 2] = [f"{rows[index]}\r{rows[index + 1]}"]
    return lines_text([HEADER, *rows])


def no_final_newline(rows, index):
    return lines_text([HEADER, *rows[:index + 1]])[:-1]


LIMIT = csv.field_size_limit()
# Each fault makes the file text from the shuffled data rows and a POSITIONS index.
FAULTS = {
    "quoted comma in an id": inserted('"base,line",1,20.0,7.3'),
    "quoted comma in a number": inserted('baseline,1,"20,5",7.3'),
    "quoted newline in an id": inserted('"base\nline",1,20.0,7.3'),
    "quoted newline in a number": inserted('baseline,1,"20\n",7.3'),
    "quoted cells": inserted('"baseline","1","20.0","7.3"'),
    "unclosed quote": inserted('"baseline,1,20.0,7.3'),
    "CRLF from here": crlf_from,
    "lone CR ending a row": lone_cr_ending,
    "lone CR inside a row": inserted("baseline,1\r,20.0,7.3"),
    "NUL in an id": inserted("base\0line,1,20.0,7.3"),
    "NUL in a number": inserted("baseline,1,20\0,7.3"),
    "cell at the field size limit": inserted("x" * LIMIT + ",1,20.0,7.3"),
    "cell over the field size limit": inserted("x" * (LIMIT + 1) + ",1,20.0,7.3"),
    "whitespace-padded cells": inserted(" baseline ,\t1 , 20.0 ,7.3 "),
    "blank line": inserted(""),
    "no final newline": no_final_newline,
    "too many cells": inserted("baseline,1,5,7.3,9"),
    "too few cells": inserted("baseline,1"),
}


def rows_and_error(path):
    """The rows read_table reads from path, and its ParseError's message or None."""
    rows, error = [], None
    try:
        rows.extend(read_table(path, _MEASUREMENTS_COLUMNS, _MEASUREMENTS_VELOCITY))
    except ParseError as exc:
        error = str(exc)
    return rows, error


@pytest.mark.parametrize("where", POSITIONS)
@pytest.mark.parametrize("fault", FAULTS)
def test_rows_match_a_per_row_csv_reader(tmp_path, where, fault):
    path = tmp_path / "measurements.csv"
    path.write_bytes(FAULTS[fault](data_rows(), POSITIONS[where]).encode())
    assert rows_and_error(path) == csv_rows(
        path, (*_MEASUREMENTS_COLUMNS, *_MEASUREMENTS_VELOCITY))


@pytest.mark.parametrize("line", ["x" * (LIMIT + 1) + ",1,20.0,7.3", "baseline,x,20.0,7.3"],
                         ids=["over-long cell", "bad number"])
def test_rows_read_one_by_one_are_numbered_to_the_end(tmp_path, line):
    # a quoted cell in the first batch sends the rest of the file row by row; a bad row
    # three batches on is still named by its own row
    rows = with_line(POSITIONS["last partial batch"], line)
    rows[5] = '"{}",{}'.format(*rows[5].split(",", 1))
    path = write(tmp_path, rows)
    rows, error = rows_and_error(path)
    assert (rows, error) == csv_rows(path, (*_MEASUREMENTS_COLUMNS, *_MEASUREMENTS_VELOCITY))
    assert error.startswith(f"{path}: row {POSITIONS['last partial batch'] + 2}")


@pytest.mark.parametrize("end, lone_cr, readers", [("\n", False, 1), ("\r\n", False, 1),
                                                   ("\r\n", True, 2)],
                         ids=["LF", "CRLF", "CRLF and a lone CR in the last batch"])
def test_crlf_file_is_split_without_csv_reader(tmp_path, monkeypatch, end, lone_cr, readers):
    rows = data_rows()
    if lone_cr:
        rows[-2:] = [f"{rows[-2]}\r{rows[-1]}"]
    path = tmp_path / "measurements.csv"
    path.write_bytes(lines_text([HEADER, *rows], end).encode())
    want = csv_rows(path, (*_MEASUREMENTS_COLUMNS, *_MEASUREMENTS_VELOCITY))
    calls, reader = [], csv.reader
    monkeypatch.setattr(csv, "reader", lambda *args: calls.append(args) or reader(*args))
    assert (list(read_table(path, _MEASUREMENTS_COLUMNS, _MEASUREMENTS_VELOCITY)), None) == want
    assert len(calls) == readers  # the header's, then the last batch's when it has a lone CR


def test_a_blank_row_sends_the_rest_of_the_file_row_by_row(tmp_path, monkeypatch):
    # a plain batch whose blank row float rejects goes to one csv.reader with the rest of
    # the file, so a second blank row two batches on builds no third reader
    rows = data_rows()
    rows[5:5] = [",,,"]
    rows[2 * BATCH_ROWS:2 * BATCH_ROWS] = [",,,"]
    path = write(tmp_path, rows)
    want = csv_rows(path, (*_MEASUREMENTS_COLUMNS, *_MEASUREMENTS_VELOCITY))
    calls, reader = [], csv.reader
    monkeypatch.setattr(csv, "reader", lambda *args: calls.append(args) or reader(*args))
    assert (list(read_table(path, _MEASUREMENTS_COLUMNS, _MEASUREMENTS_VELOCITY)), None) == want
    assert len(calls) == 2  # the header's, then the first blank row's batch and the rest

@pytest.mark.parametrize("where", ["first row", "first of a batch", "last partial batch"])
def test_earlier_row_error_beats_later_bad_cell_in_the_batch(tmp_path, where):
    index = POSITIONS[where]
    rows = data_rows()
    rows[index + 5:index + 5] = ["baseline,x,5,7.3"]
    rows[index:index] = ["baseline,1,-5,7.3"]
    path = write(tmp_path, rows)
    with pytest.raises(ParseError, match=f"^{re.escape(f'{path}: row {index + 2}: force_n')}"):
        ingest_measurements(path, MATRIX)


def test_one_warning_per_unknown_id(tmp_path):
    rows = data_rows()
    indices = sorted([*POSITIONS.values(), BATCH_ROWS + 1, BATCH_ROWS + 7])
    for index in reversed(indices):
        rows.insert(index, f"nosuch,{index},5,7.3")
    path = write(tmp_path, rows)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sets = ingest_measurements(path, MATRIX)
    # one note, at the first of the rows; the later ones, in later batches, add none
    expected = [f"{path}: row {indices[0] + 2}: scenario id 'nosuch' not in matrix"]
    assert [str(warning.message) for warning in caught] == expected
    assert len(sets[[s.scenario_id for s in sets].index("nosuch")].forces) == len(indices)


# sha256 of both report renderings for the seeded file below, taken before the reader
# converted rows a batch at a time; any change to the parsed values or the statistics shows.
REPORT_CSV_SHA256 = "2bced1f59b6db4a19c3dabb5359b0bb0370fa8acc2a1f0088fa8bf9c0e76d60c"
REPORT_JSON_SHA256 = "7c4ac634b15aecb8098c935f3f4db753684ce521300ef2558099c043675e4bee"


def test_report_digest_on_a_shuffled_multi_batch_file(tmp_path, projectile_set, materials):
    matrix = build_test_matrix(iterations_per_scenario=555)  # 4,995 rows
    rng = random.Random(20230701)
    rows = [f"{s.id},{i},{rng.uniform(14.0, 24.0)!r},{rng.uniform(7.0, 7.8)!r}"
            for s in matrix.scenarios for i in range(1, 556)]
    rng.shuffle(rows)
    path = write(tmp_path, rows)
    report, _ = analyze(matrix, projectile_set, materials, path, strict=True)
    digests = [hashlib.sha256(render(report).encode()).hexdigest()
               for render in (render_report_csv, render_report_json)]
    assert digests == [REPORT_CSV_SHA256, REPORT_JSON_SHA256]
