"""The CSV rules shared by the species, materials and measurements files."""

import csv
from functools import partial

import pytest

from birdstrike.errors import ParseError
from birdstrike.harness import TestMatrix as Matrix, build_test_matrix, ingest_measurements
from birdstrike.materials import load_materials
from birdstrike.species import load_species_registry

# Measurements are read against a matrix; this one's only scenario, baseline, has 1 iteration.
ingest = partial(ingest_measurements,
                 matrix=Matrix(build_test_matrix(iterations_per_scenario=1).scenarios[:1]))

# loader, header, a good row, the good row with one bad cell, that cell's column
FORMATS = [
    pytest.param(
        load_species_registry, "name,mass_kg,length_m,density_kg_m3,flight_speed_m_s",
        "Starling,0.085,0.22,1230,22.35", "Starling,0.085,heavy,1230,22.35", "length_m",
        id="species",
    ),
    pytest.param(
        load_materials, "name,density_kg_m3", "Titanium,4430", "Titanium,dense", "density_kg_m3",
        id="materials",
    ),
    pytest.param(
        ingest, "scenario_id,iteration,force_n",
        "baseline,1,5", "baseline,first,5", "iteration",
        id="measurements",
    ),
    pytest.param(
        ingest, "scenario_id,iteration,force_n,impact_velocity_m_s",
        "baseline,1,5,7.3", "baseline,1,5,fast", "impact_velocity_m_s",
        id="measurements-velocity",
    ),
]


def write(tmp_path, text):
    path = tmp_path / "table.csv"
    path.write_text(text, encoding="utf-8")
    return path


@pytest.mark.parametrize("loader, header, good, bad, column", FORMATS)
class TestSharedCsvRules:
    def test_empty_file_yields_nothing(self, tmp_path, loader, header, good, bad, column):
        assert loader(write(tmp_path, "")) == []

    def test_header_only_yields_nothing(self, tmp_path, loader, header, good, bad, column):
        assert loader(write(tmp_path, header + "\n")) == []

    def test_header_cells_are_stripped(self, tmp_path, loader, header, good, bad, column):
        spaced = ", ".join(header.split(","))
        assert len(loader(write(tmp_path, f" {spaced} \n{good}\n"))) == 1

    def test_wrong_header_rejected(self, tmp_path, loader, header, good, bad, column):
        path = write(tmp_path, f"{header},extra\n{good},1\n")
        with pytest.raises(ParseError, match=r"table\.csv: expected header"):
            loader(path)

    def test_wrong_column_count_names_row(self, tmp_path, loader, header, good, bad, column):
        path = write(tmp_path, f"{header}\n{good}\n{good},1\n")
        with pytest.raises(ParseError, match=r"table\.csv: row 3: expected \d columns"):
            loader(path)

    def test_blank_rows_skipped(self, tmp_path, loader, header, good, bad, column):
        path = write(tmp_path, f"{header}\n,,,\n   \n\n{good}\n \t, ,\n")
        assert len(loader(path)) == 1

    def test_bad_number_names_row_and_column(self, tmp_path, loader, header, good, bad, column):
        # Row numbers count skipped blank rows, so they match the file.
        path = write(tmp_path, f"{header}\n\n{bad}\n")
        cell = next(c for c, g in zip(bad.split(","), good.split(",")) if c != g)
        with pytest.raises(
            ParseError, match=rf"table\.csv: row 3, column {column}: not a number: '{cell}'"
        ):
            loader(path)

    @pytest.mark.parametrize("quote", [False, True], ids=["plain", "quoted"])
    def test_leading_byte_order_mark_is_skipped(self, tmp_path, loader, header, good, bad,
                                                column, quote):
        if quote:  # a quoted cell sends the batch to csv.reader
            good = '"{}",{}'.format(*good.split(",", 1))
        plain = loader(write(tmp_path, f"{header}\n{good}\n"))
        assert len(plain) == 1
        assert loader(write(tmp_path, f"\ufeff{header}\n{good}\n")) == plain

    def test_second_byte_order_mark_is_data(self, tmp_path, loader, header, good, bad, column):
        with pytest.raises(ParseError, match=r"table\.csv: expected header"):
            loader(write(tmp_path, f"\ufeff\ufeff{header}\n{good}\n"))

    def test_bad_utf8_names_the_file(self, tmp_path, loader, header, good, bad, column):
        # A decode error can surface a read buffer ahead of its row, so only the file is named.
        path = tmp_path / "table.csv"
        path.write_bytes(f"{header}\n{good}\n".encode() + b"\xff\n")
        with pytest.raises(ParseError, match=r"^.*table\.csv: not UTF-8 text \(invalid start byte\)$"):
            loader(path)

    def test_oversized_cell_names_the_row(self, tmp_path, loader, header, good, bad, column):
        oversized = '"' + "9" * (csv.field_size_limit() + 1) + '"'
        path = write(tmp_path, f"{header}\n{good}\n\n{oversized},{good}\n")
        with pytest.raises(ParseError, match=r"table\.csv: row 4: field larger than field limit"):
            loader(path)


def test_byte_order_mark_in_a_cell_is_data(tmp_path):
    path = write(tmp_path, "\ufeffscenario_id,iteration,force_n\n\ufeffbaseline,1,5\n")
    with pytest.raises(ParseError) as caught:
        ingest(path, strict=True)
    assert str(caught.value) == f"{path}: row 2: scenario id '\\ufeffbaseline' not in matrix"
