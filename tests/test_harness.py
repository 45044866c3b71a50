import hashlib
import json
import math
import random
import re
import tracemalloc
import warnings
from fractions import Fraction

import pytest

from birdstrike import harness
from birdstrike.errors import InvalidParameterError, ParseError
from birdstrike.harness import (
    ConformanceReport,
    MeasurementSet,
    ScenarioConformance,
    TestMatrix as Matrix,  # aliased so pytest does not try to collect them
    TestScenario as Scenario,
    VelocitySplit,
    analyze,
    build_test_matrix,
    conformance_report,
    ingest_measurements,
    matrix_to_json,
    nominal_velocity_mismatches,
    percent_error,
    read_matrix,
    scenario_stats,
    theoretical_reference,
)
from birdstrike.impact import PUBLISHED_DELTA_NOTES
from birdstrike.kinematics import GRAVITY_PRESETS
from birdstrike.materials import ALUMINIUM_2024_T3, CFRP, MaterialSpec, find_material
from birdstrike.projectile import Cylinder, generate_projectile_set
from birdstrike.species import BirdSpecies

from oracles import exact_reference_force, write_measurements


def measurements_csv(tmp_path, matrix, force_for=lambda s, i: 5.0, with_velocity=False):
    return write_measurements(tmp_path / "measurements.csv", [
        (s.id, n, force_for(s, n), *(7.3,) * with_velocity)
        for s in matrix.scenarios for n in range(1, s.iterations + 1)], with_velocity)


class TestBuildMatrix:
    def test_single_iteration_matrix(self):
        matrix = build_test_matrix(iterations_per_scenario=1)
        assert [scenario.iterations for scenario in matrix.scenarios] == [1] * 9

    def test_rows_name_a_projectile_and_a_builtin_material(self, default_matrix,
                                                            registry, materials):
        # analyze looks each scenario's serial up in the projectile set and its
        # specimen in the materials, with no check of its own. Any serial a
        # TestScenario accepts (1..5) names a projectile, for every species.
        for species in registry:
            assert [spec.serial for spec in generate_projectile_set(species)] == [1, 2, 3, 4, 5]
        assert {s.projectile_serial for s in default_matrix.scenarios} <= set(range(1, 6))
        assert ({s.specimen_material for s in default_matrix.scenarios}
                <= {material.name for material in materials})

    def test_unknown_projectile_serial_rejected(self, default_matrix, tmp_path):
        # A projectile set holds serials 1..5, so a scenario naming any other
        # serial is refused, whether built directly or read from a matrix file.
        with pytest.raises(InvalidParameterError, match="projectile_serial"):
            default_matrix.scenario("baseline")._replace(projectile_serial=6)
        payload = json.loads(matrix_to_json(default_matrix))
        payload["scenarios"][0]["projectile_serial"] = 6
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ParseError, match="projectile_serial"):
            read_matrix(path)

    def test_unknown_scenario_id_rejected(self, default_matrix):
        with pytest.raises(InvalidParameterError) as caught:
            default_matrix.scenario("nosuch")
        assert str(caught.value) == "unknown scenario id 'nosuch'"

    def test_json_round_trip(self, default_matrix, tmp_path):
        path = tmp_path / "matrix.json"
        path.write_text(matrix_to_json(default_matrix), encoding="utf-8")
        assert read_matrix(path) == default_matrix

    def test_read_rejects_too_deep_nesting(self, tmp_path):
        # json.load raises RecursionError, not ValueError, on a file nested this deep
        path = tmp_path / "deep.json"
        path.write_text("[" * 200000 + "]" * 200000, encoding="utf-8")
        with pytest.raises(ParseError, match=f"^{re.escape(f'{path}: JSON nested too deeply')}$"):
            read_matrix(path)

    @pytest.mark.parametrize("field, value", [("iterations", 2.0), ("case_number", 1.5),
                                              ("projectile_serial", True)])
    def test_read_rejects_non_integer_count(self, default_matrix, tmp_path, field, value):
        payload = json.loads(matrix_to_json(default_matrix))
        payload["scenarios"][0][field] = value
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        message = re.escape(f"{path}: {field} must be an integer, got {value!r}")
        with pytest.raises(ParseError, match=f"^{message}$"):
            read_matrix(path)


class TestNominalVelocities:
    @pytest.mark.parametrize("nominal, flagged", [(0.05, False), (0.0499, True)])
    def test_tolerance_band_edge(self, nominal, flagged):
        # sqrt(2*10*0.0005) = 0.1: a nominal 0.05 m/s is exactly the tolerance off
        matrix = Matrix((Scenario("low", 1, 1, 0.0005, nominal, 90.0, "CFRP", 1),))
        assert nominal_velocity_mismatches(matrix, 10.0) == ({"low": (nominal, 0.1)} if flagged
                                                              else {})


class TestTheoreticalReference:
    def test_zero_cruise_uses_stationary_model(self, default_matrix, projectile_set, materials):
        # cruise 0 puts the aircraft at rest: the whole drop velocity is bird speed
        from birdstrike.impact import impact_force_stationary

        sn1 = projectile_set[0]
        aluminium = find_material(materials, "Aluminium-2024-T3")
        scenario = default_matrix.scenario("baseline")
        force = theoretical_reference(scenario, sn1, aluminium, gravity=10.0, cruise_speed=0.0)
        stationary = impact_force_stationary(
            sn1.mass, math.sqrt(2.0 * 10.0 * 2.8), sn1.shape.length, sn1.effective_density,
            aluminium.density, 90.0,
        )
        assert force == stationary


class TestIngestMeasurements:
    @pytest.mark.parametrize("with_velocity", [False, True], ids=["forces", "velocities"])
    def test_each_value_is_checked_once(self, default_matrix, tmp_path, monkeypatch,
                                        with_velocity):
        # every force and velocity is range-checked on its row, so the sets skip
        # MeasurementSet's own second pass over the same values
        path = measurements_csv(tmp_path, default_matrix, with_velocity=with_velocity)
        checks = []
        monkeypatch.setattr(MeasurementSet, "__post_init__", checks.append)
        sets = ingest_measurements(path, default_matrix)
        monkeypatch.undo()
        assert checks == []
        assert sets == [MeasurementSet(s.scenario_id, s.forces, s.impact_velocities) for s in sets]

    @pytest.mark.parametrize(
        "row, message",
        [("baseline,2,-2,7.3", "row 3: force_n must be >= 0, got -2.0"),
         ("baseline,2,nan,7.3", "row 3: force_n must be >= 0, got nan"),
         ("baseline,2,inf,7.3", "row 3: force_n must be >= 0, got inf"),
         ("baseline,2,5,nan", "row 3: impact_velocity_m_s must be >= 0, got nan"),
         ("baseline,2,5,-7.3", "row 3: impact_velocity_m_s must be >= 0, got -7.3"),
         ("baseline,2,5,inf", "row 3: impact_velocity_m_s must be >= 0, got inf"),
         ("baseline,0,5,7.3", "row 3: scenario 'baseline': iteration 0 repeats or is "
                              "outside 1..2"),
         ("baseline,1,5,7.3", "row 3: scenario 'baseline': iteration 1 repeats or is "
                              "outside 1..2"),
         ("baseline,3,5,7.3", "row 3: scenario 'baseline': iteration 3 repeats or is "
                              "outside 1..2"),
         # the flags have grown to the declared count, and no further
         ("baseline,2,5,7.3\nbaseline,3,5,7.3", "row 4: scenario 'baseline': iteration 3 "
                                                "repeats or is outside 1..2")],
    )
    def test_bad_row_rejected(self, tmp_path, row, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"scenario_id,iteration,force_n,impact_velocity_m_s\n"
                        f"baseline,1,5,7.3\n{row}\n", encoding="utf-8")
        matrix = build_test_matrix(iterations_per_scenario=2)
        with pytest.raises(ParseError, match=f"^{re.escape(f'{path}: {message}')}$"):
            ingest_measurements(path, matrix)

    @pytest.mark.parametrize("with_velocity, digest", [
        (False, "4b857b30d482cf67838fe30234c354838a1c3910d3a3fdc595d5ae1db186e0cd"),
        (True, "bde4c01edce9004ee60b3706064bea31fab882a72d94066dda9366f5a63e8411"),
    ], ids=["forces", "velocities"])
    def test_sets_keep_their_order_and_bits(self, default_matrix, tmp_path, with_velocity,
                                            digest):
        # the default campaign's rows shuffled, with unknown ids among them (non-strict);
        # the digest is of the sets' repr, every float at full precision
        rng = random.Random(7)
        rows = [(s.id, str(n)) for s in default_matrix.scenarios for n in range(1, 16)]
        rows += [("mystery", "1"), ("2.3", "-4"), ("mystery", "1")]
        rng.shuffle(rows)
        path = write_measurements(tmp_path / "measurements.csv", [
            (i, n, rng.uniform(0.0, 500.0), rng.uniform(5.0, 9.0))[:3 + with_velocity]
            for i, n in rows], with_velocity)
        with pytest.warns(UserWarning, match="not in matrix"):
            sets = ingest_measurements(path, default_matrix)
        assert [s.scenario_id for s in sets] == list(dict.fromkeys(i for i, _ in rows))
        assert hashlib.sha256(repr(sets).encode()).hexdigest() == digest

    def test_ingest_holds_one_copy_of_the_data(self, tmp_path):
        # each scenario's lists are freed once its tuples exist, so the peak is the data
        # plus about one scenario's lists, not the data twice (1.29 when every set was
        # built after the last row)
        matrix = build_test_matrix(iterations_per_scenario=10_000)
        rng = random.Random(25)
        rows = [(s.id, n) for s in matrix.scenarios for n in range(1, 10_001)]
        rng.shuffle(rows)
        path = write_measurements(tmp_path / "campaign.csv", (
            (i, n, rng.uniform(1e3, 5e3), rng.uniform(5.0, 9.0)) for i, n in rows), velocity=True)
        tracemalloc.start()
        try:
            sets = ingest_measurements(path, matrix)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [len(s.impact_velocities) for s in sets] == [10_000] * 9
        assert peak / retained <= 1.2

    def test_declared_count_allocates_nothing_before_rows_arrive(self, default_matrix, tmp_path):
        path = measurements_csv(tmp_path, default_matrix)
        matrix = build_test_matrix(iterations_per_scenario=10**6)
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match="has 15 iterations, matrix expects 1000000$"):
                ingest_measurements(path, matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("iteration", [10**18, 10**19], ids=["no memory", "no index"])
    def test_iteration_too_large_to_flag_rejected(self, tmp_path, iteration):
        # the flags for a row's iteration cannot be allocated (10**18) or indexed (10**19)
        path = tmp_path / "huge.csv"
        path.write_text(f"scenario_id,iteration,force_n\nbaseline,{iteration},5.0\n",
                        encoding="utf-8")
        matrix = build_test_matrix(iterations_per_scenario=10**20)
        message = (f"{path}: row 2: scenario 'baseline': iteration {iteration} is too large "
                   "to check for repeats")
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            ingest_measurements(path, matrix)


class TestIngestRandomised:
    """Ingest against a seeded random small matrix, with the rows shuffled."""

    SEEDS = range(20)

    @staticmethod
    def campaign(seed, tmp_path):
        """(rng, matrix, rows, write): a matrix of 1 to 4 scenarios of 2 to 6 iterations
        each, one row per iteration as (scenario id, iteration, force, velocity or None)
        in random order, and write(rows), which saves rows as a measurements CSV and
        returns its path."""
        rng = random.Random(seed)
        base = build_test_matrix().scenarios[0]
        ids = rng.sample(["baseline", "1", "2.1", "s", "case 4"], rng.randint(1, 4))
        matrix = Matrix(tuple(base._replace(id=i, iterations=rng.randint(2, 6)) for i in ids))
        with_velocity = rng.random() < 0.5
        rows = [(s.id, n, round(rng.uniform(0.0, 500.0), 3),
                 round(rng.uniform(5.0, 9.0), 4) if with_velocity else None)
                for s in matrix.scenarios for n in range(1, s.iterations + 1)]
        rng.shuffle(rows)

        def write(rows):
            return write_measurements(tmp_path / "measurements.csv",
                                      [row[:3 + with_velocity] for row in rows], with_velocity)
        return rng, matrix, rows, write

    @staticmethod
    def oracle(rows):
        """The rows grouped by scenario id in first-appearance order, in row order."""
        groups = {}
        for scenario_id, _, force, velocity in rows:
            groups.setdefault(scenario_id, []).append((force, velocity))
        return [MeasurementSet(scenario_id, tuple(f for f, _ in group),
                               None if group[0][1] is None else tuple(v for _, v in group))
                for scenario_id, group in groups.items()]

    def test_the_seeds_cover_both_layouts(self, tmp_path):
        # so the oracle tests read files with and without the velocity column
        assert {self.campaign(seed, tmp_path)[2][0][3] is None for seed in self.SEEDS} == {
            False, True}

    @pytest.mark.parametrize("seed", SEEDS)
    def test_shuffled_rows_group_like_the_oracle(self, tmp_path, seed):
        _, matrix, rows, write = self.campaign(seed, tmp_path)
        assert ingest_measurements(write(rows), matrix, strict=True) == self.oracle(rows)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_a_dropped_row_breaks_the_count(self, tmp_path, seed):
        rng, matrix, rows, write = self.campaign(seed, tmp_path)
        scenario_id = rows.pop(rng.randrange(len(rows)))[0]
        expected = matrix.scenario(scenario_id).iterations
        path = write(rows)
        message = (f"{path}: scenario {scenario_id!r} has {expected - 1} iterations, "
                   f"matrix expects {expected}")
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            ingest_measurements(path, matrix)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_a_duplicated_row_repeats_at_its_row_number(self, tmp_path, seed):
        rng, matrix, rows, write = self.campaign(seed, tmp_path)
        copy = rng.choice(rows)
        rows.insert(rng.randint(0, len(rows)), copy)
        row_no = 2 + max(index for index, row in enumerate(rows) if row == copy)  # after the header
        path = write(rows)
        message = (f"{path}: row {row_no}: scenario {copy[0]!r}: iteration {copy[1]} repeats "
                   f"or is outside 1..{matrix.scenario(copy[0]).iterations}")
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            ingest_measurements(path, matrix)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_unknown_ids_warn_once_per_id_or_raise_when_strict(self, tmp_path, seed):
        rng, matrix, rows, write = self.campaign(seed, tmp_path)
        for _ in range(rng.randint(1, 3)):
            unknown = (rng.choice(["x", "2.3", "base line"]), rng.randint(-1, 9),
                       rows[0][2], rows[0][3])
            rows.insert(rng.randint(0, len(rows)), unknown)
        path = write(rows)
        known = {scenario.id for scenario in matrix.scenarios}
        first_rows = {}  # each unknown id's first row, in file order
        for row_no, row in enumerate(rows, 2):  # after the header
            if row[0] not in known:
                first_rows.setdefault(row[0], row_no)
        notes = [f"{path}: row {row_no}: scenario id {scenario_id!r} not in matrix"
                 for scenario_id, row_no in first_rows.items()]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert ingest_measurements(path, matrix) == self.oracle(rows)
        assert [str(warning.message) for warning in caught] == notes
        assert {warning.filename for warning in caught} == {__file__}  # the caller
        with pytest.raises(ParseError, match=f"^{re.escape(notes[0])}$"):
            ingest_measurements(path, matrix, strict=True)


class TestScenarioStats:
    def test_empty_set_rejected(self):
        with pytest.raises(InvalidParameterError):
            MeasurementSet("x", ())


class TestMeasurementSetChecks:
    """The first bad force or velocity is named; what the range check accepts stays accepted."""

    @staticmethod
    def build(column, values):
        if column == "force":
            return MeasurementSet("s", values)
        return MeasurementSet("s", (1.0,) * len(values), values)

    @pytest.mark.parametrize("column", ["force", "impact_velocity"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.5],
                             ids=["nan", "inf", "-inf", "negative"])
    @pytest.mark.parametrize("last", [5.0, -3.0], ids=["alone", "before another"])
    def test_first_bad_value_is_named(self, column, bad, last):
        with pytest.raises(InvalidParameterError) as caught:
            self.build(column, (2.0, bad, last))
        assert str(caught.value) == f"{column} must be >= 0, got {bad!r} (scenario 's')"

    @pytest.mark.parametrize("column", ["force", "impact_velocity"])
    def test_string_raises_type_error(self, column):
        with pytest.raises(InvalidParameterError) as caught:
            self.build(column, (2.0, "7", -3.0))
        assert str(caught.value) == f"{column} must be a number, got '7' (scenario 's')"

    # An int beyond float range is rejected by require, as every public constructor does.
    BEYOND = r"must be a number within float range, got 10{400} \(scenario 's'\)$"

    @pytest.mark.parametrize("column", ["force", "impact_velocity"])
    @pytest.mark.parametrize("values", [(2.0, 10**400, 5.0), (1.7e308, 1.7e308), (2.0, 3, 0)],
                             ids=["int beyond float range", "sum overflows", "int"])
    def test_accepted_as_before(self, column, values):
        if 10**400 in values:
            with pytest.raises(InvalidParameterError, match=f"^{column} {self.BEYOND}"):
                self.build(column, values)
            return
        built = self.build(column, values)
        assert (built.forces if column == "force" else built.impact_velocities) == values

    @pytest.mark.parametrize("column", ["force", "impact_velocity"])
    @pytest.mark.parametrize("accepted", [3, 10**400], ids=["int", "int beyond float range"])
    def test_accepted_value_does_not_stop_the_walk(self, column, accepted):
        stop = r"got -3\.0 \(scenario 's'\)$" if accepted == 3 else self.BEYOND
        with pytest.raises(InvalidParameterError, match=stop):
            self.build(column, (2.0, accepted, -3.0))

    @pytest.mark.parametrize("column", ["force", "impact_velocity"])
    @pytest.mark.parametrize("value", [None, b"7", [2.0], True], ids=repr)
    def test_non_number_is_require_error(self, column, value):
        with pytest.raises(InvalidParameterError) as caught:
            self.build(column, (2.0, value))
        assert str(caught.value) == f"{column} must be a number, got {value!r} (scenario 's')"


class TestPercentError:
    def test_normal_range_keeps_its_bits(self):
        rng = random.Random(7)
        for _ in range(2000):
            theoretical, experimental = rng.uniform(1e-3, 1e4), rng.uniform(0.0, 2e4)
            error = percent_error(theoretical, experimental)
            assert error == (theoretical - experimental) * 100.0 / theoretical

    @pytest.mark.parametrize("theoretical, experimental",
                             [(19.0, 1e307), (1000.0, 1.7e308), (2.0, 3e306)])
    def test_overflowing_product_still_gives_a_finite_error(self, theoretical, experimental):
        error = percent_error(theoretical, experimental)
        assert math.isfinite(error)
        assert error == (theoretical - experimental) / theoretical * 100.0

    @pytest.mark.parametrize("theoretical, experimental", [(1.0, 1.7e308), (1e-300, 1e10)])
    def test_error_beyond_float_range_rejected(self, theoretical, experimental):
        with pytest.raises(InvalidParameterError, match="beyond float range$"):
            percent_error(theoretical, experimental)

    def test_report_names_the_scenario_beyond_float_range(self):
        matrix = two_scenario_matrix()
        measurements = [MeasurementSet("a", (10.0, 10.0)), MeasurementSet("b", (1.7e308,) * 2)]
        with pytest.raises(InvalidParameterError, match=r"^scenario 'b': percent error of 1\.7e\+308"):
            conformance_report(matrix, {"a": 10.0, "b": 1.0}, measurements)

    def test_overall_means_finite_when_their_sum_overflows(self):
        matrix = two_scenario_matrix()
        measurements = [MeasurementSet(s.id, (1e306,) * 2) for s in matrix.scenarios]
        report = conformance_report(matrix, {"a": 1.0, "b": 1.0}, measurements)
        row = report.scenarios[0]
        assert row.percent_conformance == 100.0 - percent_error(1.0, 1e306) > 9e307
        assert report.overall_mean_conformance == row.percent_conformance
        assert report.overall_mean_conformance_abs == row.percent_conformance_abs


def two_scenario_matrix():
    scenarios = (
        Scenario("a", 1, 1, 2.8, 7.49, 90.0, "Aluminium-2024-T3", 2),
        Scenario("b", 2, 1, 2.0, 6.44, 90.0, "Aluminium-2024-T3", 2),
    )
    return Matrix(scenarios)


class TestConformanceReport:
    def test_derived_values_follow_the_rows(self):
        assert ScenarioConformance._fields == (
            "scenario_id", "theoretical_force", "experimental_mean", "experimental_std")
        assert ConformanceReport._fields == ("scenarios",)
        matrix = two_scenario_matrix()
        measurements = [MeasurementSet("a", (19.0,)), MeasurementSet("b", (30.0,))]
        report = conformance_report(matrix, {"a": 20.0, "b": 20.0}, measurements)
        a, b = report.scenarios
        assert (a.percent_error, a.percent_conformance, a.percent_conformance_abs) == (
            5.0, 95.0, 95.0)
        assert (b.percent_error, b.percent_conformance, b.percent_conformance_abs) == (
            -50.0, 150.0, 50.0)
        assert (report.overall_mean_conformance, report.overall_mean_conformance_abs) == (
            122.5, 72.5)
        moved = a._replace(experimental_mean=5.0)
        assert (moved.percent_error, moved.percent_conformance, moved.percent_conformance_abs) == (
            75.0, 25.0, 25.0)
        report = report._replace(scenarios=(moved, b))
        assert (report.overall_mean_conformance, report.overall_mean_conformance_abs) == (
            87.5, 37.5)
        report = report._replace(scenarios=(b,))
        assert (report.overall_mean_conformance, report.overall_mean_conformance_abs) == (
            b.percent_conformance, b.percent_conformance_abs)

    def test_a_row_or_report_without_a_result_raises_when_built(self):
        with pytest.raises(InvalidParameterError, match="^theoretical must be > 0, got 0.0$"):
            ScenarioConformance("a", 0.0, 5.0, 0.0)
        message = "percent error of 1e+300 N against 1e-300 N is beyond float range"
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
            ScenarioConformance("a", 1e-300, 1e300, 0.0)
        with pytest.raises(InvalidParameterError, match="^a conformance report needs at least "):
            ConformanceReport(())

    @pytest.mark.parametrize("std", [-5.0, math.nan])
    def test_a_bad_standard_deviation_names_its_scenario(self, std, monkeypatch):
        monkeypatch.setattr(harness, "scenario_stats", lambda measurement: (9.0, std))
        message = f"^scenario 'a': experimental_std must be >= 0, got {std!r}$"
        with pytest.raises(InvalidParameterError, match=message):
            conformance_report(two_scenario_matrix(), {"a": 10.0, "b": 10.0},
                               [MeasurementSet("a", (9.0,)), MeasurementSet("b", (9.0,))])

    def test_missing_reference_rejected(self):
        matrix = two_scenario_matrix()
        with pytest.raises(InvalidParameterError, match="reference"):
            conformance_report(matrix, {"a": 10.0}, [MeasurementSet("a", (9.0,)),
                                                     MeasurementSet("b", (9.0,))])

    def test_a_second_set_for_one_scenario_rejected(self):
        measurements = [MeasurementSet("a", (9.0, 9.0)), MeasurementSet("b", (9.0,)),
                        MeasurementSet("a", (1.0,))]
        with pytest.raises(InvalidParameterError) as caught:
            conformance_report(two_scenario_matrix(), {"a": 10.0, "b": 10.0}, measurements)
        assert str(caught.value) == "duplicate scenario id 'a'"

    def test_report_rederivable_from_raw_forces(self):
        rng = random.Random(5)
        matrix = two_scenario_matrix()
        for _ in range(200):
            references = {"a": rng.uniform(1.0, 100.0), "b": rng.uniform(1.0, 100.0)}
            measurements = [
                MeasurementSet("a", tuple(rng.uniform(0.0, 100.0) for _ in range(5))),
                MeasurementSet("b", tuple(rng.uniform(0.0, 100.0) for _ in range(5))),
            ]
            report = conformance_report(matrix, references, measurements)
            for row, measurement in zip(report.scenarios, measurements):
                mean, std = scenario_stats(measurement)
                error = percent_error(references[row.scenario_id], mean)
                assert row.percent_error == error
                assert row.percent_conformance == 100.0 - error
                assert row.percent_conformance_abs == 100.0 - abs(error)
                assert row.experimental_mean == mean
                assert row.experimental_std == std


def hand_written_pipeline(matrix, projectiles, materials, path, *,
                          gravity=GRAVITY_PRESETS["standard"], strict=False, **settings):
    """The analyze stages written out one call each: the reference analyze must equal."""
    mismatches = nominal_velocity_mismatches(matrix, gravity)
    if not math.isclose(gravity, GRAVITY_PRESETS["paper"]):  # nominal velocities are at g = 10
        mismatches = {}
    by_serial = {spec.serial: spec for spec in projectiles}
    references = {
        s.id: theoretical_reference(s, by_serial[s.projectile_serial],
                                    find_material(materials, s.specimen_material),
                                    gravity=gravity, **settings)
        for s in matrix.scenarios
    }
    measurements = ingest_measurements(path, matrix, strict=strict)
    return conformance_report(matrix, references, measurements), mismatches


class TestAnalyze:
    """analyze runs the stages in order, and a stage's error names the arguments it read."""

    VELOCITY = ("scenario {!r}: height {} gives an impact velocity sqrt(2*g*h) beyond float "
                "range at gravity {}")

    @pytest.fixture()
    def path(self, tmp_path, default_matrix):
        return measurements_csv(tmp_path, default_matrix, force_for=lambda s, i: 15.0 + i / 8)

    @staticmethod
    def error(*args, **settings):
        """analyze's error as (.inputs, message, the type of the error it was raised from)."""
        with pytest.raises(InvalidParameterError) as caught:
            analyze(*args, **settings)
        error = caught.value
        return error.inputs, str(error), type(error.__cause__)

    @staticmethod
    def huge_height(matrix, scenario_id="2.1"):
        return Matrix(tuple(s._replace(drop_height=1.7e308) if s.id == scenario_id else s
                            for s in matrix.scenarios))

    @pytest.mark.parametrize("settings", [
        {},
        dict(gravity=10.0, split=VelocitySplit.ALL_AIRCRAFT, scale_factor=20.0,
             cruise_speed=0.0, use_nominal_velocity=True, strict=True),
    ], ids=["defaults", "every setting"])
    def test_equals_the_hand_written_pipeline(self, default_matrix, projectile_set, materials,
                                              path, settings):
        result = analyze(default_matrix, projectile_set, materials, path, **settings)
        assert result == hand_written_pipeline(default_matrix, projectile_set, materials, path,
                                               **settings)

    @pytest.mark.parametrize("setting, message", [
        (dict(gravity=-1.0), "gravity must be > 0, got -1.0"),
        (dict(scale_factor=0.5), "scale_factor must be >= 1, got 0.5"),
        (dict(cruise_speed=-1.0), "cruise_speed must be >= 0, got -1.0"),
        (dict(split="bogus"),
         "velocity_split must be one of ['scaled-cruise', 'all-aircraft'], got 'bogus'"),
        (dict(use_nominal_velocity="no"), "use_nominal_velocity must be a bool, got 'no'"),
        *((dict(split=split),
           f"velocity_split must be one of ['scaled-cruise', 'all-aircraft'], got {split!r}")
          for split in ["All-Aircraft", "", None, 1]),
        *((dict(use_nominal_velocity=flag), f"use_nominal_velocity must be a bool, got {flag!r}")
          for flag in [1, 0, None]),
    ])
    def test_a_setting_names_no_input(self, default_matrix, projectile_set, materials, path,
                                      setting, message):
        # checked before the matrix, whose velocity would fail next
        matrix = self.huge_height(default_matrix)
        assert self.error(matrix, projectile_set, materials, path, **setting) == (
            (), message, InvalidParameterError)

    @pytest.mark.parametrize("use_nominal", [False, True])
    def test_a_velocity_names_the_matrix(self, default_matrix, projectile_set, materials, path,
                                         use_nominal):
        matrix = self.huge_height(default_matrix)
        assert self.error(matrix, projectile_set, materials, path,
                          use_nominal_velocity=use_nominal) == (
            ("matrix",), self.VELOCITY.format("2.1", "1.7e+308", "9.80665"),
            InvalidParameterError)

    @pytest.mark.parametrize("without", [None, "baseline"], ids=["built-in", "given"])
    def test_a_velocity_the_built_in_matrix_shares_names_no_input(
            self, default_matrix, projectile_set, materials, path, without):
        # the message is the given matrix's own, naming its first scenario
        matrix = Matrix(tuple(s for s in default_matrix.scenarios if s.id != without))
        assert self.error(matrix, projectile_set, materials, path, gravity=1e308) == (
            (), self.VELOCITY.format(matrix.scenarios[0].id, "2.8", "1e+308"),
            InvalidParameterError)

    def test_a_missing_material_names_the_matrix_and_materials(self, default_matrix,
                                                                 projectile_set, path):
        assert self.error(default_matrix, projectile_set, [ALUMINIUM_2024_T3], path) == (
            ("matrix", "materials"), "scenario '6': unknown material 'CFRP'",
            InvalidParameterError)

    def test_a_missing_projectile_names_the_matrix_materials_and_projectiles(
            self, default_matrix, projectile_set, materials, path):
        assert self.error(default_matrix, projectile_set[:2], materials, path) == (
            ("matrix", "materials", "projectiles"),
            "scenario '1': unknown projectile serial 3", InvalidParameterError)

    @pytest.mark.parametrize("inputs, message", [("projectiles", "duplicate projectile serial 1"),
                                                 ("materials", "duplicate material name 'CFRP'")])
    def test_a_repeated_serial_or_material_name_names_its_input(
            self, default_matrix, projectile_set, materials, path, inputs, message):
        # SN3 again as serial 1, or CFRP again at 9999 kg/m^3: the reference would depend on
        # which copy came first
        given = dict(projectiles=list(projectile_set), materials=materials)
        repeat = dict(projectiles=projectile_set[2]._replace(serial=1),
                      materials=MaterialSpec("CFRP", 9999.0))[inputs]
        for items in ([*given[inputs], repeat], [repeat, *given[inputs]]):
            args = {**given, inputs: items}
            assert self.error(default_matrix, args["projectiles"], args["materials"], path) == (
                (inputs,), message, InvalidParameterError)

    def test_a_reference_names_every_input_the_model_read(self, default_matrix, path):
        materials = [MaterialSpec(ALUMINIUM_2024_T3.name, 1.7e308), CFRP]
        projectiles = generate_projectile_set(BirdSpecies("Big", 1000.0, 1.0, 1000.0, 20.0))
        assert self.error(default_matrix, projectiles, materials, path) == (
            ("matrix", "materials", "projectiles"),
            "scenario 'baseline': force leaves float range for these inputs: got inf",
            InvalidParameterError)

    def test_a_zero_reference_names_every_input_the_model_read(self, default_matrix,
                                                               projectile_set, materials, path):
        # a massless projectile gives a 0 N reference, which no report can divide by
        hollow = projectile_set[0]._replace(infill_fraction=0.0)
        assert self.error(default_matrix, [hollow, *projectile_set[1:]], materials, path) == (
            ("matrix", "materials", "projectiles"),
            "scenario 'baseline': theoretical must be > 0, got 0.0", InvalidParameterError)

    def test_a_report_names_the_measurements(self, default_matrix, projectile_set, materials,
                                             tmp_path):
        path = measurements_csv(tmp_path, Matrix(default_matrix.scenarios[:-1]))
        assert self.error(default_matrix, projectile_set, materials, path) == (
            ("measurements_path",), "no measurements for scenario '7'", InvalidParameterError)

    def test_ingest_parse_error_passes_through(self, default_matrix, projectile_set, materials,
                                                path):
        path.write_text(path.read_text(encoding="utf-8").replace("baseline,2,", "baseline,1,"),
                        encoding="utf-8")
        with pytest.raises(ParseError) as direct:
            ingest_measurements(path, default_matrix)
        with pytest.raises(ParseError) as caught:
            analyze(default_matrix, projectile_set, materials, path)
        assert type(caught.value) is ParseError
        assert str(caught.value) == str(direct.value)
        assert not hasattr(caught.value, "inputs")

    def test_unknown_id_warns_and_raises_when_strict(self, default_matrix, projectile_set,
                                                     materials, path):
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("nosuch,1,5.0\n")
        message = f"{path}: row 137: scenario id 'nosuch' not in matrix"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            analyze(default_matrix, projectile_set, materials, path)
        assert [str(warning.message) for warning in caught] == [message]
        with pytest.raises(ParseError) as error:
            analyze(default_matrix, projectile_set, materials, path, strict=True)
        assert str(error.value) == message


@pytest.mark.parametrize("gravity", ["standard", "paper"])
@pytest.mark.parametrize("param, scenario_id, split", [
    ("bird_density", "3", VelocitySplit.SCALED_CRUISE),
    ("aircraft_density", "6", VelocitySplit.SCALED_CRUISE),
    ("impact_angle", "5", VelocitySplit.ALL_AIRCRAFT),
])
def test_published_delta_note_states_the_model(default_matrix, projectile_set, materials,
                                                param, scenario_id, split, gravity):
    # the note's "predicts N%" against the scenario that varies param alone
    by_serial = {spec.serial: spec for spec in projectile_set}

    def reference(scenario):
        return theoretical_reference(
            scenario, by_serial[scenario.projectile_serial],
            find_material(materials, scenario.specimen_material),
            gravity=GRAVITY_PRESETS[gravity], split=split)

    predicted = re.search(r"predicts ([-+]?\d+)%", PUBLISHED_DELTA_NOTES[param])
    ratio = reference(default_matrix.scenario(scenario_id)) / reference(
        default_matrix.scenario("baseline"))
    assert round(100.0 * (ratio - 1.0)) == int(predicted.group(1))


@pytest.mark.parametrize("use_nominal", [False, True])
@pytest.mark.parametrize("gravity", [10.0, 9.80665])
@pytest.mark.parametrize("split", list(VelocitySplit))
def test_reference_matches_the_exact_closed_form(projectile_set, materials, split, gravity,
                                                 use_nominal):
    by_serial = {spec.serial: spec for spec in projectile_set}
    below_c = []
    for scenario in build_test_matrix().scenarios:
        spec = by_serial[scenario.projectile_serial]
        shape, pi = spec.shape, Fraction(math.pi)  # the float pi that the shapes' volumes use
        volume_per_length = (pi * Fraction(shape.radius) ** 2 if isinstance(shape, Cylinder)
                             else pi * Fraction(shape.b) * Fraction(shape.c) * 2 / 3)
        speed_squared = (Fraction(scenario.nominal_impact_velocity) ** 2 if use_nominal
                         else 2 * Fraction(gravity) * Fraction(scenario.drop_height))
        c = Fraction(90, 15) if split is VelocitySplit.SCALED_CRUISE else None  # cruise / scale
        if c is not None and speed_squared < c * c:
            below_c.append(scenario.id)
        specimen = find_material(materials, scenario.specimen_material)
        exact = exact_reference_force(volume_per_length, specimen.density, scenario.impact_angle,
                                      speed_squared, c)
        got = theoretical_reference(scenario, spec, specimen, gravity=gravity, split=split,
                                    use_nominal_velocity=use_nominal)
        assert abs(Fraction(got) - exact) <= 4 * Fraction(math.ulp(got)), scenario.id
        assert theoretical_reference(scenario, spec, specimen, gravity=gravity, split=split.value,
                                     use_nominal_velocity=use_nominal).hex() == got.hex()
    assert below_c == (["2.2"] if c else [])  # its 1.5 m drop gives about 5.5 m/s < c = 6 m/s
