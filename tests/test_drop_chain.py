"""The drop chain, from drop parameters to a certification verdict, pinned to the last bit.

A seeded grid of drops runs through every step a drop test takes: DragParams,
the impact velocity from the drop height and from a recorded fall time, the
ImpactScenario that velocity feeds, impact_force, check_certification in both
cases, and a sensitivity_table over aircraft_speed that includes 0 (the
stationary-aircraft fallback). repr gives each float's shortest round-tripping
form, so the golden digest of the reprs changes with any bit of any result. A
verdict is written with its derived passed and margin after its fields.
"""

import hashlib
import random

from birdstrike.impact import (CERTIFICATION_CASES, ImpactScenario, check_certification,
                               impact_force, sensitivity_table)
from birdstrike.kinematics import (DragParams, fall_time_for_drop, impact_velocity_from_drop,
                                   impact_velocity_from_timing)

DROP_CHAIN_SHA256 = "25496f17011025c9f48666f5f2c5c383da61754f5b537b4ebaf6ee638b35891b"


def verdict_repr(verdict) -> str:
    return f"{repr(verdict)[:-1]}, passed={verdict.passed!r}, margin={verdict.margin!r})"


def drop_chain_reprs(seed=20, drops=120) -> str:
    rng = random.Random(seed)
    lines = []
    for _ in range(drops):
        mass, length = rng.uniform(0.005, 0.2), rng.uniform(0.05, 0.4)
        params = DragParams(mass, rng.uniform(0.3, 1.4), rng.uniform(5e-5, 5e-3),
                            rng.choice([1.225, rng.uniform(0.9, 1.3)]),
                            rng.choice([9.80665, 10.0, rng.uniform(1.0, 25.0)]))
        height = rng.choice([0.0, 5e-324, rng.uniform(0.05, 4.0), rng.uniform(4.0, 1e4)])
        by_height = impact_velocity_from_drop(height, params)
        fall_time = fall_time_for_drop(height, params)
        recorded = rng.choice([fall_time, rng.uniform(0.0, 2.0), rng.uniform(2.0, 60.0)])
        by_time = impact_velocity_from_timing(recorded, params)
        aircraft = rng.uniform(0.5, 120.0)
        density, specimen = rng.uniform(300.0, 1500.0), rng.uniform(900.0, 3000.0)
        scenario = ImpactScenario(mass, length, density, by_height, aircraft, specimen,
                                  rng.choice([90.0, rng.uniform(0.0, 90.0)]))
        result = impact_force(scenario)
        verdicts = [verdict_repr(check_certification(result.force * scale, case))
                    for case in CERTIFICATION_CASES for scale in (1.0, 1e3)]
        rows = sensitivity_table(scenario, "aircraft_speed",
                                 [0.0, aircraft * 0.5, aircraft, aircraft * 4.0])
        lines += map(repr, [params, height, by_height, fall_time, recorded, by_time, scenario,
                            result])
        lines += [*verdicts, *map(repr, rows)]
    return "\n".join(lines) + "\n"


def test_drop_chain_digest():
    text = drop_chain_reprs()
    assert "passed=True" in text and "passed=False" in text
    assert hashlib.sha256(text.encode()).hexdigest() == DROP_CHAIN_SHA256
