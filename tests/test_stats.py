"""scenario_stats against statistics.fmean and an exact oracle, over seeded data.

The mean must equal statistics.fmean bit for bit; the sample standard
deviation must lie within 1 ULP of the exactly rounded value (2 ULP when the
deviations from the mean are themselves rounded), be exactly 0 for constant
forces, and be the same bits on every supported Python.
"""

import math
import random
import statistics
from fractions import Fraction

import pytest

from birdstrike.harness import MeasurementSet, scenario_stats
from oracles import exact_sample_std

# Kinds of force data, each drawn from a seeded random.Random, and the ULPs
# the standard deviation may lie from the exact value.
KINDS = {
    # Clustered, printed to 3 decimals, like a drop-test campaign.
    "campaign": (lambda rng: float(f"{rng.gauss(200.0, 10.0):.3f}"), 1),
    # Six decades, so each force - mean is rounded too. Over 60,000 seeded
    # sets of 2, 3 and 15 forces, 16 were 2 ULP off and none more.
    "spanning": (lambda rng: 10.0 ** rng.uniform(-3.0, 3.0), 2),
    # A tiny spread on a large offset: the plain two-pass form, without the
    # fsum(d)**2/n term, was over 500,000 ULP off on seeded sets of this kind.
    "offset": (lambda rng: rng.gauss(1e6, 1e-3), 1),
}
# Sizes and how many seeded sets of each are drawn.
SIZES = {2: 100, 3: 100, 15: 40, 1000: 3, 20000: 1}


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kind", KINDS)
def test_mean_is_fmean_and_std_near_exact(kind, n):
    draw, ulps = KINDS[kind]
    for seed in range(SIZES[n]):
        rng = random.Random(f"{kind}-{n}-{seed}")
        forces = tuple(draw(rng) for _ in range(n))
        mean, std = scenario_stats(MeasurementSet("x", forces))
        assert mean == statistics.fmean(forces), (seed, forces[:3])
        expected = exact_sample_std(forces)
        assert abs(std - expected) <= ulps * math.ulp(expected), (seed, std, expected)


@pytest.mark.parametrize("force, n", [(5.0, 1), (0.1, 3), (7.49, 3), (1e6 + 0.1, 15),
                                      (123.456, 20000)])
def test_constant_forces_have_zero_std(force, n):
    # The plain two-pass form gives 1.7e-17 for 0.1 x3 and 1.1e-15 for 7.49 x3.
    mean, std = scenario_stats(MeasurementSet("x", (force,) * n))
    assert mean == statistics.fmean((force,) * n)
    assert std == 0.0


def test_bits_are_pinned():
    # statistics.stdev gives 0x1.e07ee0671bd44p+5 here on Python 3.10 and
    # 0x1.e07ee0671bd45p+5 (the exactly rounded value) on 3.11 and later.
    forces = (125.667, 235.923, 173.184, 257.411, 265.259)
    mean, std = scenario_stats(MeasurementSet("x", forces))
    assert (mean.hex(), std.hex()) == ("0x1.a6fa43fe5c91dp+7", "0x1.e07ee0671bd45p+5")


@pytest.mark.parametrize("forces", [(1e200, 3e200), (1e154, 3e154) * 7 + (1e154,),
                                    (1.7e308, 1.7e308), (1.5e308, 1.5e308, 1e-300)],
                         ids=["1e200", "1e154 x15", "1.7e308", "1.5e308 x2 and 1e-300"])
def test_large_forces_give_finite_stats(forces):
    # Plain sums give std inf, or overflow in fsum, on each of these. The sum of the last
    # overflows again if scaled by 2**-k of its smallest force, not of its largest.
    mean, std = scenario_stats(MeasurementSet("x", forces))
    exact_mean = float(sum(map(Fraction, forces)) / len(forces))
    assert abs(mean - exact_mean) <= math.ulp(exact_mean)
    expected = exact_sample_std(forces)
    assert abs(std - expected) <= 2 * math.ulp(expected), (std, expected)
