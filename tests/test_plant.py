"""Scalar plant, Riccati solver, staleness cost and estimator tests.

Oracles: the golden-ratio fixed point for the unit-parameter Riccati
equation, scipy's DARE solver on scalar systems, and direct summation
for the staleness cost.
"""

import math
import random

import pytest
from scipy.linalg import solve_discrete_are

from salsim.plant import (
    PlantParams,
    RiccatiError,
    aoi_cost,
    estimate_from_delivery,
    estimate_no_delivery,
    plant_step,
    solve_riccati,
    stage_cost,
    staleness_cost,
)

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def test_riccati_unit_parameters_golden_ratio():
    P, L = solve_riccati(1.0, 1.0, 1.0, 1.0)
    assert abs(P - GOLDEN) < 1e-9
    assert abs(L - P / (1.0 + P)) < 1e-12


def test_riccati_satisfies_fixed_point():
    for a, b, q, r in [(1.2, 1.0, 1.0, 1.0), (0.9, 0.5, 2.0, 0.3), (-1.1, 1.0, 1.0, 2.0)]:
        P, L = solve_riccati(a, b, q, r)
        residual = q + a * a * P - (a * b * P) ** 2 / (r + b * b * P) - P
        assert abs(residual) < 1e-9
        assert abs(L - a * b * P / (r + b * b * P)) < 1e-12


def test_riccati_against_scipy_dare():
    cases = [
        (1.0, 1.0, 1.0, 1.0),
        (0.9, 1.0, 1.0, 1.0),
        (1.2, 1.0, 1.0, 1.0),
        (1.3, 0.7, 2.5, 0.2),
        (-0.8, 1.0, 0.5, 1.5),
        (0.0, 1.0, 1.0, 1.0),
    ]
    for a, b, q, r in cases:
        P, _ = solve_riccati(a, b, q, r)
        ref = solve_discrete_are([[a]], [[b]], [[q]], [[r]])[0][0]
        assert abs(P - ref) <= 1e-8 * max(1.0, ref)


def test_riccati_no_control_authority_zero_dynamics():
    # a = 0: the state is pure noise, P collapses to q and the gain to 0
    P, L = solve_riccati(0.0, 1.0, 3.0, 1.0)
    assert abs(P - 3.0) < 1e-12
    assert abs(L) < 1e-12


def test_riccati_expensive_control_small_gain():
    P, L = solve_riccati(0.5, 1.0, 1.0, 1e9)
    assert abs(L) < 1e-6


def test_riccati_iteration_cap():
    with pytest.raises(RiccatiError):
        solve_riccati(1.0, 1.0, 1.0, 1.0, max_iter=3)


def _absolute_tolerance_iteration(a, b, q, r, tol=1e-12, max_iter=20_000):
    # the solver without its two-cycle stop; None where it never settles
    P = q
    for _ in range(max_iter):
        nxt = q + a * a * P - (a * b * P) ** 2 / (r + b * b * P)
        if abs(nxt - P) <= tol:
            return nxt, a * b * nxt / (r + b * b * nxt)
        P = nxt
    return None


def test_riccati_unchanged_where_the_absolute_tolerance_settles():
    settled = 0
    for a in [-1.3, -1.2, -1.0, -0.7, 0.0, 0.3, 0.9, 1.0, 1.05, 1.1, 1.2, 1.25, 1.3]:
        for b in [-2.0, -0.5, 0.3, 1.0, 3.0]:
            for q in [1e-3, 0.5, 1.0, 10.0, 1e3, 1e5]:
                for r in [1e-3, 0.2, 1.0, 50.0, 1e4]:
                    expected = _absolute_tolerance_iteration(a, b, q, r)
                    if expected is None:
                        continue
                    settled += 1
                    assert solve_riccati(a, b, q, r) == expected, (a, b, q, r)
    assert settled > 1800


@pytest.mark.parametrize("q", [1e6, 1e8, 1e12])
def test_riccati_stops_on_a_rounding_two_cycle(q):
    # one ulp of P exceeds the absolute tolerance here, and the iterates
    # alternate between two values a few ulps apart
    assert _absolute_tolerance_iteration(1.2, 1.0, q, 1.0) is None
    P, L = solve_riccati(1.2, 1.0, q, 1.0)
    after = q + 1.44 * P - (1.2 * P) ** 2 / (1.0 + P)
    assert abs(after - P) <= 4 * math.ulp(P)
    assert L == 1.2 * P / (1.0 + P)
    ref = solve_discrete_are([[1.2]], [[1.0]], [[q]], [[1.0]])[0][0]
    assert abs(P - ref) <= 1e-8 * ref


def _two_cycle_iteration(a, b, q, r, tol=1e-12, max_iter=20_000):
    # the solver with its two-cycle stop but no checkpoint; None where it
    # never settles
    P = q
    before = math.nan
    for _ in range(max_iter):
        nxt = q + a * a * P - (a * b * P) ** 2 / (r + b * b * P)
        if abs(nxt - P) <= tol or nxt == before:
            return nxt, a * b * nxt / (r + b * b * nxt)
        before = P
        P = nxt
    return None


def _cycle_length(a, b, q, r, max_iter=20_000):
    # length of the cycle the iterates fall into, by a set of all iterates
    P = q
    seen = {}
    for step in range(max_iter):
        P = q + a * a * P - (a * b * P) ** 2 / (r + b * b * P)
        if P in seen:
            return step - seen[P]
        seen[P] = step
    return None


def test_riccati_stops_on_longer_rounding_cycles():
    # with q = 1e5, iterates of 30 grid plants fall into cycles of three
    # to five values a few ulps apart, which neither the tolerance nor
    # the two-cycle stop ends; plants that either stop settles keep
    # their (P, L) bit for bit
    cycling = 0
    for a in [-1.3, -1.2, -1.0, -0.7, 0.0, 0.3, 0.9, 1.0, 1.05, 1.1, 1.2, 1.25, 1.3]:
        for b in [-2.0, -0.5, 0.3, 1.0, 3.0]:
            for q in [1e-3, 0.5, 1.0, 10.0, 1e3, 1e5]:
                for r in [1e-3, 0.2, 1.0, 50.0, 1e4]:
                    expected = _two_cycle_iteration(a, b, q, r)
                    if expected is not None:
                        assert solve_riccati(a, b, q, r) == expected, (a, b, q, r)
                        continue
                    if q != 1e5:
                        continue  # slow convergence at |a| = 1, q = 1e-3, r = 1e4
                    assert _cycle_length(a, b, q, r) in (3, 4, 5), (a, b, q, r)
                    cycling += 1
                    P, L = solve_riccati(a, b, q, r)
                    ref = solve_discrete_are([[a]], [[b]], [[q]], [[r]])[0][0]
                    assert abs(P - ref) <= 1e-12 * ref, (a, b, q, r)
                    assert L == a * b * P / (r + b * b * P)
    assert cycling == 30


def test_plant_step_arithmetic():
    assert plant_step(2.0, 1.0, 0.5, 1.1, 2.0) == pytest.approx(1.1 * 2.0 + 2.0 * 1.0 + 0.5)
    assert plant_step(0.0, 0.0, 0.0, 1.2, 1.0) == 0.0


def test_stage_cost():
    assert stage_cost(3.0, -2.0, 1.0, 0.5) == pytest.approx(9.0 + 0.5 * 4.0)
    assert stage_cost(0.0, 0.0, 1.0, 1.0) == 0.0


def test_aoi_cost_empty_sum_is_zero():
    assert aoi_cost(1.1, 1.0, 0) == 0.0
    assert aoi_cost(0.9, 4.0, 0) == 0.0


def test_aoi_cost_marginally_stable_plant_is_linear():
    assert aoi_cost(1.0, 1.0, 1) == pytest.approx(1.0)
    assert aoi_cost(1.0, 1.0, 4) == pytest.approx(4.0)
    assert aoi_cost(-1.0, 2.0, 3) == pytest.approx(6.0)


def test_aoi_cost_hand_value():
    # 1 + 1.1^2 + 1.1^4 = 3.6741
    assert aoi_cost(1.1, 1.0, 3) == pytest.approx(3.6741, rel=1e-9)


def test_staleness_cost_table_grows_on_demand_to_the_closed_form():
    for a, s2 in [(1.1, 1.0), (0.9, 2.5), (1.0, 1.0)]:
        table = [0.0]
        assert staleness_cost(table, a * a, s2, 60) == pytest.approx(aoi_cost(a, s2, 60), rel=1e-9)
        assert len(table) == 61
        for delta in range(61):
            assert table[delta] == pytest.approx(aoi_cost(a, s2, delta), rel=1e-9, abs=1e-12)
    table[5] = -1.0  # an entry the table holds is read, not recomputed
    assert staleness_cost(table, 1.0, 1.0, 5) == -1.0


def test_aoi_cost_closed_form_matches_direct_sum():
    for a in [0.9, 0.95, 1.0, 1.05, 1.2, 1.3, -1.1]:
        for s2 in [1.0, 2.5]:
            for delta in [0, 1, 2, 5, 17, 60]:
                direct = s2 * sum((a * a) ** j for j in range(delta))
                got = aoi_cost(a, s2, delta)
                assert got == pytest.approx(direct, rel=1e-9, abs=1e-12)


def test_aoi_cost_strictly_increasing_in_staleness():
    for a in [0.9, 1.0, 1.2]:
        values = [aoi_cost(a, 1.0, d) for d in range(30)]
        assert all(y > x for x, y in zip(values, values[1:]))


def test_aoi_cost_convex_for_unstable_plant():
    values = [aoi_cost(1.2, 1.0, d) for d in range(20)]
    diffs = [y - x for x, y in zip(values, values[1:])]
    assert all(d2 > d1 for d1, d2 in zip(diffs, diffs[1:]))


def test_estimate_no_delivery_propagates_open_loop():
    assert estimate_no_delivery(1.5, -0.5, 2.0, 1.0) == pytest.approx(2.5)


def test_estimate_same_slot_delivery_is_identity():
    assert estimate_from_delivery(4.25, 0, 1.2, 1.0, []) == 4.25


def test_estimate_replay_hand_example():
    # a=1, b=1, received value 1 that is two slots old, inputs -1 then 0
    assert estimate_from_delivery(1.0, 2, 1.0, 1.0, [-1.0, 0.0]) == pytest.approx(0.0)


def test_estimate_replay_reconstructs_noiseless_plant():
    rng = random.Random(99)
    for _ in range(200):
        a = rng.uniform(-1.3, 1.3)
        b = rng.uniform(0.2, 2.0)
        delta = rng.randrange(0, 12)
        x = rng.uniform(-5, 5)
        x_rx = x
        inputs = []
        for _ in range(delta):
            u = rng.uniform(-2, 2)
            inputs.append(u)
            x = a * x + b * u
        est = estimate_from_delivery(x_rx, delta, a, b, inputs)
        assert est == pytest.approx(x, rel=1e-12, abs=1e-12)


def test_plant_params_validation():
    PlantParams(a=1.3).validate()
    with pytest.raises(ValueError):
        PlantParams(a=1.31).validate()
    with pytest.raises(ValueError):
        PlantParams(a=1.0, sigma_w2=0.0).validate()
    with pytest.raises(ValueError):
        PlantParams(a=1.0, q=-1.0).validate()
    with pytest.raises(ValueError):
        PlantParams(a=1.0, r=0.0).validate()
    with pytest.raises(ValueError):
        PlantParams(a=1.0, b=0.0).validate()
