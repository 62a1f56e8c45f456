"""Property-based tests for Algorithm 3's redistribution (hypothesis)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.update import find_horizon, planned_trajectory, redistribute_deviation
from repro.models.battery import BatterySpec

unit = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def problems(draw, *, ceiling: bool = True):
    """A window inside ``[floor, ceiling]`` with a charging forecast, a
    battery window, a start level and a non-zero deviation."""
    n = draw(st.integers(min_value=1, max_value=24))
    floor = draw(st.floats(min_value=0.0, max_value=1.0))
    hi = floor + draw(st.floats(min_value=0.1, max_value=5.0))
    cap = hi if ceiling and draw(st.booleans()) else None
    pinit = floor + np.array(draw(st.lists(unit, min_size=n, max_size=n))) * (hi - floor)
    charging = np.array(
        draw(st.lists(st.floats(min_value=0.0, max_value=6.0), min_size=n, max_size=n))
    )
    c_min = draw(st.floats(min_value=0.0, max_value=5.0))
    c_max = c_min + draw(st.floats(min_value=1.0, max_value=50.0))
    spec = BatterySpec(c_max=c_max, c_min=c_min, initial=c_min)
    level = c_min + draw(unit) * (c_max - c_min)
    tau = draw(st.floats(min_value=0.5, max_value=10.0))
    e_diff = draw(
        st.floats(min_value=-60.0, max_value=60.0).filter(lambda e: abs(e) > 1e-6)
    )
    return pinit, charging, spec, level, tau, e_diff, floor, cap


def _run(problem):
    pinit, charging, spec, level, tau, e_diff, floor, cap = problem
    return redistribute_deviation(
        pinit,
        e_diff,
        charging=charging,
        initial_level=level,
        spec=spec,
        tau=tau,
        floor=floor,
        ceiling=cap,
    )


@given(problems())
@settings(max_examples=80, deadline=None)
def test_placed_plus_residual_is_e_diff(problem):
    """Conservation: every joule of E_diff is either placed into the plan
    or reported as residual, and the plan's energy moved by ``placed``."""
    pinit, _, _, _, tau, e_diff, _, _ = problem
    result = _run(problem)
    assert result.placed + result.residual == pytest.approx(e_diff, rel=1e-9, abs=1e-12)
    moved = float((result.pinit - pinit).sum()) * tau
    scale = abs(e_diff) + float(np.abs(pinit).sum()) * tau
    assert moved == pytest.approx(result.placed, rel=1e-9, abs=1e-9 * scale)


@given(problems())
@settings(max_examples=80, deadline=None)
def test_outputs_stay_inside_floor_and_ceiling(problem):
    _, _, _, _, _, _, floor, cap = problem
    result = _run(problem)
    hi = np.inf if cap is None else cap
    assert np.all(result.pinit >= floor - 1e-9)
    assert np.all(result.pinit <= hi + 1e-9)


@given(problems())
@settings(max_examples=80, deadline=None)
def test_only_the_horizon_changes(problem):
    pinit = problem[0]
    result = _run(problem)
    assert np.array_equal(result.pinit[result.horizon :], pinit[result.horizon :])


@given(problems())
@settings(max_examples=80, deadline=None)
def test_horizon_is_where_the_trajectory_first_touches_the_bound(problem):
    """Algorithm 3 lines 3/8: a surplus is spread up to the first slot whose
    planned level reaches C_max, a deficit up to the first reaching C_min."""
    pinit, charging, spec, level, tau, e_diff, _, _ = problem
    result = _run(problem)
    assert 1 <= result.horizon <= len(pinit)
    traj = planned_trajectory(pinit, charging, level, tau)
    touch = traj >= spec.c_max - 1e-12 if e_diff > 0 else traj <= spec.c_min + 1e-12
    assert not touch[: result.horizon - 1].any()
    assert touch[result.horizon - 1] or result.horizon == len(pinit)
    direction = "surplus" if e_diff > 0 else "deficit"
    assert result.horizon == find_horizon(pinit, charging, level, tau, spec, direction)


@given(problems(ceiling=False), st.floats(min_value=0.01, max_value=0.95), st.booleans())
@settings(max_examples=80, deadline=None)
def test_uncapped_spread_is_shape_proportional(problem, fraction, surplus):
    """When no slot hits a limit, slot ``i`` of the horizon moves by
    ``E_diff/τ · P_init(i) / ΣP_init``: the plan's shape is kept."""
    pinit, charging, spec, level, tau, _, _, _ = problem
    direction = "surplus" if surplus else "deficit"
    horizon = find_horizon(pinit, charging, level, tau, spec, direction)
    head = pinit[:horizon]
    total = float(head.sum())
    assume(total > 1e-6)
    # a deficit below the head's energy never drives a slot under floor 0
    e_diff = fraction * total * tau * (1.0 if surplus else -1.0)
    result = redistribute_deviation(
        pinit, e_diff, charging=charging, initial_level=level, spec=spec, tau=tau
    )
    assert result.horizon == horizon
    assert result.residual == pytest.approx(0.0, abs=1e-9 * abs(e_diff))
    expected = e_diff / tau * head / total
    np.testing.assert_allclose(
        result.pinit[:horizon] - head, expected, rtol=1e-9, atol=1e-12 * total
    )


def test_charging_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="equal length"):
        redistribute_deviation(
            np.ones(3),
            1.0,
            charging=np.ones(4),
            initial_level=5.0,
            spec=BatterySpec(c_max=10.0, c_min=1.0, initial=5.0),
            tau=1.0,
        )
