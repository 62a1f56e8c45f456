"""DynamicPowerManager: planning and the run-time loop."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.manager import DynamicPowerManager
from repro.models.battery import BatterySpec
from repro.util.schedule import Schedule


@pytest.fixture
def mgr(sc1, frontier) -> DynamicPowerManager:
    return DynamicPowerManager(
        sc1.charging,
        sc1.event_demand,
        sc1.weight(),
        frontier=frontier,
        spec=sc1.spec,
    )


class TestPlanning:
    def test_plan_produces_feasible_allocation(self, mgr):
        allocation, schedule = mgr.plan()
        assert allocation.feasible
        assert len(schedule) == 12

    def test_base_usage_requires_plan(self, sc1, frontier):
        m = DynamicPowerManager(
            sc1.charging, sc1.event_demand, frontier=frontier, spec=sc1.spec
        )
        with pytest.raises(RuntimeError):
            m.base_usage

    def test_grid_mismatch_rejected(self, sc1, sc2, frontier):
        from repro.util.timegrid import TimeGrid

        other = Schedule(TimeGrid(57.6, 28.8), [1.0, 1.0])
        with pytest.raises(ValueError):
            DynamicPowerManager(
                sc1.charging, other, frontier=frontier, spec=sc1.spec
            )

    def test_default_weight_is_uniform(self, sc1, frontier):
        a = DynamicPowerManager(
            sc1.charging, sc1.event_demand, frontier=frontier, spec=sc1.spec
        )
        b = DynamicPowerManager(
            sc1.charging,
            sc1.event_demand,
            Schedule.constant(sc1.grid, 1.0),
            frontier=frontier,
            spec=sc1.spec,
        )
        assert a.plan()[0].usage.allclose(b.plan()[0].usage)

    def test_ceiling_defaults_to_frontier_max(self, mgr, frontier):
        assert mgr.usage_ceiling == frontier.max_power


class TestRuntimeLoop:
    def test_start_required_before_stepping(self, mgr):
        with pytest.raises(RuntimeError):
            mgr.decide()

    def test_decide_is_idempotent(self, mgr):
        mgr.start()
        assert mgr.decide() == mgr.decide()
        assert mgr.slot == 0

    def test_decide_is_memoized_until_the_loop_moves(self, mgr, monkeypatch):
        mgr.start()
        calls = []
        choose = mgr.frontier.best_within_power
        monkeypatch.setattr(
            mgr.frontier, "best_within_power", lambda b: calls.append(b) or choose(b)
        )
        first = mgr.decide()
        assert mgr.decide() is first
        assert len(calls) == 1
        step = mgr.advance()  # reuses the memo: no second decision
        assert step.point is first
        assert len(calls) == 1
        mgr.decide()
        assert calls == [pytest.approx(step.allocated_power), pytest.approx(mgr.window[0])]

    def test_decide_is_recomputed_after_advance(self, mgr):
        """A stale memo would keep drawing a point the shrunken window can
        no longer afford; the forced downswitch must happen."""
        mgr.start()
        cheapest = mgr.frontier.points[0]
        for _ in range(6):
            mgr.decide()
            mgr.advance(used_power=3.0 * mgr.frontier.max_power, supplied_power=0.0)
            assert mgr.decide().power <= max(mgr.window[0], cheapest.power) + 1e-9
        assert mgr.decide() == cheapest

    def test_start_resets_the_decision_for_a_mid_period_restart(self, mgr, sc1, frontier):
        def fresh_decision(slot: int):
            other = DynamicPowerManager(
                sc1.charging, sc1.event_demand, sc1.weight(), frontier=frontier, spec=sc1.spec
            )
            other.start(level=mgr.level, slot=slot)
            return other.decide()

        mgr.start()
        first = mgr.decide()
        slot = next(k for k in range(1, 12) if fresh_decision(k) != first)
        mgr.start(level=mgr.level, slot=slot)
        assert mgr.decide() == fresh_decision(slot)

    def test_advance_moves_slot_and_records(self, mgr):
        mgr.start()
        step = mgr.advance()
        assert mgr.slot == 1
        assert step.slot == 0
        assert len(mgr.history) == 1
        assert step.window.shape == (12,)

    def test_obedient_run_tracks_plan(self, mgr):
        """With no deviations, each slot's decision stays within the
        rolling allocation and the battery level stays in the window."""
        mgr.start()
        for _ in range(24):
            step = mgr.advance()
            assert step.point.power <= step.allocated_power + 1e-9
            assert mgr.spec.c_min - 1e-9 <= step.level <= mgr.spec.c_max + 1e-9

    def test_supply_shortfall_reduces_future_allocation(self, mgr):
        mgr.start()
        base_window = mgr.window
        # actual supply collapses this slot
        mgr.advance(supplied_power=0.0)
        # future budget shrank relative to the base plan tail
        assert mgr.window[:-1].sum() < base_window[1:].sum() + 1e-9

    def test_usage_shortfall_raises_future_allocation(self, mgr):
        mgr.start()
        before = mgr.window
        mgr.advance(used_power=0.0)  # spent nothing
        after = mgr.window
        assert after[:-1].sum() > before[1:].sum() - 1e-9

    def test_window_rolls_with_base_plan(self, mgr):
        mgr.start()
        base = mgr.base_usage
        step = mgr.advance()
        # last window entry is next period's base value for the same slot
        assert step.window[-1] == pytest.approx(base[0], rel=0.35)

    def test_run_convenience(self, mgr):
        mgr.start()
        steps = mgr.run(12)
        assert len(steps) == 12
        assert mgr.slot == 12

    def test_restart_resets_state(self, mgr):
        mgr.start()
        mgr.run(5)
        mgr.start()
        assert mgr.slot == 0
        assert mgr.history == []

    def test_e_diff_combines_usage_and_supply(self, mgr):
        mgr.start()
        step = mgr.advance(used_power=0.0, supplied_power=0.0)
        expected = (step.allocated_power - 0.0) * 4.8 + (
            0.0 - step.expected_supply_power
        ) * 4.8
        assert step.e_diff == pytest.approx(expected)


class TestSteadyStatePlanning:
    """The base plan must be periodic (see plan()'s fixed-point iteration)."""

    def test_plan_trajectory_is_periodic(self, sc1, frontier):
        from repro.scenarios.library import library_scenarios

        for sc in (sc1, *library_scenarios()):
            m = DynamicPowerManager(
                sc.charging, sc.event_demand, frontier=frontier, spec=sc.spec
            )
            allocation, _ = m.plan()
            traj = allocation.trajectory
            assert traj[-1] == pytest.approx(traj[0], abs=1e-4), sc.name

    def test_start_folds_initial_level_gap(self, sc1, frontier):
        """Starting below the steady-state level shaves the first window
        (Algorithm 3) instead of replaying an unaffordable plan."""
        from repro.scenarios.library import eclipse_orbit

        sc = eclipse_orbit()
        m = DynamicPowerManager(
            sc.charging, sc.event_demand, frontier=frontier, spec=sc.spec
        )
        m.plan()
        plan_level = m._plan_start_level
        if plan_level > sc.spec.c_min + 0.5:
            m.start(level=sc.spec.c_min)  # battery nearly empty
            assert m.window.sum() < m.base_usage.values.sum() + 1e-9

    def test_long_run_has_no_systematic_undersupply(self, frontier):
        """Six periods of every library scenario: the plan's own demand is
        served throughout (the regression the solar example exposed)."""
        from repro.models.battery import Battery
        from repro.scenarios.library import library_scenarios

        for sc in library_scenarios():
            m = DynamicPowerManager(
                sc.charging, sc.event_demand, frontier=frontier, spec=sc.spec
            )
            m.start()
            battery = Battery(sc.spec)
            tau = sc.grid.tau
            for k in range(6 * sc.grid.n_slots):
                point = m.decide()
                supplied = sc.charging[k % sc.grid.n_slots]
                step = battery.step(supplied, point.power, tau)
                m.advance(used_power=step.drawn / tau, supplied_power=supplied)
            # a couple of joules of frontier-quantization grazing at the
            # floor is fine; the pre-fix systematic drift was ~150 J here
            assert battery.total_undersupplied < 3.0, sc.name


class TestSupplyMargin:
    def test_invalid_margin_rejected(self, sc1, frontier):
        with pytest.raises(ValueError, match="supply_margin"):
            DynamicPowerManager(
                sc1.charging,
                sc1.event_demand,
                frontier=frontier,
                spec=sc1.spec,
                supply_margin=0.0,
            )
        with pytest.raises(ValueError):
            DynamicPowerManager(
                sc1.charging,
                sc1.event_demand,
                frontier=frontier,
                spec=sc1.spec,
                supply_margin=1.2,
            )

    def test_margin_derates_the_plan(self, sc1, frontier):
        full = DynamicPowerManager(
            sc1.charging, sc1.event_demand, frontier=frontier, spec=sc1.spec
        )
        hedged = DynamicPowerManager(
            sc1.charging,
            sc1.event_demand,
            frontier=frontier,
            spec=sc1.spec,
            supply_margin=0.8,
        )
        full_plan, _ = full.plan()
        hedged_plan, _ = hedged.plan()
        assert (
            hedged_plan.usage.total_energy()
            < full_plan.usage.total_energy()
        )

    def test_margin_reduces_undersupply_under_shortfall(self, sc1, frontier):
        from repro.models.battery import Battery

        def run(margin: float) -> float:
            mgr = DynamicPowerManager(
                sc1.charging,
                sc1.event_demand,
                frontier=frontier,
                spec=sc1.spec,
                supply_margin=margin,
            )
            mgr.start()
            battery = Battery(sc1.spec)
            tau = sc1.grid.tau
            for k in range(36):
                point = mgr.decide()
                supplied = sc1.charging[k % 12] * 0.75  # real shortfall
                step = battery.step(supplied, point.power, tau)
                mgr.advance(used_power=step.drawn / tau, supplied_power=supplied)
            return battery.total_undersupplied

    # derating at the shortfall level leaves nothing undersupplied
        assert run(0.75) <= run(1.0) + 1e-9


class TestMidPeriodStart:
    def test_start_at_slot_aligns_window(self, mgr):
        mgr.plan()
        # start exactly on the planned trajectory: no gap, window = base plan
        planned = mgr.spec.clamp(float(mgr.allocation.trajectory[6]))
        mgr.start(level=planned, slot=6)
        assert mgr.slot == 6
        assert mgr.window[0] == pytest.approx(mgr.base_usage[6])
        assert mgr.window[-1] == pytest.approx(mgr.base_usage[5])

    def test_start_below_plan_mid_period_shaves_window(self, mgr):
        mgr.plan()
        mgr.start(level=mgr.spec.c_min, slot=6)  # far below the planned level
        assert mgr.window.sum() < mgr.base_usage.values.sum()

    def test_mid_period_run_stays_feasible(self, sc1, mgr):
        from repro.models.battery import Battery

        mgr.plan()
        planned_level = float(mgr.allocation.trajectory[6])
        mgr.start(level=sc1.spec.clamp(planned_level), slot=6)
        battery = Battery(sc1.spec)
        battery.reset(level=sc1.spec.clamp(planned_level))
        tau = sc1.grid.tau
        for k in range(6, 30):
            point = mgr.decide()
            step = battery.step(sc1.charging[k % 12], point.power, tau)
            mgr.advance(used_power=step.drawn / tau)
        assert battery.total_undersupplied < 1.0
