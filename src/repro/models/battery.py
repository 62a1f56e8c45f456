"""Rechargeable-battery model with waste and undersupply accounting.

The system of the paper draws all power from a rechargeable battery that an
external periodic source charges (Section 2).  Two capacity limits shape the
whole algorithm:

* ``c_max`` — maximum stored energy.  Charge arriving while full is
  **wasted** (the paper's first evaluation metric).
* ``c_min`` — minimum charge that must be maintained at all times.  Demand
  that would pull the level below ``c_min`` is **undersupplied** (the second
  metric): the computation simply cannot run until the battery recovers.

:class:`BatterySpec` is the immutable description used by the planning
algorithms; :class:`Battery` is the stateful simulation object that steps
through time integrating charge/draw flows and accumulating both metrics.

Step semantics
--------------
Flows are resolved *bus-first*: the load draws directly from the source
while both are present, and only the surplus charges the cell (at
``charge_efficiency``) or the deficit discharges it (costing
``1/discharge_efficiency`` of stored energy per delivered joule).  With
the default perfect efficiencies this reduces to the paper's ideal
battery.  Within one step the flows are constant, so the level moves
linearly until it hits a bound; the step splits the interval at the exact
crossing instant, making the accounting independent of how finely time is
sliced (an invariant the property tests exercise).

Conservation identities (all property-tested):

* ``supplied = charged + wasted``
* ``demanded = drawn + undersupplied``
* ``Δlevel  = η_c·(charged − passthrough) − (drawn − passthrough)/η_d``
  which for perfect efficiency collapses to ``Δlevel = charged − drawn``;
* ``supplied = drawn + Δlevel + wasted + conversion_loss``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..util.validation import check_in_range, check_non_negative

__all__ = ["BatterySpec", "BatteryStep", "Battery"]


@dataclass(frozen=True)
class BatterySpec:
    """Capacity window, initial charge, and round-trip efficiency.

    Energies are in joules.  ``c_min ≤ initial ≤ c_max``.  The efficiency
    factors are fractions in ``(0, 1]``; the paper's model is ideal
    (both 1.0), the ablation benches derate them.
    """

    c_max: float
    c_min: float = 0.0
    initial: float | None = None
    charge_efficiency: float = 1.0
    discharge_efficiency: float = 1.0

    def __post_init__(self) -> None:
        check_non_negative("c_max", self.c_max)
        check_non_negative("c_min", self.c_min)
        check_in_range("charge_efficiency", self.charge_efficiency, 0.0, 1.0)
        check_in_range("discharge_efficiency", self.discharge_efficiency, 0.0, 1.0)
        if self.charge_efficiency == 0.0 or self.discharge_efficiency == 0.0:
            raise ValueError("efficiencies must be positive")
        if self.c_min > self.c_max:
            raise ValueError(
                f"c_min ({self.c_min}) cannot exceed c_max ({self.c_max})"
            )
        if self.initial is None:
            object.__setattr__(self, "initial", self.c_min)
        if not (self.c_min - 1e-12 <= self.initial <= self.c_max + 1e-12):
            raise ValueError(
                f"initial charge {self.initial} outside [{self.c_min}, {self.c_max}]"
            )

    @property
    def usable(self) -> float:
        """Energy between the two limits (``c_max − c_min``)."""
        return self.c_max - self.c_min

    @property
    def is_ideal(self) -> bool:
        """True for the paper's lossless battery."""
        return self.charge_efficiency == 1.0 and self.discharge_efficiency == 1.0

    def clamp(self, level: float) -> float:
        """Clamp a level into the legal window."""
        return min(max(level, self.c_min), self.c_max)


@dataclass(frozen=True)
class BatteryStep:
    """Outcome of one :meth:`Battery.step` call (all energies in joules)."""

    charged: float  #: source energy accepted (stored into the cell + pass-through)
    drawn: float  #: energy actually delivered to the load
    wasted: float  #: source energy lost because the battery was full
    undersupplied: float  #: demanded energy that could not be delivered
    level: float  #: stored energy after the step
    conversion_loss: float = 0.0  #: energy lost to charge/discharge inefficiency


class Battery:
    """Stateful rechargeable battery (see module docstring for semantics)."""

    def __init__(self, spec: BatterySpec):
        self.spec = spec
        self._level = float(spec.initial)
        self._wasted = 0.0
        self._undersupplied = 0.0
        self._charged = 0.0
        self._drawn = 0.0
        self._conversion_loss = 0.0

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    @property
    def level(self) -> float:
        """Currently stored energy (J)."""
        return self._level

    @property
    def total_wasted(self) -> float:
        """Cumulative source energy lost to overflow (J)."""
        return self._wasted

    @property
    def total_undersupplied(self) -> float:
        """Cumulative demanded-but-undelivered energy (J)."""
        return self._undersupplied

    @property
    def total_charged(self) -> float:
        """Cumulative source energy accepted (J)."""
        return self._charged

    @property
    def total_drawn(self) -> float:
        """Cumulative energy actually delivered to the load (J)."""
        return self._drawn

    @property
    def total_conversion_loss(self) -> float:
        """Cumulative energy lost to charge/discharge inefficiency (J)."""
        return self._conversion_loss

    @property
    def headroom(self) -> float:
        """Energy the battery can still absorb (``c_max − level``)."""
        return self.spec.c_max - self._level

    @property
    def reserve(self) -> float:
        """Energy available above the floor (``level − c_min``)."""
        return self._level - self.spec.c_min

    def reset(self, level: float | None = None) -> None:
        """Restore initial level (or ``level``) and zero the accumulators."""
        self._level = float(self.spec.initial if level is None else level)
        if not (self.spec.c_min - 1e-12 <= self._level <= self.spec.c_max + 1e-12):
            raise ValueError(f"reset level {self._level} outside capacity window")
        self._wasted = self._undersupplied = 0.0
        self._charged = self._drawn = 0.0
        self._conversion_loss = 0.0

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------
    def step(self, charge_power: float, draw_power: float, dt: float) -> BatteryStep:
        """Advance ``dt`` seconds with constant flows (W).

        Returns a :class:`BatteryStep` with the exact energy bookkeeping,
        splitting the interval at the instant the level reaches a bound.
        """
        check_non_negative("charge_power", charge_power)
        check_non_negative("draw_power", draw_power)
        check_non_negative("dt", dt)
        if dt == 0:
            return BatteryStep(0.0, 0.0, 0.0, 0.0, self._level)

        eta_c = self.spec.charge_efficiency
        eta_d = self.spec.discharge_efficiency
        direct = min(charge_power, draw_power)  # bus pass-through (W)
        surplus = charge_power - direct  # candidate cell inflow (W, bus side)
        deficit = draw_power - direct  # must come from the cell (W, load side)

        charged = direct * dt
        drawn = direct * dt
        wasted = undersupplied = loss = 0.0
        level = self._level

        if surplus > 0 and level < self.spec.c_max:
            # cell absorbs at η_c·surplus until full
            rate = eta_c * surplus
            # A subnormal surplus can underflow the rate to 0: then the
            # cell never fills within the step.
            t_hit = (self.spec.c_max - level) / rate if rate > 0 else dt
            t_rise = min(t_hit, dt)
            charged += surplus * t_rise
            loss += (1.0 - eta_c) * surplus * t_rise
            level += rate * t_rise
            rest = dt - t_rise
            if rest > 0:
                wasted += surplus * rest
        elif surplus > 0:  # already full
            wasted += surplus * dt
        elif deficit > 0 and level > self.spec.c_min:
            # cell releases deficit/η_d per delivered watt until the floor
            rate = deficit / eta_d
            t_hit = (level - self.spec.c_min) / rate
            t_fall = min(t_hit, dt)
            drawn += deficit * t_fall
            loss += (rate - deficit) * t_fall
            level -= rate * t_fall
            rest = dt - t_fall
            if rest > 0:
                undersupplied += deficit * rest
        elif deficit > 0:  # already at floor
            undersupplied += deficit * dt

        level = self.spec.clamp(level)
        self._level = level
        self._charged += charged
        self._drawn += drawn
        self._wasted += wasted
        self._undersupplied += undersupplied
        self._conversion_loss += loss
        return BatteryStep(charged, drawn, wasted, undersupplied, level, loss)
