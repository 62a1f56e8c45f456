"""Dynamic update of the power allocation — paper Algorithm 3 (Sections 4.2/4.3).

Two things knock the real system off the initial plan:

* the **discrete parameter space** — Algorithm 2 can only draw the power of
  an existing ``(n, f)`` point, not the exact allocated ``P_init(t)``; and
* **run-time deviations** — the actual event stream and the actually
  supplied energy differ from the expected schedules (Section 4.3).

After every interval ``τ`` the deviation energy::

    E_diff = ∫ₜ₋τᵗ (P_init(v) − P_actual(v)) dv

is folded back into the future plan.  The key insight of Algorithm 3 is the
*redistribution horizon*: surplus energy (``E_diff > 0``) is only useful
until the moment ``w`` the planned battery trajectory next touches
``C_max`` — beyond that the battery would overflow anyway, so the surplus
must be spent before ``w``.  Symmetrically a deficit must be recovered
before the trajectory next touches ``C_min`` or the system browns out.
Within the horizon the adjustment is proportional to the existing plan
(``P_init(v) ± E_diff·P_init(v)/∫P_init``), so the plan's shape is kept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..models.battery import BatterySpec
from ..util.validation import check_finite, check_non_negative

__all__ = ["RedistributionResult", "planned_trajectory", "find_horizon", "redistribute_deviation"]


@dataclass(frozen=True)
class RedistributionResult:
    """Outcome of one Algorithm 3 application."""

    pinit: np.ndarray  #: adjusted future allocation (same length as input)
    horizon: int  #: number of leading slots the deviation was spread over
    placed: float  #: energy actually absorbed into the plan (J)
    residual: float  #: part of ``e_diff`` that could not be placed (J)


def planned_trajectory(
    pinit: np.ndarray,
    charging: np.ndarray,
    initial_level: float,
    tau: float,
) -> np.ndarray:
    """Battery levels at the end of each future slot under the current plan
    (unclamped, like Eq. 10 but from ``initial_level``)."""
    pinit = np.asarray(pinit, dtype=float)
    charging = np.asarray(charging, dtype=float)
    if pinit.shape != charging.shape:
        raise ValueError("pinit and charging arrays must have equal length")
    return initial_level + (charging - pinit).cumsum() * tau


def _horizon(traj: np.ndarray, spec: BatterySpec, surplus: bool) -> int:
    """Slots until ``traj`` first touches ``C_max`` (surplus) or ``C_min``
    (deficit); the whole trajectory when it never does."""
    if surplus:
        hits = traj >= spec.c_max - 1e-12
    else:
        hits = traj <= spec.c_min + 1e-12
    first = int(hits.argmax())
    return first + 1 if hits[first] else traj.size


def find_horizon(
    pinit: np.ndarray,
    charging: np.ndarray,
    initial_level: float,
    tau: float,
    spec: BatterySpec,
    direction: str,
) -> int:
    """Algorithm 3 lines 3/8: slots until the planned trajectory touches the
    relevant bound (``C_max`` for ``direction='surplus'``, ``C_min`` for
    ``'deficit'``).  Returns at least 1 and at most ``len(pinit)``.
    """
    if direction not in ("surplus", "deficit"):
        raise ValueError(f"direction must be 'surplus' or 'deficit', got {direction!r}")
    traj = planned_trajectory(pinit, charging, initial_level, tau)
    return _horizon(traj, spec, direction == "surplus")


def redistribute_deviation(
    pinit: np.ndarray,
    e_diff: float,
    *,
    charging: np.ndarray | None = None,
    initial_level: float | None = None,
    spec: BatterySpec | None = None,
    tau: float,
    floor: float = 0.0,
    ceiling: float | None = None,
) -> RedistributionResult:
    """Fold a deviation energy ``e_diff`` (J) back into the future plan.

    ``e_diff > 0`` means the system *underspent* (or was oversupplied):
    allocate the surplus to the near future, proportionally, up to the
    ``C_max`` horizon.  ``e_diff < 0`` means overspending/undersupply:
    shave the near future down to the ``C_min`` horizon.

    ``charging``, ``initial_level`` and ``spec`` enable the trajectory
    horizon; without them the whole provided window is used.  Per-slot
    powers are kept inside ``[floor, ceiling]``; what cannot be placed
    because of those limits is iteratively re-offered to the remaining
    slots of the horizon, and anything still left is reported as
    ``residual`` for the caller to carry forward.
    """
    pinit = np.asarray(pinit, dtype=float).copy()
    check_finite("e_diff", e_diff)
    check_non_negative("tau", tau)
    if pinit.size == 0 or e_diff == 0.0 or tau == 0.0:
        return RedistributionResult(pinit, 0, 0.0, float(e_diff))
    if ceiling is not None and ceiling < floor:
        raise ValueError("ceiling must be >= floor")

    # Algorithm 3 lines 3/8 (find_horizon without its direction check)
    if charging is not None and spec is not None and initial_level is not None:
        traj = planned_trajectory(pinit, charging, initial_level, tau)
        horizon = _horizon(traj, spec, e_diff > 0)
    else:
        horizon = pinit.size

    hi = np.inf if ceiling is None else float(ceiling)
    window = pinit[:horizon]
    remaining = float(e_diff)
    # Proportional spread with capacity-aware retries: slots pinned at a
    # limit stop absorbing and the leftover is re-offered to the others.
    for _ in range(horizon + 1):
        if abs(remaining) <= 1e-15:
            break
        if remaining > 0:
            room = np.maximum(hi - window, 0.0)
        else:
            room = np.maximum(window - floor, 0.0)
        has_room = room > 0
        if not has_room.any():
            break
        weights = np.where(has_room, window, 0.0)
        total_w = weights.sum()
        if total_w <= 0:  # plan is all-zero in the window: spread evenly
            weights = has_room.astype(float)
            total_w = weights.sum()
        delta_power = remaining / tau * weights / total_w  # W per slot
        capped = np.sign(delta_power) * np.minimum(np.abs(delta_power), room)
        window += capped
        remaining -= float(capped.sum()) * tau
    pinit[:horizon] = window
    placed = float(e_diff) - remaining
    return RedistributionResult(pinit, horizon, placed, remaining)
