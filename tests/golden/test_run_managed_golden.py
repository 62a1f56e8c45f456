"""Bit-identity pin of the Algorithm 3 run-time loop.

``run_managed`` is the slot loop behind every cold plan, so any edit to
:mod:`repro.core.manager` or :mod:`repro.core.update` must leave its
floats unchanged to the last bit.  ``run_managed.json`` holds, for a
seeded grid of registry scenarios x battery-capacity scales x
``n_periods`` x supply factors, every :class:`EnergyRunResult` field:
scalars as ``repr`` and arrays as the SHA-256 of their little-endian
float64 bytes.  It also holds one :class:`DynamicPowerManager` history
driven by explicit ``used_power``/``supplied_power`` deviations, with a
mid-period restart.  A 1-ulp change in any of them fails here.  Refresh
only when a change of the numbers is intended:

    PYTHONPATH=src python -m pytest tests/golden --update-golden
    git diff tests/golden/
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.energy import EnergyRunResult, build_manager, run_managed
from repro.models.battery import BatterySpec
from repro.scenarios.paper import pama_frontier, scenario1
from repro.service.protocol import resolve_scenario, scenario_names

GOLDEN = Path(__file__).parent / "run_managed.json"

CAPACITY_SCALES = (1.0, 0.5, 0.25, 0.12)
N_PERIODS = (1, 2, 6, 24)
#: one factor drawn from each third of the 0.3-1.8 range, per scenario/scale
FACTOR_BANDS = ((0.3, 0.8), (0.8, 1.3), (1.3, 1.8))
SEED = 20021


def _digest(values) -> str:
    arr = np.ascontiguousarray(values, dtype="<f8")
    return hashlib.sha256(arr.tobytes()).hexdigest()


def _pin(value):
    if isinstance(value, np.ndarray):
        return _digest(value)
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return value


def _run_result_pins(result: EnergyRunResult) -> dict:
    return {f.name: _pin(getattr(result, f.name)) for f in dataclasses.fields(result)}


def _grid_cases():
    rng = random.Random(SEED)
    for name in scenario_names():
        base = resolve_scenario(name)
        for scale in CAPACITY_SCALES:
            spec = BatterySpec(
                c_max=base.spec.c_max * scale,
                c_min=base.spec.c_min,
                initial=base.spec.initial,
            )
            scenario = dataclasses.replace(base, name=f"{name}@{scale}", spec=spec)
            factors = [round(rng.uniform(lo, hi), 6) for lo, hi in FACTOR_BANDS]
            for n_periods in N_PERIODS:
                for factor in factors:
                    yield f"{scenario.name}/n{n_periods}/f{factor!r}", scenario, n_periods, factor


def _compute_grid() -> dict:
    frontier = pama_frontier()
    return {
        key: _run_result_pins(
            run_managed(scenario, frontier, n_periods=n_periods, supply_factor=factor)
        )
        for key, scenario, n_periods, factor in _grid_cases()
    }


def _step_pins(step) -> dict:
    pins = {f.name: _pin(getattr(step, f.name)) for f in dataclasses.fields(step)}
    point = step.point
    pins["point"] = [_pin(point.power), point.n, _pin(point.f)]
    return pins


def _compute_history() -> list:
    """Obedient slots, seeded used/supplied deviations, then a mid-period
    restart from an off-plan level followed by more deviations."""
    sc = scenario1()
    manager = build_manager(sc, pama_frontier())
    manager.plan()
    manager.start()
    rng = random.Random(SEED)
    steps = list(manager.run(5))
    for _ in range(19):
        point = manager.decide()
        steps.append(
            manager.advance(
                used_power=point.power * rng.uniform(0.5, 1.2),
                supplied_power=manager.charging[manager.slot] * rng.uniform(0.3, 1.6),
            )
        )
    manager.start(level=0.8 * sc.spec.c_max, slot=7)
    steps.extend(manager.run(2))
    for _ in range(14):
        steps.append(
            manager.advance(
                used_power=rng.uniform(0.0, 1.5) * manager.window[0],
                supplied_power=manager.charging[manager.slot] * rng.uniform(0.3, 1.6),
            )
        )
    return [_step_pins(step) for step in steps]


def _compute() -> dict:
    return {"grid": _compute_grid(), "manager_history": _compute_history()}


def _write(pins: dict) -> None:
    # one case per line keeps a drift readable in ``git diff``
    lines = ['{\n  "grid": {']
    grid = pins["grid"]
    for i, (key, value) in enumerate(grid.items()):
        sep = "," if i < len(grid) - 1 else ""
        lines.append(f"    {json.dumps(key)}: {json.dumps(value, sort_keys=True)}{sep}")
    lines.append('  },\n  "manager_history": [')
    history = pins["manager_history"]
    for i, step in enumerate(history):
        sep = "," if i < len(history) - 1 else ""
        lines.append(f"    {json.dumps(step, sort_keys=True)}{sep}")
    lines.append("  ]\n}\n")
    GOLDEN.write_text("\n".join(lines))


@pytest.fixture(scope="module")
def computed() -> dict:
    return _compute()


@pytest.fixture(scope="module")
def pinned(computed, request) -> dict:
    if request.config.getoption("--update-golden"):
        _write(computed)
    assert GOLDEN.exists(), (
        f"missing golden file {GOLDEN.name}; run pytest with --update-golden"
    )
    return json.loads(GOLDEN.read_text())


def test_grid_covers_every_case(computed, pinned):
    assert len(computed["grid"]) == (
        len(scenario_names()) * len(CAPACITY_SCALES) * len(N_PERIODS) * len(FACTOR_BANDS)
    )
    assert sorted(computed["grid"]) == sorted(pinned["grid"])


def test_run_managed_bit_identical(computed, pinned):
    drifted = [
        f"{key}.{field}"
        for key, fields in pinned["grid"].items()
        for field, value in fields.items()
        if computed["grid"].get(key, {}).get(field) != value
    ]
    assert not drifted, (
        f"{len(drifted)} run_managed fields drifted from tests/golden/run_managed.json, "
        f"first: {drifted[:5]}"
    )


def test_manager_history_bit_identical(computed, pinned):
    assert len(computed["manager_history"]) == len(pinned["manager_history"])
    for k, (got, want) in enumerate(zip(computed["manager_history"], pinned["manager_history"])):
        assert got == want, f"manager step {k} drifted from tests/golden/run_managed.json"
