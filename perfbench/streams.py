"""Seeded inputs of the benchmark's workloads.

Everything here is a pure function of the seed: the same seed yields the
same request stream and the same sweep grid, and the program under test
sees only these generated requests.
"""

from __future__ import annotations

import bisect
import dataclasses
import itertools
import random
import threading

from repro.analysis.batch import CellSpec
from repro.models.battery import BatterySpec
from repro.service.protocol import resolve_scenario, scenario_names

#: Supply factors are drawn from here: below ~0.8 plans ride the Cmin
#: floor, above ~1.2 the battery tops out and supply is wasted at Cmax.
FACTOR_RANGE = (0.6, 1.4)
COLD_PERIODS = 6
#: n_periods of the serve-hot plans, cycled: responses range from ~0.5 kB
#: to ~6 kB, and the few 24-period plans keep the set-up fill short.
HOT_PERIODS = (1, 1, 6, 1, 6, 24)
#: Plans filled into the daemon before a serve-hot window; below the
#: daemon's 1024-entry plan LRU, so the window never evicts.
HOT_WORKING_SET = 240
#: Zipf exponent of the serve-hot popularity skew.
HOT_SKEW = 1.1
#: Battery-capacity scales of the sweep; the tight ones (scenario2 below
#: 0.5) drive Algorithm 1 into its greedy fallback.
SWEEP_CAPACITIES = (1.0, 0.5, 0.25, 0.12)
SWEEP_FACTORS = 32
SWEEP_POLICIES = ("proposed", "static")
SWEEP_PERIODS = 1


def _factor(rng: random.Random) -> float:
    return round(rng.uniform(*FACTOR_RANGE), 6)


def _plan(scenario: str, n_periods: int, factor: float) -> dict:
    return {
        "scenario": scenario,
        "policy": "proposed",
        "n_periods": n_periods,
        "supply_factor": factor,
    }


def cold_requests(seed: int):
    """Endless stream of distinct planning problems: every request is a
    plan-cache miss.  Scenarios take turns, so every seed asks for the
    same mix of work."""
    rng = random.Random(f"cold-{seed}")
    names = scenario_names()
    seen: set = set()
    for k in itertools.count():
        scenario = names[k % len(names)]
        factor = _factor(rng)
        if (scenario, factor) in seen:
            continue
        seen.add((scenario, factor))
        yield _plan(scenario, COLD_PERIODS, factor)


def hot_working_set(seed: int) -> "list[dict]":
    """The serve-hot plans: every scenario at each ``HOT_PERIODS`` value,
    each plan with its own supply factor."""
    rng = random.Random(f"hot-set-{seed}")
    names = scenario_names()
    plans: "list[dict]" = []
    seen: set = set()
    for k in itertools.count():
        if len(plans) == HOT_WORKING_SET:
            return plans
        scenario = names[k % len(names)]
        n_periods = HOT_PERIODS[(k // len(names)) % len(HOT_PERIODS)]
        factor = _factor(rng)
        if (scenario, factor) not in seen:
            seen.add((scenario, factor))
            plans.append(_plan(scenario, n_periods, factor))


def hot_requests(seed: int, working_set: "list[dict]"):
    """Endless Zipf-skewed draws from the working set.

    Popularity ranks cycle through the ``HOT_PERIODS`` classes, and the
    seed only picks which plan of a class holds a rank: every seed then
    puts the same share of draws on each response size.
    """
    rng = random.Random(f"hot-draw-{seed}")
    classes = {
        n: [plan for plan in working_set if plan["n_periods"] == n]
        for n in set(HOT_PERIODS)
    }
    for members in classes.values():
        rng.shuffle(members)
    ranked: "list[dict]" = []
    for n_periods in itertools.cycle(HOT_PERIODS):
        if len(ranked) == len(working_set):
            break
        if classes[n_periods]:
            ranked.append(classes[n_periods].pop())
    cumulative = list(
        itertools.accumulate(1.0 / (rank + 1) ** HOT_SKEW for rank in range(len(ranked)))
    )
    total = cumulative[-1]
    while True:
        yield ranked[bisect.bisect_left(cumulative, rng.random() * total)]


def sweep_factors(seed: int) -> "list[float]":
    """One factor drawn in each of ``SWEEP_FACTORS`` equal slices of the
    range: every seed covers the range alike, so the work of a pass does
    not depend on the seed."""
    rng = random.Random(f"sweep-{seed}")
    lo, hi = FACTOR_RANGE
    width = (hi - lo) / SWEEP_FACTORS
    return [round(lo + (k + rng.random()) * width, 6) for k in range(SWEEP_FACTORS)]


def sweep_grid(seed: int) -> "list[CellSpec]":
    """Scenario × capacity × factor × policy, scenario-major like the CLI."""
    cells = []
    factors = sweep_factors(seed)
    for name in scenario_names():
        base = resolve_scenario(name)
        for scale in SWEEP_CAPACITIES:
            spec = BatterySpec(
                c_max=base.spec.c_max * scale,
                c_min=base.spec.c_min,
                initial=base.spec.initial,
            )
            scenario = dataclasses.replace(base, name=f"{name}@{scale}", spec=spec)
            for factor in factors:
                for policy in SWEEP_POLICIES:
                    cells.append(
                        CellSpec(
                            scenario=scenario,
                            policy=policy,
                            knob=factor,
                            n_periods=SWEEP_PERIODS,
                            supply_factor=factor,
                        )
                    )
    return cells


class Stream:
    """A request iterator shared by the client threads; ``next`` numbers
    each request so the correctness gate can find what was asked."""

    def __init__(self, requests) -> None:
        self._requests = iter(requests)
        self._lock = threading.Lock()
        self.issued: "list[dict]" = []

    def next(self) -> "tuple[int, dict]":
        with self._lock:
            request = next(self._requests)
            self.issued.append(request)
            return len(self.issued) - 1, request
