"""The correctness gate every benchmark answer has to pass.

A plan response passes when it is not a degraded stale plan, echoes the
request it answers, and satisfies the paper-invariant oracle
(``verify.oracle.check_plan_payload``).  A seeded sample is also compared,
by ``plan_payload_digest``, with the plan ``run_cell`` computes in this
process after the timed window.
"""

from __future__ import annotations

import random

from repro.analysis.batch import run_cell
from repro.service.protocol import PlanRequest, plan_payload_digest
from repro.verify.oracle import check_plan_payload

ECHOED_FIELDS = ("scenario", "policy", "n_periods", "supply_factor")
REFERENCE_SAMPLE = 24


def check_response(request: dict, payload: dict, frontier) -> "list[str]":
    """Why ``payload`` is not a correct answer to ``request`` (empty if it is)."""
    problems = []
    if payload.get("degraded"):
        problems.append(f"degraded stale plan ({payload.get('degraded_reason')})")
    for field in ECHOED_FIELDS:
        if payload.get(field) != request[field]:
            problems.append(
                f"{field}={payload.get(field)!r} does not echo {request[field]!r}"
            )
    problems.extend(str(v) for v in check_plan_payload(payload, frontier=frontier))
    return problems


def reference_digest(request: dict, frontier) -> str:
    """``plan_payload_digest`` of the plan computed here by ``run_cell``."""
    plan = PlanRequest(
        scenario=request["scenario"],
        policy=request["policy"],
        n_periods=request["n_periods"],
        supply_factor=request["supply_factor"],
    )
    result = run_cell(plan.to_cell_spec(), frontier).cell.result
    return plan_payload_digest(
        {
            **plan.canonical(),
            "digest": plan.digest(),
            "wasted": float(result.wasted),
            "undersupplied": float(result.undersupplied),
            "utilization": float(result.utilization),
            "plan_iterations": result.plan_iterations,
            "plan_used_fallback": result.plan_used_fallback,
            "plan_feasible": result.plan_feasible,
            "allocated_power": result.allocated_power,
        }
    )


class Answers:
    """The distinct answers one client thread saw.

    Equal payloads for one request are kept once and counted each time
    they were served; an answer that differs from an earlier answer to the
    same request is a failure on its own.
    """

    def __init__(self) -> None:
        self.by_key: "dict[object, list]" = {}  # key -> [request, payload, count]
        self.changed = 0

    def add(self, key: object, request: dict, payload: dict) -> None:
        entry = self.by_key.get(key)
        if entry is None:
            self.by_key[key] = [request, payload, 1]
        elif entry[1] == payload:
            entry[2] += 1
        else:
            self.changed += 1

    @property
    def served(self) -> int:
        """Answers received, every repeat counted."""
        return self.changed + sum(entry[2] for entry in self.by_key.values())

    def merge(self, other: "Answers") -> None:
        self.changed += other.changed
        for key, (request, payload, count) in other.by_key.items():
            entry = self.by_key.get(key)
            if entry is None:
                self.by_key[key] = [request, payload, count]
            elif entry[1] == payload:
                entry[2] += count
            else:
                self.changed += count


def gate_answers(answers: Answers, frontier, seed: int):
    """Check every distinct answer; returns ``(failed_ops, problems)``."""
    failed = answers.changed
    problems: "list[str]" = []
    if answers.changed:
        problems.append(f"{answers.changed} answers changed between serves")
    passed = []
    for key, (request, payload, count) in answers.by_key.items():
        found = check_response(request, payload, frontier)
        if found:
            failed += count
            problems.append(f"{request}: {'; '.join(found)}")
        else:
            passed.append(key)
    rng = random.Random(f"reference-{seed}")
    for key in rng.sample(sorted(passed), min(REFERENCE_SAMPLE, len(passed))):
        request, payload, count = answers.by_key[key]
        if plan_payload_digest(payload) != reference_digest(request, frontier):
            failed += count
            problems.append(f"{request}: differs from the run_cell reference")
    return failed, problems
