"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks three things and exits nonzero if any fails:

1. a fixed seed produces an identical request stream and sweep grid (and
   another seed a different one);
2. the correctness gate passes a genuine daemon answer and catches every
   fault ``verify.fuzz.corrupt_payload`` injects into it;
3. short smoke runs print every metric of ``BENCHMARK.json`` by name with
   its unit: the end-to-end set untraced, the per-layer set traced.
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import streams  # noqa: E402
from repro.scenarios.paper import pama_frontier  # noqa: E402
from repro.service.client import PlanClient  # noqa: E402
from repro.service.server import PlanServer, ServerConfig  # noqa: E402
from repro.verify.fuzz import corrupt_payload  # noqa: E402

FAULTS = 24


def check_streams() -> "list[str]":
    def cold(seed):
        return list(itertools.islice(streams.cold_requests(seed), 500))

    def hot(seed):
        working = streams.hot_working_set(seed)
        return working, list(itertools.islice(streams.hot_requests(seed, working), 500))

    def grid(seed):
        return [(c.scenario, c.policy, c.supply_factor) for c in streams.sweep_grid(seed)]

    failures = []
    for name, make in (("cold", cold), ("hot", hot), ("sweep", grid)):
        if make(7) != make(7):
            failures.append(f"{name}: seed 7 gave two different streams")
        if make(7) == make(8):
            failures.append(f"{name}: seeds 7 and 8 gave the same stream")
    requests = cold(7)
    if len({(r["scenario"], r["supply_factor"]) for r in requests}) != len(requests):
        failures.append("cold: a request repeats, so it would hit the plan cache")
    return failures


def check_gate() -> "list[str]":
    frontier = pama_frontier()
    request = next(streams.cold_requests(3))
    run_dir = ROOT / ".perfbench_run"
    run_dir.mkdir(exist_ok=True)
    server = PlanServer(
        ServerConfig(address="unix:.perfbench_run/selftest.sock", metrics_interval_s=0)
    )
    server.start()
    try:
        with PlanClient(server.endpoint, timeout=60.0) as client:
            payload = client.request({"op": "plan", **request})
    finally:
        server.stop()
        shutil.rmtree(run_dir, ignore_errors=True)
    failures = []
    answers = gate.Answers()
    answers.add(0, request, payload)
    failed, problems = gate.gate_answers(answers, frontier, seed=3)
    if failed:
        failures.append(f"gate rejected a genuine answer: {problems}")
    rng = random.Random(3)
    for _ in range(FAULTS):
        corrupted, fault = corrupt_payload(payload, rng)
        # The per-answer check must catch it on its own: the reference
        # comparison only sees a sample of a run's answers.
        if not gate.check_response(request, corrupted, frontier):
            failures.append(f"answer check missed an injected fault: {fault}")
        answers = gate.Answers()
        answers.add(0, request, corrupted)
        if gate.gate_answers(answers, frontier, seed=3)[0] != 1:
            failures.append(f"gate missed an injected fault: {fault}")
    return failures


def _smoke(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "3", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_smoke() -> "list[str]":
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for key, trace in (("end_to_end", 0), ("per_layer", 1)):
        expected = {m["name"]: m["unit"] for m in spec[key]}
        for workload in ("serve-cold", "sweep"):
            result = _smoke(workload, trace)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected:
                failures.append(
                    f"{workload} --trace {trace}: metrics {sorted(got.items())} "
                    f"!= BENCHMARK.json {sorted(expected.items())}"
                )
            if result["attempted"] < 1 or (trace == 0 and not result["correct"]):
                failures.append(f"{workload} --trace {trace}: {result}")
    return failures


def main() -> int:
    failures = []
    for check in (check_streams, check_gate, check_smoke):
        found = check()
        print(f"{check.__name__}: {'ok' if not found else 'FAILED'}")
        for failure in found:
            print(f"  {failure}")
        failures += found
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
