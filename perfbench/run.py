"""The repository's benchmark: one command, four named workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads (see ``workloads.py``):

* ``serve-cold`` — distinct plan requests to one ``repro serve`` daemon;
* ``serve-hot``  — skewed repeats of a pre-filled working set, same daemon;
* ``sweep``      — whole ``run_grid`` passes over a process pool;
* ``fleet-cold`` — the serve-cold stream through ``repro fleet`` with two
  backends.

With ``--trace 0`` the timed window is untraced and the end-to-end metrics
are reported.  With ``--trace 1`` the window is split: an untraced half,
then a traced half whose spans give the per-layer metrics and the tracing
overhead.  Every answer passes the correctness gate (``gate.py``); the
last line of standard output is one JSON object, and the exit code is 1
when any answer was wrong.  ``python3 perfbench/selftest.py`` checks the
benchmark itself.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("serve-cold", "serve-hot", "sweep", "fleet-cold")
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("setup_s", "s"),
    ("rss_peak_mb", "MB"),
)


def _git_commit() -> str:
    """HEAD from the ``.git`` files (no git process); "unknown" outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_context(args) -> dict:
    import numpy

    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "loadavg_start": os.getloadavg(),
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import layers
    import workloads

    context = host_context(args)
    print("# context " + json.dumps(context), flush=True)
    run = workloads.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("# counts " + json.dumps(run.counts, sort_keys=True))
    print(f"# latency samples {run.latency_samples}"
          f" ({run.latency_samples // 100} beyond p99)")
    for problem in run.problems[:20]:
        print(f"incorrect: {problem}", file=sys.stderr)
    for name, unit in END_TO_END:
        print(f"{name} {run.metrics[name]:.6g} {unit}")
    print(f"error_rate {run.failed / max(run.attempted, 1):.6g} ratio"
          f" ({run.failed} of {run.attempted})")
    correct = run.failed == 0
    if args.trace:
        print("# self time by span (name, calls, total ms)")
        for name, calls, total_ms in run.breakdown:
            print(f"#   {name:<22} {calls:>8} {total_ms:>10.1f}")
        for claim, holds in run.claims:
            print(f"# claim {'holds' if holds else 'FAILS'}: {claim}")
        correct = correct and all(holds for _, holds in run.claims)
        metrics = {
            name: {"value": run.layer[name], "unit": unit}
            for name, unit, _ in layers.PER_LAYER
        }
    else:
        metrics = {
            name: {"value": run.metrics[name], "unit": unit} for name, unit in END_TO_END
        }
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
