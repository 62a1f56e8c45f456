"""Run ``repro serve`` or ``repro fleet`` with the benchmark's span wrappers.

    python3 perfbench/traced.py SPANS_PATH serve|fleet [repro arguments...]

Installs the wrappers from ``tracing.py``, hands the arguments to the repro
command-line entry point, and once the daemon has drained writes every
recorded span to SPANS_PATH.  In fleet mode each spawned backend runs
through this launcher as well and writes SPANS_PATH.backend-N.
"""

from __future__ import annotations

import os
import sys

import tracing
from repro import cli
from repro.fleet.launcher import FleetLauncher


def _trace_backends(spans_path: str) -> None:
    serve_argv = FleetLauncher._serve_argv

    def traced_argv(self, index, address):
        # [python, -m, repro, serve, ...] -> [python, this file, out, serve, ...]
        argv = serve_argv(self, index, address)
        return [argv[0], os.path.abspath(__file__), f"{spans_path}.backend-{index}",
                *argv[3:]]

    FleetLauncher._serve_argv = traced_argv


def main(argv: "list[str]") -> int:
    spans_path, command = argv[0], argv[1]
    tracer = tracing.Tracer()
    if command == "serve":
        tracing.install_server(tracer)
    elif command == "fleet":
        tracing.install_gateway(tracer)
        _trace_backends(spans_path)
    else:
        print(f"error: cannot trace {command!r}", file=sys.stderr)
        return 2
    code = cli.main(argv[1:])
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
