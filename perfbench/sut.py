"""The system-under-test processes: start, stop, and their cost from /proc."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.service.client import ClientError, PlanClient, PlanServiceError

_TICKS = os.sysconf("SC_CLK_TCK")
STARTUP_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


def _stat_fields(pid: int) -> "list[str]":
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        # The command name may hold spaces; the fields after it do not.
        return handle.read().rsplit(")", 1)[1].split()


def cpu_seconds(pid: int, *, reaped_children: bool = False) -> float:
    """utime + stime of ``pid`` (plus its waited-for children, optionally)."""
    fields = _stat_fields(pid)
    ticks = int(fields[11]) + int(fields[12])
    if reaped_children:
        ticks += int(fields[13]) + int(fields[14])
    return ticks / _TICKS


def peak_rss_mb(pid: int) -> float:
    """VmHWM: the peak resident set of ``pid``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def child_pids(pid: int) -> "list[int]":
    children = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                if int(_stat_fields(int(entry))[1]) == pid:
                    children.append(int(entry))
            except (OSError, IndexError, ValueError):
                continue  # exited while we looked
    return children


class Daemon:
    """One ``repro serve`` or ``repro fleet`` process tree and its address."""

    def __init__(self, argv: "list[str]", address: str, root: Path) -> None:
        self.argv = argv
        self.address = address
        self.root = root
        self.process: "subprocess.Popen | None" = None

    def start(self) -> float:
        """Launch and wait until the daemon answers ``ping``; returns seconds."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        t0 = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, *self.argv],
            cwd=self.root,
            env=env,
            stdout=subprocess.DEVNULL,
        )
        try:
            PlanClient.wait_for_server(
                self.address, timeout=STARTUP_TIMEOUT_S, interval=0.01
            ).close()
        except TimeoutError:
            self.stop()
            raise
        return time.perf_counter() - t0

    def pids(self) -> "list[int]":
        assert self.process is not None
        return [self.process.pid, *child_pids(self.process.pid)]

    def cpu_seconds(self) -> float:
        return sum(cpu_seconds(pid) for pid in self.pids())

    def peak_rss_mb(self) -> float:
        return sum(peak_rss_mb(pid) for pid in self.pids())

    def status(self, address: "str | None" = None) -> dict:
        with PlanClient(address or self.address, timeout=30.0) as client:
            return client.status()

    def stop(self) -> int:
        """Drain through the ``shutdown`` op; kill if it does not exit."""
        process = self.process
        if process is None or process.poll() is not None:
            return process.returncode if process is not None else 0
        children = child_pids(process.pid)
        try:
            with PlanClient(self.address, timeout=10.0) as client:
                client.shutdown()
        except (ClientError, PlanServiceError, OSError):
            process.terminate()
        try:
            code = process.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            process.kill()
            code = process.wait(timeout=10.0)
        _kill_orphans(children)
        return code


def _kill_orphans(pids: "list[int]") -> None:
    """SIGKILL fleet backends that outlived their parent, and wait them out."""
    deadline = time.monotonic() + 10.0
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            continue
        while time.monotonic() < deadline:
            try:
                if _stat_fields(pid)[0] == "Z":
                    break  # dead; its new parent reaps it
            except OSError:
                break
            time.sleep(0.01)
