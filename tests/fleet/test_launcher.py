"""Fleet-tier supervision: restart crashed backends, respect the restart
budget, and drain cleanly even when some backends already died."""

from __future__ import annotations

import signal
import time

import pytest

from repro.fleet.launcher import Backend, FleetLauncher
from repro.service.client import PlanClient

pytestmark = pytest.mark.fleet


def _launcher(tmp_path, n_backends=1, **overrides):
    overrides.setdefault("socket_dir", tmp_path)
    overrides.setdefault("n_workers", 0)  # in-process execution: fast startup
    overrides.setdefault("supervise_interval_s", 0.05)
    overrides.setdefault("restart_backoff_s", 0.05)
    overrides.setdefault("log_level", "error")
    return FleetLauncher(n_backends=n_backends, **overrides)


def _wait_until(predicate, *, timeout_s=60.0, message="condition"):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    pytest.fail(f"timed out waiting for {message}")


class TestSupervision:
    def test_crashed_backend_is_restarted_on_same_address(self, tmp_path):
        restarted: "list[Backend]" = []
        launcher = _launcher(tmp_path)
        try:
            launcher.spawn()
            launcher.start_supervision(on_restart=restarted.append)
            backend = launcher.backends[0]
            old_pid = backend.pid
            launcher.kill(0, signal.SIGKILL)
            # The callback fires only after the restarted backend answers
            # ping — it is the last step of a restart, so wait on it.
            _wait_until(
                lambda: len(restarted) >= 1 and backend.alive,
                message="the backend to be restarted",
            )
            assert launcher.restarts_total >= 1
            assert backend.pid != old_pid
            assert backend.restarts == 1
            assert backend.last_exit_code == -signal.SIGKILL
            assert not backend.given_up
            # The on_restart hook fired with the restarted backend — this
            # is what re-registers it with the gateway's health monitor.
            assert [b.address for b in restarted] == [backend.address]
            # And it actually serves again, on the same address.
            with PlanClient(backend.address, timeout=10.0) as client:
                assert client.ping()["pong"] is True
        finally:
            launcher.terminate()

    def test_restart_budget_exhaustion_gives_up(self, tmp_path):
        launcher = _launcher(tmp_path, restart_budget=0)
        try:
            launcher.spawn()
            launcher.start_supervision()
            backend = launcher.backends[0]
            launcher.kill(0, signal.SIGKILL)
            _wait_until(
                lambda: backend.given_up, message="the restart budget to trip"
            )
            assert launcher.restarts_total == 0
            assert not backend.alive
        finally:
            launcher.terminate()


class TestDrain:
    def test_terminate_with_already_exited_backend(self, tmp_path):
        """The drain must not signal dead pids: a backend that already
        crashed is only reaped, and its exit code still lands in the map."""
        launcher = _launcher(tmp_path, n_backends=2)
        try:
            launcher.spawn()
            victim = launcher.backends[0]
            launcher.kill(0, signal.SIGKILL)
            victim.process.wait(timeout=30.0)  # dead before the drain starts
        finally:
            codes = launcher.terminate()
        assert codes[victim.address] == -signal.SIGKILL
        assert codes[launcher.backends[1].address] == 0  # clean SIGTERM drain
        for backend in launcher.backends:
            assert not backend.alive

    def test_terminate_is_idempotent(self, tmp_path):
        launcher = _launcher(tmp_path)
        launcher.spawn()
        first = launcher.terminate()
        second = launcher.terminate()
        assert first == second


def _running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie awaiting its reaper."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (FileNotFoundError, ProcessLookupError):
        return False


class TestWorkerLifetime:
    def test_pool_workers_exit_when_their_daemon_is_killed(self, tmp_path):
        launcher = _launcher(tmp_path, n_workers=2)
        try:
            launcher.spawn()
            backend = launcher.backends[0]
            with PlanClient(backend.address, timeout=60.0) as client:
                client.plan("scenario1", n_periods=1)  # starts the pool
                workers = client.status()["server"]["worker_pids"]
            assert len(workers) == 2 and all(_running(pid) for pid in workers)
            launcher.kill(0, signal.SIGKILL)
            backend.process.wait(timeout=30.0)
            _wait_until(
                lambda: not any(_running(pid) for pid in workers),
                timeout_s=5.0,
                message="the orphaned pool workers to exit",
            )
        finally:
            launcher.terminate()
