"""Process control and ``/proc`` accounting for the launcher child.

PR 12's benchmark was rejected for leaving a process running, so
teardown is the contract here: the launcher runs in its own session
(``start_new_session=True``), :meth:`Launcher.stop` always ends with a
``killpg(SIGKILL)``, and :func:`leak_check` walks ``/proc`` and
``/dev/shm`` before the command exits.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
_TICKS = os.sysconf("SC_CLK_TCK")
_SHM = Path("/dev/shm")
START_TIMEOUT = 60.0
STOP_TIMEOUT = 15.0


def _stat_fields(pid: int) -> list[str] | None:
    """Fields of ``/proc/<pid>/stat`` after the parenthesised command name."""
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return raw[raw.rindex(")") + 2:].split()


def descendants(root: int) -> list[int]:
    """Live pids whose parent chain reaches ``root`` (``root`` excluded)."""
    parents: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None and fields[0] != "Z":
                parents[int(entry)] = int(fields[1])
    found, frontier = [], [root]
    while frontier:
        parent = frontier.pop()
        children = [pid for pid, ppid in parents.items() if ppid == parent]
        found.extend(children)
        frontier.extend(children)
    return found


def cpu_seconds(pids: list[int]) -> float:
    """utime + stime of ``pids``, in seconds (dead pids count as 0)."""
    total = 0
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:
            total += int(fields[11]) + int(fields[12])
    return total / _TICKS


def peak_rss_mb(pids: list[int]) -> float:
    """Sum of ``VmHWM`` over ``pids``, in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def shm_segments() -> set[str]:
    """Names of python shared-memory segments currently in ``/dev/shm``."""
    try:
        return {name for name in os.listdir(_SHM) if name.startswith("psm_")}
    except OSError:
        return set()


class Launcher:
    """The serving tier in a child process, started from a JSON config."""

    def __init__(self, config: dict, workdir: Path):
        self.config = config
        self.workdir = workdir
        self.proc: subprocess.Popen | None = None
        self.port = 0
        #: What the launcher reported on its ready line (per-table
        #: registration times, tier construction time).
        self.ready: dict = {}
        self.setup_s = 0.0

    def start(self) -> "Launcher":
        """Spawn the launcher and wait for its ready line and ``/healthz``."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        config_path = self.workdir / f"launcher-{os.getpid()}-{time.monotonic_ns()}.json"
        config_path.write_text(json.dumps(self.config))
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py"), str(config_path)],
            stdout=subprocess.PIPE,
            start_new_session=True,
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT)
            line = self.proc.stdout.readline() if ready else b""
            if not line:
                raise RuntimeError(
                    f"launcher did not come up within {START_TIMEOUT:g}s "
                    f"(exit code {self.proc.poll()})"
                )
            self.ready = json.loads(line)
            self.port = self.ready["port"]
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=START_TIMEOUT)
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            response.read()
            conn.close()
            if response.status != 200:
                raise RuntimeError("launcher /healthz did not answer 200")
            self.setup_s = time.perf_counter() - started
        except BaseException:
            self.stop()
            raise
        finally:
            config_path.unlink(missing_ok=True)
        return self

    def pids(self) -> list[int]:
        """The launcher and every live descendant (shard workers)."""
        assert self.proc is not None
        return [self.proc.pid, *descendants(self.proc.pid)]

    def stop(self) -> None:
        """SIGTERM → wait → SIGKILL the whole process group, always."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        try:
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=STOP_TIMEOUT)
        except (subprocess.TimeoutExpired, ProcessLookupError):
            pass
        finally:
            # The group id is the launcher's pid (own session); shard
            # workers and their resource tracker share it.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
            proc.stdout.close()


def leak_check(shm_before: set[str]) -> list[str]:
    """Kill surviving descendants, unlink surviving segments, name both."""
    leaks = []
    for pid in descendants(os.getpid()):
        try:
            command = Path(f"/proc/{pid}/cmdline").read_bytes().replace(b"\0", b" ").decode()
        except OSError:
            command = "?"
        leaks.append(f"process {pid} ({command.strip()})")
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    for name in sorted(shm_segments() - shm_before):
        leaks.append(f"shm segment {name}")
        try:
            (_SHM / name).unlink()
        except OSError:
            pass
    return leaks
