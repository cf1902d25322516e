"""Process and host readings from ``/proc``: CPU, peak RSS, strays, steal.

Everything here reads ``/proc`` only; nothing writes outside the checkout.
"""

from __future__ import annotations

import os
import signal
import time
from pathlib import Path

#: Environment variable set to 1 on every server the benchmark launches; spawned
#: shard workers inherit it, so a leftover worker is recognisable even
#: though its command line names only ``multiprocessing``.
SERVER_MARKER = "PERFBENCH_SERVER"

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> list[str] | None:
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # The command name (field 2) may hold spaces; fields resume after ")".
    return raw[raw.rindex(")") + 2:].split()


def group_pids(pgid: int) -> list[int]:
    """Live pids whose process group is ``pgid``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        # After the command name: state, ppid, pgrp, ...
        if fields is not None and fields[0] != "Z" and int(fields[2]) == pgid:
            pids.append(int(entry))
    return pids


def cpu_seconds(pids: list[int]) -> dict[int, float]:
    """User + system CPU seconds per pid (pids that vanished are skipped)."""
    out = {}
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:
            # utime and stime are fields 14 and 15 of the full line.
            out[pid] = (int(fields[11]) + int(fields[12])) / _CLK_TCK
    return out


def peak_rss_mb(pids: list[int]) -> float:
    """Sum of ``VmHWM`` (peak resident set) over ``pids``, in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
                break
    return total_kb / 1024.0


def _cpu_totals() -> tuple[int, int]:
    """(all jiffies, steal jiffies) from the aggregate ``cpu`` line."""
    fields = Path("/proc/stat").read_text().splitlines()[0].split()[1:]
    values = [int(v) for v in fields]
    # user nice system idle iowait irq softirq steal guest guest_nice;
    # guest time is already counted in user, so it is left out.
    total = sum(values[:8])
    steal = values[7] if len(values) > 7 else 0
    return total, steal


class HostRecord:
    """Host state around one run: load average and CPU steal share."""

    def __init__(self) -> None:
        self.load_start = os.getloadavg()[0]
        self._cpu_start = _cpu_totals()

    def finish(self) -> dict:
        total, steal = _cpu_totals()
        d_total = total - self._cpu_start[0]
        d_steal = steal - self._cpu_start[1]
        return {
            "loadavg_1m_start": self.load_start,
            "loadavg_1m_end": os.getloadavg()[0],
            "cpu_steal_share": d_steal / d_total if d_total > 0 else 0.0,
            "nproc": os.cpu_count(),
        }


def stray_servers() -> dict[int, str]:
    """Service processes alive now: pid -> command line.

    A server is recognised by an argument naming a ``repro.service``
    module (``python -m repro.service.http_api``) or by the environment
    marker this benchmark puts on its own servers.
    """
    own = os.getpid()
    marker = f"{SERVER_MARKER}=1".encode()
    strays = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == own:
            continue
        try:
            cmdline = Path(f"/proc/{entry}/cmdline").read_bytes()
            environ = Path(f"/proc/{entry}/environ").read_bytes()
        except OSError:
            continue
        args = cmdline.split(b"\0")
        if (
            any(arg.startswith(b"repro.service") for arg in args)
            or marker in environ.split(b"\0")
        ):
            fields = _stat_fields(int(entry))
            if fields is not None and fields[0] != "Z":
                strays[int(entry)] = cmdline.replace(b"\0", b" ").decode(
                    errors="replace"
                )[:120]
    return strays


def kill_group(pgid: int, grace_s: float = 5.0) -> None:
    """SIGTERM then SIGKILL a process group; return once it is empty."""
    try:
        os.killpg(pgid, signal.SIGTERM)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + grace_s
    while group_pids(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)
    if group_pids(pgid):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        deadline = time.monotonic() + grace_s
        while group_pids(pgid) and time.monotonic() < deadline:
            time.sleep(0.05)
    if group_pids(pgid):
        raise RuntimeError(f"process group {pgid} survived SIGKILL")
