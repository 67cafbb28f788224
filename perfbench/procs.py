"""Process bookkeeping read from ``/proc``: CPU of a process tree, the
descendants of a process, and running a child under a timeout that
kills and reaps its whole process group.

Linux only (the benchmark reads ``/proc/<pid>/stat``).
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import tempfile
import time

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
_PR_SET_CHILD_SUBREAPER = 36


def stat(pid: int) -> dict | None:
    """Fields of ``/proc/<pid>/stat`` that the benchmark uses, or None."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            raw = handle.read().decode()
    except (FileNotFoundError, ProcessLookupError, PermissionError):
        return None
    # The command name is parenthesised and may itself hold spaces.
    fields = raw[raw.rindex(")") + 2:].split()
    return {
        "pid": pid,
        "state": fields[0],
        "ppid": int(fields[1]),
        "pgrp": int(fields[2]),
        "session": int(fields[3]),
        "cpu_ticks": sum(int(value) for value in fields[11:15]),
    }


def all_stats() -> list[dict]:
    """Every process this container can see."""
    out = []
    for name in os.listdir("/proc"):
        if name.isdigit():
            entry = stat(int(name))
            if entry is not None:
                out.append(entry)
    return out


def descendants(root: int, stats: list[dict] | None = None) -> list[dict]:
    """Live processes whose parent chain leads to ``root``."""
    stats = all_stats() if stats is None else stats
    children: dict[int, list[dict]] = {}
    for entry in stats:
        children.setdefault(entry["ppid"], []).append(entry)
    out, frontier = [], [root]
    while frontier:
        for entry in children.get(frontier.pop(), []):
            out.append(entry)
            frontier.append(entry["pid"])
    return out


def tree_cpu_seconds() -> float:
    """User+system CPU of this process, its reaped children and live tree.

    A process alive at two readings contributes its own growth; one
    reaped in between moves into its parent's ``cutime``/``cstime``,
    so the difference of two readings counts each CPU second once.
    """
    root = os.getpid()
    stats = all_stats()
    own = next(entry for entry in stats if entry["pid"] == root)
    ticks = own["cpu_ticks"] + sum(
        entry["cpu_ticks"] for entry in descendants(root, stats)
    )
    return ticks / _CLOCK_TICKS


def become_subreaper() -> None:
    """Adopt orphaned descendants, so they can be reaped and counted."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                           ctypes.c_ulong, ctypes.c_ulong]
    if libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def reap_orphans() -> None:
    """Collect the exit status of every already-ended adopted child."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def leftovers(root: int, sessions: set[int]) -> list[dict]:
    """Descendants of ``root`` and members of ``sessions`` still running
    (zombies have ended; only their exit status is left)."""
    stats = all_stats()
    found = {entry["pid"]: entry for entry in descendants(root, stats)}
    for entry in stats:
        if entry["session"] in sessions and entry["pid"] != root:
            found[entry["pid"]] = entry
    return [entry for entry in found.values() if entry["state"] != "Z"]


def kill_and_reap(root: int, sessions: set[int], grace: float = 2.0) -> list[dict]:
    """End every leftover of ``root``/``sessions`` and return them.

    Leftovers get ``grace`` seconds to exit by themselves (a pool worker
    or tracker may still be shutting down), then SIGKILL; either way they
    are reaped, since this process adopts orphans.
    """
    deadline = time.monotonic() + grace
    while True:
        reap_orphans()
        running = leftovers(root, sessions)
        if not running or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    for entry in running:
        try:
            os.kill(entry["pid"], signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + 5.0
    while leftovers(root, sessions) and time.monotonic() < deadline:
        reap_orphans()
        time.sleep(0.05)
    reap_orphans()
    return running


def run_child(cmd: list[str], env: dict, timeout: float, log_dir: str) -> dict:
    """Run ``cmd`` in a new session; on timeout kill the whole group.

    Output goes to unnamed files in ``log_dir``, not pipes, so a process
    left behind cannot hold the wait open.  Returns the exit code (None
    after a timeout), both output streams, the monotonic time just
    before the spawn, and the session id.
    """
    with tempfile.TemporaryFile("w+", dir=log_dir) as out, \
            tempfile.TemporaryFile("w+", dir=log_dir) as err:
        spawned_at = time.monotonic()
        child = subprocess.Popen(cmd, env=env, stdout=out, stderr=err,
                                 start_new_session=True)
        try:
            code = child.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
            code = None
        out.seek(0)
        err.seek(0)
        return {"code": code, "stdout": out.read(), "stderr": err.read(),
                "spawned_at": spawned_at, "session": child.pid}
