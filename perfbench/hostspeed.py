"""Host speed, so that timings taken on a drifting host can be compared.

The benchmark runs on shared machines whose speed drifts by a quarter
or more within seconds, for the program and for plain Python alike.  So
every process that runs a timed operation also times a fixed probe,
``probe()``: a short pure-Python loop that allocates nothing, started by
an interval timer every ``INTERVAL_S`` of wall time, once at start-up
and once at exit.  The probes run inside the operation's own process
and during the operation, so they see the speed the operation sees; no
ncwres code is involved.  At exit the process writes them to stderr as
one line starting with ``MARK``.

An operation's time is reported scaled by ``PROBE_REF_S`` over the
mean probe time during it: seconds of a host on which the probe takes
``PROBE_REF_S``.  The raw wall time and the mean probe time are kept
next to it.  The probes cost about 3% of every operation, at every
commit alike.
"""

from __future__ import annotations

import atexit
import signal
import sys
import time

INTERVAL_S = 0.05
PROBE_LOOPS = 20000

# the probe's typical time on the 2-vCPU host the benchmark was written
# on; it only sets the unit, every run divides by the same value
PROBE_REF_S = 0.0015

MARK = "#hostspeed"

_probes: list[tuple[float, float]] = []


def probe() -> float:
    """Time one fixed loop; keep (start, seconds)."""
    t0 = time.perf_counter()
    x = 1
    for _ in range(PROBE_LOOPS):
        x = (x * 5 + 1) & 255
    dt = time.perf_counter() - t0
    _probes.append((t0, dt))
    return dt


def _report() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0)
    probe()
    pairs = " ".join(f"{t:.6f}:{dt:.7f}" for t, dt in _probes)
    sys.stderr.write(f"\n{MARK} {pairs}\n")
    sys.stderr.flush()


def start() -> None:
    """Probe this process until it exits, then report to stderr."""
    signal.signal(signal.SIGALRM, lambda *_: probe())
    probe()
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    atexit.register(_report)


def parse(stderr: str) -> tuple[str, list[tuple[float, float]]]:
    """(stderr without the probe line, the probes it reported)."""
    lines = stderr.splitlines()
    for i in range(len(lines) - 1, -1, -1):
        if lines[i].startswith(MARK):
            pairs = [p.split(":") for p in lines[i].split()[1:]]
            rest = "\n".join(lines[:i]).rstrip("\n")
            return rest, [(float(t), float(dt)) for t, dt in pairs]
    return stderr, []


def probe_s(probes, t0: float = float("-inf"), t1: float = float("inf")) -> float | None:
    """Mean probe time from one interval before t0 to one after t1 (the
    nearest probe if none fell there); None without probes."""
    near = [dt for t, dt in probes if t0 - INTERVAL_S <= t <= t1 + INTERVAL_S]
    if near:
        return sum(near) / len(near)
    if probes:
        return min(probes, key=lambda p: min(abs(p[0] - t0), abs(p[0] - t1)))[1]
    return None


def scale(rec: dict, probes, t0=float("-inf"), t1=float("inf"), key: str = "op_s") -> dict:
    """Scale rec[key] to the reference speed; keep the raw time.  Without
    probes (a process that was killed) the raw time stands."""
    p = probe_s(probes, t0, t1)
    rec["raw_" + key] = rec[key]
    rec["probe_s"] = p
    if p is not None:
        rec[key] = rec[key] * PROBE_REF_S / p
    return rec
