"""Speed probes: scale measured times to one reference speed of the machine.

The benchmark runs on a few vCPUs of a shared host whose speed moves by
tens of percent within a second and by up to 2x over minutes; every
pure-Python time moves with it.  A probe times a fixed pure-Python kernel
that shares no code with the package: a dictionary DP over (remaining,
target) tuple states, the same mix of tuple building, dict updates and
small-integer arithmetic as the package's counting DP.  A time is reported
as the time the same work would have taken had the kernel run in
``REFERENCE_PROBE_S``.  The kernel does not depend on ``naryinv``, so a
faster or slower package moves every scaled time by the same factor as the
raw one.

``Sampler`` probes from a timer signal every ``TICK_S`` while queries run,
so a query is scaled by the speed the machine had during it; ``probe()``
and ``scale()`` bracket work that the timer cannot interrupt (a child
process) or that must not carry probe time (traced runs).
"""

from __future__ import annotations

import bisect
import os
import signal
import time

#: kernel time taken as the reference speed (about its median on a 2-vCPU
#: x86-64 VM with Python 3.11); scaled times are "ms at this speed"
REFERENCE_PROBE_S = 0.0025
#: seconds between two sampler probes; one probe costs ~REFERENCE_PROBE_S
TICK_S = 0.025
#: kernel runs in one bracketing probe
PROBE_REPEATS = 6

_PARTS = [(i, j) for i in range(4) for j in range(4) if i + j <= 4]


def _kernel() -> int:
    states = {(4, (7, 6)): 1}
    for a, b in _PARTS:
        nxt: dict = {}
        for (r, t), ways in states.items():
            top = r
            if a:
                top = min(top, t[0] // a)
            if b:
                top = min(top, t[1] // b)
            for mult in range(top + 1):
                key = (r - mult, tuple(x - mult * y for x, y in zip(t, (a, b))))
                nxt[key] = nxt.get(key, 0) + ways
        states = nxt
    return states.get((0, (0, 0)), 0)


#: the kernel's answer; a probe that computes anything else is refused
_EXPECTED = _kernel()


def _timed_kernel() -> float:
    start = time.perf_counter()
    value = _kernel()
    elapsed = time.perf_counter() - start
    if value != _EXPECTED:
        raise RuntimeError("speed probe kernel gave a different answer")
    return elapsed


def pin_to_one_cpu() -> None:
    """Keep this process and every child it starts on one CPU.

    The host's vCPUs differ in speed from moment to moment, so a probe
    tells the speed of the timed work only if both run on the same CPU.
    """
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):  # no affinity control: probes still run
        pass


def probe() -> float:
    """Seconds one kernel run takes now (mean of ``PROBE_REPEATS`` runs)."""
    return sum(_timed_kernel() for _ in range(PROBE_REPEATS)) / PROBE_REPEATS


def scale(raw_s: float, before: float, after: float) -> float:
    """``raw_s`` taken between probes ``before`` and ``after``, at reference speed."""
    return raw_s * REFERENCE_PROBE_S * 2.0 / (before + after)


class Sampler:
    """Kernel runs from ``SIGALRM`` every ``TICK_S`` while it is started.

    Python runs the handler between bytecodes of the main thread, so the
    probes land inside the timed queries; ``scaled`` removes their time
    from a query and scales the rest by the probes taken during it.
    """

    def __init__(self) -> None:
        #: perf_counter at the start of each probe, and its duration
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        elapsed = _timed_kernel()
        self.starts.append(start)
        self.durations.append(elapsed)

    def start(self) -> None:
        """Probe now, then every ``TICK_S``."""
        self._tick(None, None)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        """Stop the timer, then probe once more, after the last timed work."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick(None, None)

    def scaled(self, start: float, end: float) -> float:
        """Reference-speed seconds of the work done from ``start`` to ``end``.

        Probes that ran inside the interval are subtracted; each remaining
        slice of time counts at the speed the probes inside it measured
        (the mean of reference over probe time, so a slow spell counts by
        its length).  An interval with fewer than two probes in it also
        uses the nearest probe on each side.
        """
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        busy = sum(self.durations[lo:hi])
        if hi - lo < 2:
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.starts))
        if lo == hi:
            raise RuntimeError("no speed probe ran; the timer signal is not delivered")
        speed = sum(REFERENCE_PROBE_S / d for d in self.durations[lo:hi]) / (hi - lo)
        return (end - start - busy) * speed
