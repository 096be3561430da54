"""Timing in reference seconds, so that a shared host's changing speed
cancels out of the benchmark's times.

Other tenants slow every process on the host by up to half, in phases
from a fraction of a second to minutes long.  ``probe_seconds`` times a
fixed pure-Python job that calls no gradfuzz code, which tells how fast
the host runs Python right now.  ``HostClock`` cuts a timed interval into
segments, probes between them, and scales each segment by
``REFERENCE_S`` over the mean of the probes around it.  What is left is
close to the program's own cost.
"""
from __future__ import annotations

import math
import time

# What probe_seconds() reads on the baseline host at its fastest.  It only
# sets the scale: a time in reference seconds is close to what a quiet
# baseline host would take.
REFERENCE_S = 0.0015


class _Entry:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int):
        self.key = key
        self.value = value


def _probe_work() -> int:
    table: dict[int, _Entry] = {}
    acc = 0
    for i in range(3000):
        entry = _Entry(i, (i * 2654435761) & 0xFFFF)
        table[entry.value] = entry
        if entry.value > 32767:
            acc ^= entry.key
        else:
            acc += len(table) % 7
    return acc + sum(sorted(table)[:10])


def probe_seconds() -> float:
    """Fastest of three runs of the probe job, in wall seconds."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        _probe_work()
        best = min(best, time.perf_counter() - start)
    return best


class HostClock:
    """Times one interval in wall and in reference seconds.

    ``tick()`` may be called often; once ``segment_s`` of wall time have
    gone by since the last probe, it probes again and closes a segment.
    Probe time counts in neither total.  ``probe`` stands in for
    probe_seconds, e.g. to record each probe as a span."""

    def __init__(self, segment_s: float = math.inf, probe=probe_seconds):
        self.segment_s = segment_s
        self.probe = probe
        self.wall = 0.0
        self.ref = 0.0
        self._speed = probe()
        self._mark = time.perf_counter()

    def _close_segment(self, now: float) -> None:
        seconds = now - self._mark
        speed = self.probe()
        self.wall += seconds
        self.ref += seconds * REFERENCE_S / ((self._speed + speed) / 2)
        self._speed = speed
        self._mark = time.perf_counter()

    def tick(self) -> None:
        now = time.perf_counter()
        if now - self._mark >= self.segment_s:
            self._close_segment(now)

    def stop(self) -> None:
        self._close_segment(time.perf_counter())


class ClockedExecutor:
    """The engine's ``executor=`` callable, ticking a HostClock before each
    execution so that long campaigns are probed as they run."""

    def __init__(self, clock: HostClock, inner):
        self.clock = clock
        self.inner = inner

    def __call__(self, config):
        self.clock.tick()
        return self.inner(config)

    def scaled(self, **scale) -> "ClockedExecutor":
        return ClockedExecutor(self.clock, self.inner.scaled(**scale))

    def close(self) -> None:
        self.inner.close()
