"""How fast the host runs pure Python right now, from a fixed reference loop.

The benchmark runs on a few virtual CPUs of a shared host, and the host
runs them slower in spells: the reference loop below, repeated back to
back, takes 11 ms for half a second, then 18 ms for the next, with
process CPU time equal to wall time.  An op that happens to run in slow
spells reads slow, so every op time is scaled by the host's speed
measured while it ran:

    scaled time = own time * REFERENCE_S / (harmonic mean time of the
                  reference loop over the samples taken during the op
                  and near it)

A timer signal runs the reference loop every ``INTERVAL_S`` seconds,
also in the middle of an op, so a 2-second op holds about forty samples
and a 2 ms op has a dozen within ``WINDOW_S`` of it.  An op's own time
is its wall time minus the samples that ran inside it.  The harmonic
mean is the right average: a sample that took r seconds says the host
did 1/r of the loop's work per second then, and an op's time is its work
over the average of that rate.  Over a 2-second op repeated in one
process, the scaled time varied by 2-3% (coefficient of variation), the
unscaled one by 13-16%, and the time scaled by the samples' median by 7%.

``reference_loop`` is the benchmark's own code and never changes with
``seb``; it does the kind of work ``seb`` does (frozen dataclasses and
``replace``, tuple slicing, hashing tuples into dicts and sets, sorting
with a key, f-strings), so a slow spell stretches it about as much as it
stretches an op.  ``REFERENCE_S`` is its typical time on the host the
benchmark was written on, so a scaled time reads as the op's wall time
there at the host's usual speed.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from dataclasses import dataclass, replace

# Typical time of one reference_loop() on a 2-vCPU Intel Xeon (Sapphire
# Rapids) KVM guest under CPython 3.11.
REFERENCE_S = 0.0150
# How often the timer samples the host.
INTERVAL_S = 0.05
# An op is scaled by the samples within this many seconds of it.
WINDOW_S = 0.3


@dataclass(frozen=True)
class _Node:
    state: tuple
    depth: int
    label: str


def reference_loop(width: int = 6, steps: int = 700) -> int:
    """A breadth-first walk over tuple states; returns the states seen."""
    start = _Node(tuple(range(width)), 0, "init")
    seen = {start.state: start}
    frontier = [start]
    done = 0
    while frontier and done < steps:
        node = frontier.pop(0)
        done += 1
        moves = []
        for i in range(width):
            value = (node.state[i] * 7 + i + node.depth) % 11
            state = node.state[:i] + (value,) + node.state[i + 1:]
            moves.append((value, i, state))
        for value, i, state in sorted(moves, key=lambda m: (m[0], -m[1])):
            if state not in seen:
                nxt = replace(node, state=state, depth=node.depth + 1,
                              label=f"{node.label[:8]}.{i}={value}")
                seen[state] = nxt
                frontier.append(nxt)
    return len(seen)


class HostSpeed:
    """Samples of the reference loop's time, and the scaling they give."""

    def __init__(self) -> None:
        self.starts: list[float] = []  # when each sample began
        self.ends: list[float] = []  # when it ended
        reference_loop()  # warm up

    def sample(self) -> None:
        """Run the reference loop once, with the collector off, and record it.

        With the collector on, the objects of ``seb`` that the sample
        interrupted would make the sample's collections slower.
        """
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        reference_loop()
        end = time.perf_counter()
        if enabled:
            gc.enable()
        self.starts.append(start)
        self.ends.append(end)

    def _tick(self, *_signal) -> None:
        # On a host so slow that a sample outlasts the interval, skip
        # ticks rather than starve the op.
        if time.perf_counter() - self.ends[-1] >= INTERVAL_S / 2:
            self.sample()

    def sample_for(self, count: int) -> None:
        for _ in range(count):
            self.sample()

    def __enter__(self) -> "HostSpeed":
        """Sample now, every ``INTERVAL_S`` seconds, and when the block ends."""
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def own_time(self, start: float, end: float) -> float:
        """Wall time from ``start`` to ``end`` minus the samples inside it."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        inside = sum(min(e, end) - s for s, e in zip(self.starts[lo:hi], self.ends[lo:hi]))
        return end - start - inside

    def slowdown(self, start: float, end: float) -> float:
        """How much slower than usual the host ran from ``start`` to ``end``.

        The harmonic mean time of the samples that began within
        ``WINDOW_S`` of that interval, over ``REFERENCE_S``.
        """
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        near = [e - s for s, e in zip(self.starts[lo:hi], self.ends[lo:hi])]
        if not near:
            raise ValueError("no host-speed sample near the interval")
        return statistics.harmonic_mean(near) / REFERENCE_S

    def scale(self, start: float, end: float) -> float:
        """The interval's own time, as it would have been at the usual speed."""
        return self.own_time(start, end) / self.slowdown(start, end)

    def mean_slowdown(self) -> float:
        """The slowdown over every sample of the run."""
        return statistics.harmonic_mean(
            [e - s for s, e in zip(self.starts, self.ends)]) / REFERENCE_S
