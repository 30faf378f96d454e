"""Machine-speed calibration for timing on a shared host.

The host's speed drops by half or more for seconds to minutes as other
tenants load the cores and caches it shares, and the process's CPU time
rises with its wall time, so neither clock alone repeats from run to run.
A Speedometer runs a fixed calibration loop from a SIGALRM handler every
TICK_S seconds while the program runs, and converts a wall-clock interval
into the time the program would have taken at the speed where one
calibration loop takes REFERENCE_S: each stretch between two ticks counts
as its length times REFERENCE_S over the loop's time there, and the ticks
themselves count nothing.  The calibration loop is benchmark code, so a
change to the program moves converted times as much as wall times.
"""

from __future__ import annotations

import gc
import signal
import statistics
from bisect import bisect_right
from time import perf_counter

REFERENCE_S = 350e-6  # about the loop's fastest time seen on a 2-vCPU x86 VM
TICK_S = 0.02
SMOOTH = 5  # ticks in the running median, so that one preempted tick is ignored


class _Node:
    __slots__ = ("id", "nbrs", "state")

    def __init__(self, i):
        self.id, self.nbrs, self.state = i, set(), 0

    def process(self, inbox):
        self.state = max(inbox, default=self.state) + 1


def calibration_loop() -> int:
    """Five synchronous rounds on a 60-node graph, in the style of predsync's
    engine: small objects, sets, dicts, comprehensions and method calls.
    Fixed interpreter work whose slowdown under the host's load follows the
    program's more closely than a bare arithmetic loop's does."""
    nodes = [_Node(i) for i in range(60)]
    for node in nodes:
        node.nbrs.update(((node.id * 7) % 60, (node.id * 13) % 60))
    for _ in range(5):
        outbox = {node.id: [(node.id, node.state)] for node in nodes}
        for node in nodes:
            node.process([state for nbr in node.nbrs for _, state in outbox[nbr]])
    return sum(node.state for node in nodes)


def calibrate(times: int = 15) -> float:
    """Median seconds of one calibration loop, measured now."""
    samples = []
    for _ in range(times):
        t0 = perf_counter()
        calibration_loop()
        samples.append(perf_counter() - t0)
    return statistics.median(samples)


class Speedometer:
    """Ticks while active; seconds() converts intervals inside that time."""

    def __init__(self):
        self._starts = []
        self._ends = []
        self._base = None  # reference-speed clock at each tick's end
        self._busy = False

    def _tick(self, signum=None, frame=None):
        if self._busy:  # a tick held up past TICK_S; keep ticks in order
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()  # the loop frees all it allocates; collect in the program
        t0 = perf_counter()
        calibration_loop()
        self._starts.append(t0)
        self._ends.append(perf_counter())
        if collecting:
            gc.enable()
        self._busy = False

    def __enter__(self):
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()

    def _clock(self):
        if self._base is None:
            loops = [e - s for s, e in zip(self._starts, self._ends)]
            half = SMOOTH // 2
            slow = [statistics.median(loops[max(0, i - half):i + half + 1])
                    / REFERENCE_S for i in range(len(loops))]
            base = [0.0]
            for i in range(1, len(loops)):
                gap = self._starts[i] - self._ends[i - 1]
                base.append(base[-1] + gap * 2 / (slow[i - 1] + slow[i]))
            self._base = base
        return self._base

    def _at(self, t: float) -> float:
        base = self._clock()
        i = bisect_right(self._starts, t) - 1
        if i < 0 or i + 1 >= len(base):
            raise ValueError("time outside the speedometer's ticks")
        end = self._ends[i]
        if t <= end:
            return base[i]
        return base[i] + (base[i + 1] - base[i]) * (t - end) / (self._starts[i + 1] - end)

    def seconds(self, t0: float, t1: float) -> float:
        """Reference-speed seconds of the program's time in [t0, t1]."""
        return self._at(t1) - self._at(t0)
