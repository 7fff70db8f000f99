"""Host-speed normalisation: times as they would read at a fixed host speed.

The benchmark shares a host whose speed drifts by a third within a
minute: the same Fig. 7 sweep takes 3.7 s or 5.6 s depending on when it
runs.  The drift is common to everything the process runs, so a fixed
probe timed *during* the work tracks it.  A :class:`Speedometer`
interrupts the process every :data:`INTERVAL` seconds (``SIGALRM``) and
times :func:`probe`, a short fixed mix of interpreter and NumPy work
that never touches the library.  :meth:`Speedometer.seconds` turns a
wall-clock window into *reference seconds*: the window minus the time
spent in probes, scaled by :data:`REFERENCE_PROBE_SECONDS` over the
median probe time in the window.  A change to the library moves the
window, never the probe, so it moves reference seconds one for one.

The probe mixes several kinds of work because each kind alone tracked
one workload and missed another.  Over repeats of one sweep input and
of one crawl input, raw pass times had an IQR/median of 0.33 and 0.17;
scaled by an interpreter loop alone 0.06 and 0.10, by a 4 MiB NumPy
pass alone 0.12 and 0.13, and by the mix 0.02–0.05 and 0.03–0.04.
The correction is partial: on serve-open a 40% slower host still reads
about 6% slower in reference seconds.

Only the main thread of the benchmark's own process is interrupted;
``setitimer`` timers are not inherited by worker processes.  While
worker processes fill both cores, the probe in the waiting parent shares
them and reads slower than it would alone, so fanned-out work reads
fewer reference seconds than serial work of the same wall time; compare
fanned-out figures only with each other.  Bracketing such windows with
probes taken just before and after them avoids that bias but spread no
less over seeds, so it was left out.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter
from typing import List

import numpy as np

#: Seconds between probes; each probe costs about 1.5–2 ms.
INTERVAL = 0.05

#: Probes a window needs; a shorter window uses the ones that precede it.
MIN_PROBES = 20

#: Median probe time on the host the benchmark was tuned on, when quiet.
#: It fixes the unit only: reference seconds are wall seconds on a host
#: whose probe takes this long.
REFERENCE_PROBE_SECONDS = 0.0015

_BUFFER = np.arange(1 << 17, dtype=np.float64)


class _Item:
    def __init__(self, value: int) -> None:
        self.value = value

    def keyed(self, other: int) -> dict:
        return {"key": self.value + other}


def probe() -> int:
    """Interpreter loops, object and dict churn, 1 MiB NumPy passes and
    small matrix products."""
    total = 0
    for i in range(1500):
        total += i * i
    kept = [_Item(i).keyed(i)["key"] for i in range(300)]
    for _ in range(2):
        np.sqrt(_BUFFER).sum()
    square = np.full((48, 48), 0.5)
    for _ in range(20):
        square = square @ square * 0.01
    return total + len(kept)


def wall(start: float, end: float) -> float:
    """Unscaled seconds: what a window measures without a speedometer."""
    return end - start


class Speedometer:
    """Samples :func:`probe` while active; maps windows to reference seconds."""

    def __init__(self) -> None:
        #: Wall seconds, net of probes, of every window scaled so far.
        self.unscaled = 0.0
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.probes: List[float] = []
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        entered = perf_counter()
        probe()
        left = perf_counter()
        self.probes.append(left - entered)
        self.starts.append(entered)
        self.ends.append(perf_counter())

    def __enter__(self) -> "Speedometer":
        for _ in range(MIN_PROBES):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds of the wall-clock window ``[start, end]``."""
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_right(self.starts, end)
        inside = sum(self.ends[k] - self.starts[k] for k in range(first, last))
        window = self.probes[min(first, max(0, last - MIN_PROBES)):last]
        self.unscaled += end - start - inside
        return (end - start - inside) * REFERENCE_PROBE_SECONDS / statistics.median(window)
