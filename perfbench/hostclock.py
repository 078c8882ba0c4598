"""Host-speed calibration: timings in seconds at a fixed reference speed.

The 2-vCPU KVM guest this benchmark was built on ran the same pass anywhere
from 6 to 11 s within minutes. A fixed pure-Python loop slowed by the same
factor at the same moments, in CPU time as much as in wall time, so the host
changes speed as a whole. The benchmark therefore times a 300-step reference
chunk every 20 ms while a pass runs (from a SIGALRM handler in this process,
so no thread or process is added) and leaves the chunks out of every timing.
Each sample gives the host speed ``REF_CHUNK_S / chunk time``; integrating it
over a pass maps clock readings onto a reference timeline, in seconds on a
host where one chunk takes 100 us.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time

REF_CHUNK_S = 100e-6
INTERVAL_S = 0.02


def _chunk() -> int:
    """Fixed mix of the work magilab does: small ints, tuples, dict updates."""
    table: dict = {}
    total = 0
    for i in range(300):
        pair = (i, i * 3 % 17)
        table[pair[1]] = table.get(pair[1], 0) + pair[0]
        total += len(table) + pair[0] * pair[1] % 5
    return total


class HostClock:
    """A clock that leaves out calibration time, and the speed samples of one window."""

    def __init__(self):
        self.spent = 0.0
        self.samples: list[tuple[float, float]] = []  # (clock reading, host speed)

    def now(self) -> float:
        return time.perf_counter() - self.spent

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        _chunk()
        took = time.perf_counter() - start
        self.spent += took
        self.samples.append((self.now(), REF_CHUNK_S / took))

    @contextlib.contextmanager
    def window(self):
        """Sample host speed at the start, every 20 ms, and at the end of the block."""
        self.samples = []
        previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    def speed(self) -> float:
        """Mean host speed over the last window, relative to the reference."""
        return statistics.mean(speed for _, speed in self.samples)

    def reference_time(self):
        """Map this window's clock readings onto a reference-speed timeline.

        Between two samples the host runs at their mean speed; before the first
        and after the last, at that sample's speed.
        """
        times = [t for t, _ in self.samples]
        speeds = [speed for _, speed in self.samples]
        marks = [times[0]]
        for i in range(1, len(times)):
            marks.append(marks[-1] + (times[i] - times[i - 1]) * (speeds[i - 1] + speeds[i]) / 2)

        def to_ref(t: float) -> float:
            i = bisect.bisect_right(times, t) - 1
            if i < 0:
                return marks[0] - (times[0] - t) * speeds[0]
            rate = speeds[i] if i == len(times) - 1 else (speeds[i] + speeds[i + 1]) / 2
            return marks[i] + (t - times[i]) * rate

        return to_ref
