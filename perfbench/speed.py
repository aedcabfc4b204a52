"""Time at a fixed reference speed, measured while a workload runs.

The shared machines this benchmark runs on switch, every one to thirty
seconds, between full speed and roughly half of it, as other tenants load
the physical cores; the two virtual processors switch independently. A cold
run's raw wall time then depends more on how much of it fell in slow phases
than on the program.

`SpeedProbe` interrupts the workload every `INTERVAL` seconds (SIGALRM) and
times a fixed calibration loop, about 50 µs at full speed. Each stretch of
the workload between two calibrations is divided by the calibration time
measured around it, which gives the work in calibration loops; that does not
change when the machine slows down. `seconds()` converts it at
`CALIBRATION_S` per loop. The calibrations are excluded from the stretches
and cost about 0.5% of the run.

The correction is not exact. In the heaviest slow phases the calibration
loop slows down more than the program does, so a child that ran mostly in
them reads up to 20% low; the benchmark reports medians over at least three
children.

Only `signal` and `time` are imported, because the probe also runs around
the import that set-up time measures.
"""

import signal
import time

INTERVAL = 0.01
# Full-speed time of calibrate() on the 2-core Xeon the benchmark was tuned
# on: there, runs that hit no slow phase read about their raw wall time.
CALIBRATION_S = 58e-6


def calibrate() -> int:
    """A fixed piece of interpreter work: tuple hashing and dict updates."""
    counts = {}
    for i in range(300):
        key = (i % 7, i & 15)
        counts[key] = counts.get(key, 0) + 1
    return len(counts)


class SpeedProbe:
    """Context manager; `samples` holds (start, end) of each calibration."""

    def __init__(self):
        self.samples = []

    def _sample(self, signum, frame):
        start = time.perf_counter()
        calibrate()
        self.samples.append((start, time.perf_counter()))

    def __enter__(self):
        self.started = time.monotonic()
        self.start = time.perf_counter()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.end = time.perf_counter()

    def seconds(self) -> float:
        """The probed stretch's duration at the reference speed.

        A stretch is weighted by the median of the five calibrations nearest
        to it, so that one calibration hit by an interrupt does not count.
        Without a calibration (a stretch under `INTERVAL`) it is raw time.
        """
        cal = [end - start for start, end in self.samples]
        if not cal:
            return self.end - self.start
        loops = 0.0
        edge = self.start
        for i, (start, end) in enumerate([*self.samples, (self.end, self.end)]):
            near = sorted(cal[max(0, i - 2): i + 3])
            loops += (start - edge) / near[len(near) // 2]
            edge = end
        return loops * CALIBRATION_S
