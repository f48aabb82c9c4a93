"""The machine's speed, sampled while the benchmark runs, and times scaled by it.

The 2-core sandbox the benchmark was defined on switches between a fast
and a slow state every few seconds (see BASELINE.md): the calibration
kernel below takes about 0.35 ms in one and 0.65 ms in the other.  Whole
30-s runs can sit in the slow state, so unscaled times of the same code
spread by 15 to 30 % from run to run.  The worker therefore samples the
speed all through a run, and run.py reports every time at the reference
speed: the speed at which the kernel takes CAL_REFERENCE_S.

The kernel imports nothing from cubetact, so a change to the package moves
scaled times exactly as it moves unscaled ones.  Scaling assumes cubetact
slows down by the same factor as the kernel; the spread left after scaling
measures how well that holds.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

CAL_POINTS = 128  # size of the calibration kernel's input
CAL_INTERVAL_S = 0.05  # wall time between two samples
# Close to the kernel's median on the sandbox, so scaled times read close
# to that machine's wall times.
CAL_REFERENCE_S = 0.5e-3


def calibration_kernel():
    """Fixed interpreter work of the kind cubetact does: tuples, majorities, dicts."""
    pts = [tuple((i >> k) & 1 for k in range(8)) for i in range(CAL_POINTS)]
    index = {p: k for k, p in enumerate(pts)}
    found = 0
    for a, b, c in zip(pts, pts[7:], pts[13:]):
        m = tuple(int(x + y + z >= 2) for x, y, z in zip(a, b, c))
        found += index.get(m, -1)
    return found


class SpeedSampler:
    """Runs the calibration kernel every CAL_INTERVAL_S, in the middle of any work.

    An interval timer (SIGALRM) interrupts the one caller, which runs the
    kernel between two bytecodes and goes on; no thread is started.  Each
    sample is kept as [time.monotonic() at its start, kernel seconds].
    ``spent`` adds up the time the handler took, so that a timed loop can
    take it back out of the latencies it measures.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def sample(self, *_signal_args):
        t0 = time.monotonic()
        calibration_kernel()
        t1 = time.monotonic()
        self.samples.append([t0, t1 - t0])
        self.spent += time.monotonic() - t0

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def scaler(samples):
    """A function from a stretch of time (start, end) to its scale to the reference speed.

    A sample's scale is CAL_REFERENCE_S divided by its kernel time, after a
    running median over three samples takes out single outliers.  A
    stretch's scale is the mean over the samples taken in it, which weights
    each part of the stretch by its length; a stretch too short to hold a
    sample takes the mean of the samples just before and after it.
    """
    times = [t for t, _ in samples]
    kernel = [s for _, s in samples]
    scales = [
        CAL_REFERENCE_S / statistics.median(kernel[max(0, k - 1):k + 2])
        for k in range(len(kernel))
    ]

    def scale(start, end):
        i = bisect.bisect_left(times, start)
        j = bisect.bisect_right(times, end)
        if j > i:
            return statistics.fmean(scales[i:j])
        return statistics.fmean(scales[k] for k in (i - 1, j) if 0 <= k < len(scales))

    return scale
