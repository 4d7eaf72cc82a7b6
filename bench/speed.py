"""Machine-speed probe: scales measured wall time to a reference speed.

The benchmark host is shared.  The same work can take 1.7 times longer
from one second to the next, and such a spell lasts seconds, so raw wall
times of runs made minutes apart do not agree.  While ops run, a SIGALRM
every PERIOD_S seconds runs a fixed NumPy kernel in the main thread (no
extra thread or process) and records how long it took.  An op's
reference time is its wall time, minus the time spent in the probe,
with each stretch between two samples weighted by the mean, over those
two samples, of REF_KERNEL_S / (kernel time).  That is the time the op would
take on a machine that runs the kernel in REF_KERNEL_S.

Set-up time is not scaled: spawning and importing in a child process
was measured to keep its wall time within a few percent while the
kernel's speed in the parent swung by 1.7x.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np
from numpy.fft import irfft, rfft  # bound here, so a tracer never records the probe

PERIOD_S = 0.05
REF_KERNEL_S = 2.0e-4  # kernel time on the reference machine
_X = np.random.default_rng(0).standard_normal(512)


def kernel_seconds() -> float:
    """Time of a fixed FFT and element-wise kernel, after one untimed pass."""
    y = irfft(rfft(_X), n=512)
    t0 = perf_counter()
    for _ in range(10):
        y = irfft(rfft(_X) * 1.0001, n=512)
        y = 0.5 * y * y + _X
    return perf_counter() - t0


class SpeedProbe:
    """Context manager that samples machine speed while it is open."""

    def __init__(self):
        self._t: list[float] = []  # handler entry
        self._busy: list[float] = []  # whole handler time, taken from the op
        self._kernel: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        k = kernel_seconds()
        self._t.append(t0)
        self._kernel.append(k)
        self._busy.append(perf_counter() - t0)

    def __enter__(self) -> "SpeedProbe":
        self._sample(None, None)  # so that even an op shorter than a period has one
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)

    def reference_clock(self, t) -> np.ndarray:
        """Map perf_counter times within the probe to reference-speed seconds.

        Between two samples the machine is taken to run at the mean speed
        of the two; before the first sample and after the last, at that
        sample's speed.  The clock stands still while a sample runs, so
        probe time is taken out of every interval that holds it.
        """
        s = np.array(self._t)
        e = s + np.array(self._busy)
        r = REF_KERNEL_S / np.array(self._kernel)
        if s.size < 2:
            raise RuntimeError("a speed probe needs two samples; read it after it closes")
        rate = 0.5 * (r[:-1] + r[1:])  # over the gap from e[k] to s[k + 1]
        at_start = np.concatenate(([0.0], np.cumsum(rate * (s[1:] - e[:-1]))))
        t = np.asarray(t, dtype=float)
        k = np.searchsorted(s, t, side="right") - 1  # last sample started at or before t
        inside = np.clip(k, 0, s.size - 1)
        gap_rate = np.append(rate, r[-1])[inside]
        return np.where(k < 0, (t - s[0]) * r[0],
                        at_start[inside] + gap_rate * np.maximum(t - e[inside], 0.0))

    def reference_seconds(self, spans: list[tuple[float, float]]) -> list[float]:
        """Reference-speed durations of (start, end) intervals of this probe."""
        ends = self.reference_clock([b for _, b in spans])
        return list(ends - self.reference_clock([a for a, _ in spans]))
