"""Speed probe: measures how fast the CPU runs a measured process, so that
its times can be scaled to a fixed reference speed.

On a shared host the speed of a vCPU drifts by up to 2x over minutes, which
moves every timing with it.  While a `Probe` runs, a timer signal every
PERIOD_S seconds makes the measured process itself run a fixed pure-Python
loop (`work`) and time it, so the samples come from the CPU, and the moment,
that the measured code is using.  `Probe.phase` then gives, for the time since
the last phase ended:

* `own_s`: the wall time minus the time the probe loops took (about 1.5%),
* `probe_s`: the time the probe loops took, and
* `speed`: the mean over samples of REF_S / sample duration, the CPU's speed
  relative to the reference.

A time of `own_s` seconds at relative speed `speed` would take
`own_s * speed` seconds at the reference speed.  REF_S is about the loop's
mean duration on the 2-vCPU VM where the benchmark was built, so there scaled
times read about as measured.  Changing `work`, PROBE_N or REF_S changes
every scaled metric, so the baseline must be measured again after such a
change.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.1
PROBE_N = 6000
REF_S = 1.7e-3


def work() -> int:
    table: dict[int, int] = {}
    acc = 0
    for i in range(PROBE_N):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[acc & 1023] = i
        acc ^= table.get(i & 1023, 0)
    return acc


class Probe:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, duration)
        self.start = 0.0
        self._busy = False

    def _sample(self, signum=None, frame=None) -> None:
        if self._busy:  # the timer fired during a sample taken by hand
            return
        self._busy = True
        t = time.perf_counter()
        work()
        self.samples.append((t, time.perf_counter() - t))
        self._busy = False

    def install(self) -> None:
        """Start sampling; the first phase begins now."""
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._begin()

    def _begin(self) -> None:
        self.samples.clear()
        self._sample()  # every phase has a sample at each end
        self.start = time.perf_counter()

    def phase(self) -> tuple[float, float, float]:
        """(own_s, probe_s, speed) of the phase that ends now, where probe_s
        is the time the probe loops took inside it; the next phase begins."""
        end = time.perf_counter()
        probe_s = sum(d for t, d in self.samples if self.start <= t < end)
        own_s = end - self.start - probe_s
        self._sample()
        speed = statistics.fmean(REF_S / d for _, d in self.samples)
        self._begin()
        return own_s, probe_s, speed

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
