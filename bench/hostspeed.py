"""How fast the host runs at the moment, and latencies scaled to a fixed speed.

On a shared host the same Python code runs up to 1.7 times slower in
spells that last seconds, as other tenants load the machine; repeats of a
five-second operation differ by that much.  A fixed pure-Python loop (the
probe) slows down with it: over 150 s of alternating probes and
``classify.psi_max`` calls the two tracked each other with a correlation
of 0.96 between 3-second block medians.  Large LAPACK calls do not: a
1024 x 1024 Cholesky's spread widened when scaled, so the workloads keep
such calls to a minor share of their time.

``Sampler.time(fn)`` runs ``fn`` and samples the probe around it (three
times before, three after) and, every ``INTERVAL_S`` while it runs, from a
SIGALRM handler.  Handler time is taken out of the latency.  ``scaled``
then gives the latency the operation would have had on a host where the
probe takes ``REF_S``: latency * REF_S / median probe time.  The probe is
pure Python, so it can run before numpy is imported.
"""

from __future__ import annotations

import signal
from time import perf_counter

PROBE_LOOPS = 12_000
# Probe time that defines the reference speed: about the fastest the probe
# ran on a shared 2-vCPU Intel Xeon host under Python 3.11.
REF_S = 0.00075
INTERVAL_S = 0.1
BRACKET = 3


def probe() -> float:
    t = perf_counter()
    s = 0
    for i in range(PROBE_LOOPS):
        s += (i * i) % 7
    return perf_counter() - t


def scaled(latency_s: float, probe_s: float) -> float:
    return latency_s * REF_S / probe_s


class Sampler:
    def __init__(self):
        self.samples: list = []
        self.spent = 0.0

    def _on_alarm(self, signum, frame) -> None:
        t = perf_counter()
        self.samples.append(probe())
        self.spent += perf_counter() - t

    def time(self, fn):
        """Returns (fn's result, latency_s, median probe_s)."""
        before = [probe() for _ in range(BRACKET)]
        self.samples, self.spent = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t = perf_counter()
        try:
            outcome = fn()
        finally:
            dt = perf_counter() - t
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        after = [probe() for _ in range(BRACKET)]
        return outcome, dt - self.spent, median(before + self.samples + after)


def median(xs: list) -> float:
    xs = sorted(xs)
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else 0.5 * (xs[mid - 1] + xs[mid])
