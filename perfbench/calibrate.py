"""Host-speed calibration for the untraced run's time metrics.

The benchmark shares a few cores of a host with other tenants, and the speed
of those cores drifts by tens of percent within minutes, and by a few
percent within a second, while the program's work stays fixed.  A
`Calibrator` runs a fixed reference kernel in the benchmark's own process
right after each request, for a set share of the request's wall time, so
its samples cover the same stretch of time as the requests.
`scale(since)` is REFERENCE_S over the mean kernel time of the samples taken
since then: a time measured over that stretch, multiplied by it, is the time
the same work takes on a host where the kernel runs in REFERENCE_S.  That
cancels the drift the kernel and the program feel alike (on density requests
the log of a request's time follows the log of the kernel time with a slope
of 0.95 and a correlation of 0.94).  The kernel is interpreter-bound like
the program: a linear totient sieve over a typed array, then integer
arithmetic rendered to text.
"""

from __future__ import annotations

import time
from array import array

SIEVE_BOUND = 60_000
RENDER_ROWS = 6_000
CHECKSUM = 1094412918
# Typical mean kernel time between requests on the 2-vCPU Xeon VM the
# benchmark was defined on; it sets the unit of the scaled times only.
REFERENCE_S = 0.036


def kernel() -> int:
    """Fixed work; returns CHECKSUM."""
    phi = array("q", bytes(8 * (SIEVE_BOUND + 1)))
    primes: list[int] = []
    for i in range(2, SIEVE_BOUND + 1):
        if phi[i] == 0:
            primes.append(i)
            phi[i] = i - 1
        for p in primes:
            ip = i * p
            if ip > SIEVE_BOUND:
                break
            if i % p == 0:
                phi[ip] = phi[i] * p
                break
            phi[ip] = phi[i] * (p - 1)
    rendered = 0
    for x in range(1, RENDER_ROWS + 1):
        rendered += len(f"{x * x + 7},{2 * x * x + x},{x**7 % 1000003}")
    return sum(phi) + 1 + rendered  # phi[1] is left 0 above


class Calibrator:
    """Runs the kernel for `share` of the time reported to `after`."""

    def __init__(self, share: float) -> None:
        self.share = share
        self.debt = 0.0
        self.samples: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        got = kernel()
        self.samples.append(time.perf_counter() - t0)
        if got != CHECKSUM:
            raise RuntimeError(f"calibration kernel returned {got}, not {CHECKSUM}")

    def after(self, busy_s: float) -> None:
        """Account for `busy_s` of measured work, sampling until the share is paid."""
        self.debt += self.share * busy_s
        while self.debt > 0:
            self.sample()
            self.debt -= self.samples[-1]

    def scale(self, since: int = 0) -> float:
        """REFERENCE_S over the mean of the samples from index `since` on."""
        taken = self.samples[since:]
        return REFERENCE_S * len(taken) / sum(taken)
