"""Speed probe that tracks a shared CPU while the measured work runs.

On a shared machine the speed of one core swings by up to 2x within
seconds, because other tenants compete for it.  Every process the benchmark
times therefore runs a Sampler: a wall-clock timer interrupts the process
every 20 ms, warms the probe kernel up with a short untimed run, then times
one run of it (about 0.16 ms).  A measured interval is scaled by
REF_NS / (mean probe time over it), so it reads as the time at a fixed
reference speed.  Probe time spent inside a measured interval is subtracted
from it first.  Timing the kernel cold, straight after the interrupt,
tracked the swings three times worse.

The kernel mixes the same kinds of work as gammatail's pure-Python layers:
scalar float loops shaped like a continued fraction and a power series,
math-module calls, frozen-record construction, dict and tuple handling.
A kernel of plain float arithmetic tracked the swings only half as well.
It never changes: a change here changes every reported time.  It imports
nothing that gammatail imports, so loading it first leaves the import cost
that setup_s measures untouched.
"""
from __future__ import annotations

import bisect
import math
import signal
import time

# Probe time at the reference speed, about this machine class's speed when
# no other tenant is busy.
REF_NS = 160_000
INTERVAL_S = 0.02


class _Rec:
    """Built like a frozen dataclass instance (object.__setattr__)."""

    __slots__ = ("value", "err", "tag")

    def __init__(self, value: float, err: float, tag: str) -> None:
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "err", err)
        object.__setattr__(self, "tag", tag)


def _fraction(a: float, x: float) -> tuple[float, int]:
    b = x + 1.0 - a
    c = 1e300
    d = 1.0 / b
    h = d
    n = 1
    while n < 500:
        an = n * (a - n)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= 2.2e-16:
            break
        n += 1
    return h, n


def _series(a: float, x: float) -> tuple[float, int]:
    term = 1.0
    total = 1.0
    n = 1
    while n < 500:
        term *= x / (a + n)
        total += term
        if term <= 5e-17 * total:
            break
        n += 1
    return total, n


def _point(a: float, x: float) -> _Rec:
    if x >= a + 1.0:
        h, n = _fraction(a, x)
        tag = "fraction"
    else:
        h, n = _series(a, x)
        tag = "series"
    value = math.exp(a * math.log(x) - x - math.lgamma(a)) * h
    return _Rec(value=value, err=n * 2.2e-16, tag=tag)


def _kernel(n_points: int) -> float:
    points = {}
    for i in range(n_points):
        a = 0.5 + 0.37 * i
        rec = _point(a, a + (-1.0) ** i * 0.3 * (i % 7))
        points[a] = (rec.value, rec.err)
    return sorted(points.items())[0][1][0]


class Sampler:
    """Times the probe kernel every INTERVAL_S of wall time, from a SIGALRM
    handler, while started.  Main thread of a single process only."""

    def __init__(self) -> None:
        self.starts: list[int] = []
        self.spent: list[int] = []       # whole handler, for subtraction
        self.durations: list[int] = []   # timed kernel run

    def _probe(self, signum, frame) -> None:
        t_start = time.perf_counter_ns()
        _kernel(12)
        t0 = time.perf_counter_ns()
        _kernel(30)
        t1 = time.perf_counter_ns()
        self.starts.append(t_start)
        self.spent.append(t1 - t_start)
        self.durations.append(t1 - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mean_ns(self) -> float:
        if not self.durations:
            return REF_NS
        return sum(self.durations) / len(self.durations)

    def scaled(self, t0: int, t1: int, pad_ns: int = 40_000_000) -> float:
        """Interval [t0, t1] minus the probes inside it, at the reference
        speed measured by the probes within pad_ns of it."""
        lo = bisect.bisect_left(self.starts, t0 - pad_ns)
        hi = bisect.bisect_right(self.starts, t1 + pad_ns)
        inside = sum(d for s, d in zip(self.starts[lo:hi], self.spent[lo:hi])
                     if t0 <= s <= t1)
        around = self.durations[lo:hi]
        mean = sum(around) / len(around) if around else self.mean_ns()
        return (t1 - t0 - inside) * REF_NS / mean
