"""The blocked ascending series against a plain checked loop.

specfun._lower_series_run takes eight steps per pass and tests only the
eighth, replaying a block whose eighth step stops.  It is compared here,
bit for bit through float.hex, with a reference loop that tests every step:
the stop at every offset inside a block, a resume from an iteration that is
not a multiple of eight, the iteration cap, and a few thousand seeded
points over the series' domain.

The module imports the standard library and gammatail.specfun alone, so it
also runs as a script where pytest is not installed:

    PYTHONPATH=src python3 tests/test_kernel_blocks.py
"""

from __future__ import annotations

import math
import random
from contextlib import contextmanager

from gammatail import specfun
from gammatail.errors import ConvergenceError
from gammatail.specfun import EPS, _LOWER_SERIES_START, _lower_series_run


def _reference_lower_series(a, x, n, term, total):
    """The ascending-series loop with its stop test at every step."""
    while n < specfun._KERNEL_MAX_ITER:
        n += 1
        term *= x / (a + n)
        total += term
        if term <= 0.25 * EPS * total:
            return n, term, total
    raise specfun._not_converged(
        f"ascending series for Q(a={a!r}, x={x!r})",
        specfun._KERNEL_MAX_ITER)


def _outcome(run, *args):
    """The stop state in hex, or the error a loop raised."""
    try:
        n, *state = run(*args)
    except ConvergenceError as exc:
        return "raised", str(exc), exc.n_iter
    return n, tuple(v.hex() for v in state)


def _same(run, reference, *args):
    got, want = _outcome(run, *args), _outcome(reference, *args)
    assert got == want, (args, got, want)
    return got


@contextmanager
def _kernel_cap(cap):
    saved = specfun._KERNEL_MAX_ITER
    specfun._KERNEL_MAX_ITER = cap
    try:
        yield
    finally:
        specfun._KERNEL_MAX_ITER = saved


def _series_points(rng, count, a_max):
    """(a, x) with a in [0.5, a_max] and x < a + 1, x mostly within a few
    standard deviations below the mean, as the tail layer asks."""
    points = []
    while len(points) < count:
        a = math.exp(rng.uniform(math.log(0.5), math.log(a_max)))
        x = a + rng.uniform(-4.0, 1.0) * math.sqrt(a)
        if 0.0 < x < a + 1.0:
            points.append((a, x))
    return points


def test_series_stops_at_every_offset_inside_a_block():
    offsets = set()
    for a in (10.0, 20.0, 30.0):
        for i in range(60):
            x = a + 1.0 - (i + 1) * a / 60.0
            n, _ = _same(_lower_series_run, _reference_lower_series,
                         a, x, 0, *_LOWER_SERIES_START)
            offsets.add((n - 1) % 8 + 1)
    assert offsets == set(range(1, 9))


def test_series_resumes_from_an_iteration_off_the_block_grid():
    # Each reference state at n0 is what a caller resuming there holds, for
    # example a batched lane handed back to its scalar loop.
    for a, x in ((20.0, 18.9), (1e4, 1e4 - 30.0), (3.7e6, 3.7e6 + 0.5)):
        for n0 in (1, 3, 5, 13, 22, 39):
            term, total = _LOWER_SERIES_START
            for n in range(1, n0 + 1):
                term *= x / (a + n)
                total += term
            _same(_lower_series_run, _reference_lower_series,
                  a, x, n0, term, total)


def test_series_raises_at_the_same_iteration_cap():
    # The series stops at n = 46 and 48 at these points: caps below the
    # stop raise with the same message and n_iter, caps at or above it stop
    # at the same state.
    outcomes = set()
    for cap in (44, 45, 47, 48, 49):
        with _kernel_cap(cap):
            for x in (18.9, 20.0):
                got = _same(_lower_series_run, _reference_lower_series,
                            20.0, x, 0, *_LOWER_SERIES_START)
                outcomes.add(got[0] == "raised")
                if got[0] == "raised":
                    assert got[2] == cap
    assert outcomes == {True, False}


def test_series_is_bitwise_the_checked_loop_on_seeded_points():
    # Up to 1.6e8 the series takes up to about 75,000 steps, so the large
    # shapes get fewer points.
    rng = random.Random(20261)
    for a, x in (_series_points(rng, 2000, 1e5)
                 + _series_points(rng, 24, 1.6e8)):
        _same(_lower_series_run, _reference_lower_series,
              a, x, 0, *_LOWER_SERIES_START)


if __name__ == "__main__":
    for _name, _test in list(globals().items()):
        if _name.startswith("test_"):
            _test()
            print("ok", _name)
