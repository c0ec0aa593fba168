"""The witness formula against the true tail probability, and its reach.

find_witness places its triple at the plateau edge -c, the valley
a* = (8/135)/(c + 1/3) of the tail's large-shape expansion and 8 a*.  These
tests check that the dip is real on 40-digit values across the band, and pin
how close to -1/3 the double-precision kernels still certify it.
"""

from __future__ import annotations

import math
import random

import pytest

from gammatail import ConvergenceError, WitnessSearchError, find_witness


def _log_strata(rng: random.Random, n: int, lo: float, hi: float
                ) -> list[float]:
    """One seeded draw in each of n equal log steps of [lo, hi)."""
    step = (math.log(hi) - math.log(lo)) / n
    return [math.exp(math.log(lo) + step * (k + rng.random()))
            for k in range(n)]


def _band_offsets() -> list[float]:
    """40 offsets log-spaced in c + 1/3 over [4e-7, 1/3), and 10 log-spaced
    in -c over [1e-300, 0.1)."""
    rng = random.Random(20201)
    near_edge = [d - 1.0 / 3.0 for d in _log_strata(rng, 40, 4e-7, 1.0 / 3.0)]
    near_zero = [-x for x in _log_strata(rng, 10, 1e-300, 0.1)]
    return [c for c in near_edge + near_zero if -1.0 / 3.0 < c < 0.0]


def test_witness_dips_on_mpmath_values_across_the_band():
    mpmath = pytest.importorskip("mpmath")
    offsets = _band_offsets()
    assert len(offsets) == 50
    refuted = []
    with mpmath.workdps(40):
        for c in offsets:
            w = find_witness(c)
            p1, p2, p3 = (
                mpmath.gammainc(a, mpmath.mpf(a) + mpmath.mpf(c), mpmath.inf,
                                regularized=True)
                if a + c > 0.0 else mpmath.mpf(1)
                for a in (w.a1, w.a2, w.a3))
            if not p1 > p2 < p3:
                refuted.append(c)
    assert refuted == []


def test_witness_reaches_minus_0_333333():
    w = find_witness(-0.333333)
    assert w.a1 == 0.333333 and w.p1 == 1.0
    assert w.p2 < w.p3 < 0.5


@pytest.mark.parametrize("c", [-0.3333332, -0.3333333])
def test_witness_margins_fail_closer_to_minus_one_third(c):
    with pytest.raises(WitnessSearchError, match=f"for c={c!r}$"):
        find_witness(c)


def test_witness_next_to_minus_one_third_is_beyond_the_kernels():
    # The valley lies near a = 1.06e15, where the ascending series runs out
    # of iterations: the kernel's own error, not a witness failure.
    with pytest.raises(ConvergenceError):
        find_witness(math.nextafter(-1.0 / 3.0, 0.0))
