"""Exact Taylor coefficients for the near-equal-argument regime.

Several ratios handled by this package reduce to 0/0 as their argument
approaches 1, and their floating-point formulas cancel catastrophically there.
The fix is a Taylor branch in s = y - 1.  All expansions below are generated
at import time with Fraction arithmetic from the defining elementary series
(log1p and geometric series only), then frozen to floats, so every
coefficient is reproducible from the formulas in this file rather than pasted
in as opaque decimals.

Conventions: a series is a list of coefficients indexed by power, truncated
at ORDER.  Products are truncated Cauchy products; division is the standard
power-series long division after cancelling the shared leading zero block.
"""
from __future__ import annotations

from fractions import Fraction

ORDER = 40


def _mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (ORDER + 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j in range(0, ORDER + 1 - i):
            bj = b[j]
            if bj:
                out[i + j] += ai * bj
    return out


def _add(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    return [x + y for x, y in zip(a, b)]


def _sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    return [x - y for x, y in zip(a, b)]


def _scale(a: list[Fraction], k: int) -> list[Fraction]:
    return [x * k for x in a]


def _div(num: list[Fraction], den: list[Fraction]) -> list[Fraction]:
    """Power-series division: shared leading zeros cancel exactly."""
    shift = next(i for i, c in enumerate(den) if c)
    if any(num[:shift]):
        raise ValueError("numerator must vanish at least as fast as denominator")
    n = [*num[shift:]] + [Fraction(0)] * shift
    d = [*den[shift:]] + [Fraction(0)] * shift
    q = [Fraction(0)] * (ORDER + 1)
    for k in range(ORDER + 1):
        acc = n[k]
        for j in range(k):
            acc -= q[j] * d[k - j]
        q[k] = acc / d[0]
    return q


def _build() -> dict[str, tuple[float, ...]]:
    zero = [Fraction(0)] * (ORDER + 1)
    s = [*zero]
    s[1] = Fraction(1)
    y = [*zero]
    y[0] = Fraction(1)
    y[1] = Fraction(1)
    # w = log1p(s), inv_y = 1/(1+s), half = s/(2+s)
    w = [Fraction(0)] + [Fraction((-1) ** (k + 1), k) for k in range(1, ORDER + 1)]
    inv_y = [Fraction((-1) ** k) for k in range(ORDER + 1)]
    half = [Fraction(0)] + [Fraction((-1) ** (k + 1), 2 ** k) for k in range(1, ORDER + 1)]

    omega = _sub(s, w)                # y - ln y - 1
    xlx = _sub(_mul(y, w), s)         # y ln y - y + 1
    f_top = _sub(_mul(y, _mul(w, w)), _mul(s, s))   # y ln^2 y - (y-1)^2
    g_top = _mul(omega, xlx)          # y^2 * (product form of the denominator)

    # Excess of the threshold ratio over its limit -1/3:
    #   f_top/g_top + 1/3 = (3 f_top + g_top) / (3 g_top).
    lam_excess = _div(_add(_scale(f_top, 3), g_top), _scale(g_top, 3))

    # First reduction stage: f1 = 1/y - y + 2 ln y, g1 = s^2 ln y / y.
    f1 = _add(_sub(inv_y, y), _scale(w, 2))
    g1 = _mul(_mul(s, s), _mul(w, inv_y))
    chain1_num = _add(_scale(f1, 3), g1)            # 3 f1 + g1, starts at s^5

    # Second reduction stage: f2 = -s/(2+s), g2 = ln y + s/(2+s).
    f2 = [-c for c in half]
    g2 = _add(w, half)
    chain2_num = _add(_scale(f2, 3), g2)            # 3 f2 + g2, starts at s^3

    return {
        "LAMBDA_EXCESS": tuple(float(c) for c in lam_excess),
        "CHAIN1_NUM": tuple(float(c) for c in chain1_num),
        "CHAIN2_NUM": tuple(float(c) for c in chain2_num),
    }


_TABLES = _build()

# Coefficients of (lambda(1+s) + 1/3) = sum_{k>=2} c_k s^k.
LAMBDA_EXCESS: tuple[float, ...] = _TABLES["LAMBDA_EXCESS"]
# Coefficients of 3*f1 + g1 (leading term s^5/30).
CHAIN1_NUM: tuple[float, ...] = _TABLES["CHAIN1_NUM"]
# Coefficients of 3*f2 + g2 (leading term s^3/12).
CHAIN2_NUM: tuple[float, ...] = _TABLES["CHAIN2_NUM"]


def eval_series(coeffs: tuple[float, ...], s: float) -> float:
    """Horner evaluation of a frozen coefficient table at s."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * s + c
    return acc
