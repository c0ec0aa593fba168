"""Exact Taylor coefficients for the near-equal-argument regime.

Several ratios handled by this package reduce to 0/0 as their argument
approaches 1, and their floating-point formulas cancel catastrophically there.
The fix is a Taylor branch in s = y - 1.  _build() generates every
expansion with Fraction arithmetic from the defining elementary series
(log1p and geometric series only) and rounds it to floats; the tables below
are its output frozen as literals, so importing the module builds nothing
and loads no fractions module.
A test rebuilds them and compares them bit for bit, so every coefficient
stays reproducible from the formulas in this file.

Conventions: a series is a list of coefficients indexed by power, truncated
at ORDER.  Products are truncated Cauchy products; division is the standard
power-series long division after cancelling the shared leading zero block,
so its operands are built past ORDER by the length of that block.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from fractions import Fraction

ORDER = 40
# The threshold-ratio division cancels a shared s^4 factor, so its operands
# are built this many terms past ORDER for the quotient to be exact there.
_DIV_SHIFT = 4


def _mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    from fractions import Fraction

    n = len(a)
    out = [Fraction(0)] * n
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j in range(0, n - i):
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


def _div(num: list[Fraction], den: list[Fraction],
         order: int) -> list[Fraction]:
    """Power-series division through s^order: shared leading zeros cancel
    exactly, so the operands must run that many terms past s^order."""
    from fractions import Fraction

    shift = next(i for i, c in enumerate(den) if c)
    if any(num[:shift]):
        raise ValueError("numerator must vanish at least as fast as denominator")
    if min(len(num), len(den)) < order + 1 + shift:
        raise ValueError("operands too short for the quotient order")
    n = num[shift:]
    d = den[shift:]
    q = [Fraction(0)] * (order + 1)
    for k in range(order + 1):
        acc = n[k]
        for j in range(k):
            acc -= q[j] * d[k - j]
        q[k] = acc / d[0]
    return q


def _build(order: int = ORDER) -> dict[str, tuple[float, ...]]:
    from fractions import Fraction

    length = order + 1 + _DIV_SHIFT
    zero = [Fraction(0)] * length
    s = [*zero]
    s[1] = Fraction(1)
    y = [*zero]
    y[0] = Fraction(1)
    y[1] = Fraction(1)
    # w = log1p(s), inv_y = 1/(1+s), half = s/(2+s)
    w = [Fraction(0)] + [Fraction((-1) ** (k + 1), k) for k in range(1, length)]
    inv_y = [Fraction((-1) ** k) for k in range(length)]
    half = [Fraction(0)] + [Fraction((-1) ** (k + 1), 2 ** k) for k in range(1, length)]

    omega = _sub(s, w)                # y - ln y - 1
    xlx = _sub(_mul(y, w), s)         # y ln y - y + 1
    f_top = _sub(_mul(y, _mul(w, w)), _mul(s, s))   # y ln^2 y - (y-1)^2
    g_top = _mul(omega, xlx)          # y^2 * (product form of the denominator)

    # Excess of the threshold ratio over its limit -1/3:
    #   f_top/g_top + 1/3 = (3 f_top + g_top) / (3 g_top).
    lam_excess = _div(_add(_scale(f_top, 3), g_top), _scale(g_top, 3), order)

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
        "CHAIN1_NUM": tuple(float(c) for c in chain1_num[:order + 1]),
        "CHAIN2_NUM": tuple(float(c) for c in chain2_num[:order + 1]),
    }


# Coefficients of (lambda(1+s) + 1/3) = sum_{k>=2} c_k s^k.
LAMBDA_EXCESS: tuple[float, ...] = (
    0.0, 0.0, 0.007407407407407408, -0.007407407407407408,
    0.006643151087595532, -0.005878894767783657, 0.005223724606440655,
    -0.0046776406035665295, 0.004222531672463085, -0.003840286726432131,
    0.003516075679432746, -0.0032383494460812815, 0.002998210881938561,
    -0.0027887857237970824, 0.002604719031956459, -0.0024417971344871006,
    0.0022966692871258833, -0.0021666432624475557, 0.002049534501537679,
    -0.0019435538809749657, 0.001847223407815056, -0.001759312255454139,
    0.0016787877455444464, -0.0016047774173397686, 0.0015365394024329944,
    -0.0014734390809347025, 0.0014149305328042786, -0.0013605416825887226,
    0.0013098623133235416, -0.001262534327430949, 0.0012182437809431488,
    -0.0011767143274594846, 0.0011377017905515316, -0.0011009896453761233,
    0.0010663852373999066, -0.0010337166022309338, 0.0010028297783837474,
    -0.0009735865264135168, 0.0009458623847435979, -0.0009195450057935687,
    0.0008945327265240564,
)
# Coefficients of 3*f1 + g1 (leading term s^5/30).
CHAIN1_NUM: tuple[float, ...] = (
    0.0, 0.0, 0.0, 0.0, 0.0, 0.03333333333333333, -0.08333333333333333,
    0.14047619047619048, -0.2, 0.25952380952380955, -0.31785714285714284,
    0.37442279942279943, -0.42896825396825394, 0.4814158064158064,
    -0.5317821067821068, 0.5801337551337551, -0.6265623265623266,
    0.6711701696995814, -0.7140623265623266, 0.7553419963249685,
    -0.7951080781963135, 0.8334539428579676, -0.8704669298709546,
    0.9062282699801208, -0.940813250217275, 0.9742915110868402,
    -1.0067274085227376, 1.038180399975729, -1.0687054305007597,
    1.0983533049762202, -1.127171038966368, 1.1552021846838318,
    -1.182487130920391, 1.209063377254702, -1.2349657836718142,
    1.2602267971681218, -1.2848766571120995, 1.3089435811790235,
    -1.3324539336367445, 1.3554323776678199, -1.3779020132953503,
)
# Coefficients of 3*f2 + g2 (leading term s^3/12).
CHAIN2_NUM: tuple[float, ...] = (
    0.0, 0.0, 0.0, 0.08333333333333333, -0.125, 0.1375,
    -0.13541666666666666, 0.12723214285714285, -0.1171875,
    0.1072048611111111, -0.098046875, 0.08993252840909091,
    -0.08284505208333333, 0.07667893629807693, -0.07130650111607142,
    0.06660563151041667, -0.062469482421875, 0.058808270622702205,
    -0.0555479261610243, 0.05262776425010279, -0.04999809265136719,
    0.04761809394473121, -0.04545406861738725, 0.043478022450986115,
    -0.041666547457377114, 0.039999940395355225, -0.038461508659216076,
    0.03703702213587584, -0.035714278263705115, 0.034482754895399356,
    -0.033333331470688184, 0.03225806358480646, -0.031249999534338713,
    0.03030303007019966, -0.02941176458946703, 0.02857142851322091,
    -0.027777777748673946, 0.027027027012475113, -0.02631578946640825,
    0.02564102563738766, -0.024999999998181012,
)


def eval_series(coeffs: tuple[float, ...], s: float) -> float:
    """Horner evaluation of a frozen coefficient table at s."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * s + c
    return acc
