"""Certification engine for the tail-probability monotonicity trichotomy.

Everything here reduces a claimed analytic fact to finitely many certified
floating-point sign checks.  The margin discipline is uniform: a difference
counts as a certified sign only when it exceeds the strict margin
(``STRICT_MARGIN`` = 8, a constant) times the combined evaluation error bound
of its two endpoints.  Anything smaller is reported inconclusive rather than
rounded up to a verdict, because strict monotonicity cannot be proven
numerically without a margin.

Contents:

* ``certify_monotone`` — scans ``a -> P(X_a - a > c)`` on a grid and returns
  a direction verdict (increasing / decreasing / non-monotone with witness /
  inconclusive with the first uncertified grid interval).  For c in
  (-1/3, 0) with the valley inside the scan range, a certified formula
  triple (below) settles the verdict first; otherwise, and whenever the
  triple's margins fail, one ``tail_prob_many`` call over the grid does.
* ``find_witness`` — constructive non-monotonicity: for c in (-1/3, 0)
  certifies p(a1) > p(a2) < p(a3) at the plateau edge a1 = -c, the valley
  a2 = (8/135)/(c + 1/3) of the tail's large-shape expansion and a3 = 8 a2,
  three scalar evaluations.  Both engines place the triple with one helper,
  which certifies it by the rule a scan applies to its grid's points.
* ``check_threshold_chain`` — certifies that each stage of the derivative
  ratio chain behind the -1/3 threshold is increasing on (1, oo) and that
  all stages share the limit -1/3 at 1+.
* ``check_mean_chain`` — certifies sqrt(xy) < L < refined mean < (x+y)/2 and
  probes optimality of the 1/3 factor inside the refined mean.
* ``check_asymptotic_slope`` — verifies that the integrated tail defect
  behaves like (c + 1/3) * eps + O(eps^2) for small eps, the quantitative
  form of "eventually increasing" for c in (-1/3, 0).
"""
from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

import numpy as np

from ._dd import central_difference, mean_gaps
from ._lanes import _expm1, _log1p, _log1pmx_vec, _ordered_extreme
from ._series import CHAIN1_NUM, CHAIN2_NUM, eval_series
from .errors import CertificationError, DomainError, WitnessSearchError
from .quadrature import integrate
from .specfun import (EPS, ONE_THIRD, STRICT_MARGIN, _THRESHOLD_Y_MAX,
                      _checked_make, _mean_scale, _threshold_forms,
                      log_mean)
from .tailprob import (ScanSpec, TailQuery, tail_prob_detail,
                       tail_prob_many)

_VALLEY = 8.0 / 135.0   # (c + 1/3) a* at the valley of Choi's median expansion
# Taylor window for the reduction-stage excess forms; beyond it the direct
# formulas lose at most ~1e-11 relative accuracy, reflected in the bounds.
_CHAIN_SERIES_MAX = 0.5
_CHAIN_SERIES_RERR = 2e-14
_CHAIN_DIRECT_RERR = 1e-10
# Pairs closer than this relative spread get extended-precision mean gaps.
_MEAN_EXTENDED_MAX = 0.02
_PROBE_FACTOR = 0.332               # the optimality probe's weakened 1/3
_DEFECT_REL_TOL = 1e-12
# The eps at which check_asymptotic_slope takes the integrated defect, in
# increasing order.
_SLOPE_EPS = (0.0025, 0.005, 0.01, 0.02)


# ---------------------------------------------------------------------------
# Types


class _WitnessFields(NamedTuple):
    a1: float
    a2: float
    a3: float
    p1: float
    p2: float
    p3: float


class Witness(_WitnessFields):
    """A certified non-monotonicity triple: p(a1) > p(a2) < p(a3)."""

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, a1, a2, a3, p1, p2, p3):
        if not (a1 < a2 < a3):
            raise DomainError("witness shapes must be strictly increasing")
        if not (p1 > p2 and p3 > p2):
            raise DomainError("witness probabilities must dip at a2")
        return super().__new__(cls, a1, a2, a3, p1, p2, p3)


class _MonotoneVerdictFields(NamedTuple):
    direction: str
    c: float
    scan: ScanSpec
    witness: Optional[Witness]
    margin_ratio: float
    interval: Optional[tuple[float, float]]
    detail: str


class MonotoneVerdict(_MonotoneVerdictFields):
    """Outcome of a monotonicity scan.

    margin_ratio is the smallest certified gap divided by its error bound
    (for inconclusive verdicts: the failing gap's ratio).  interval is the
    offending (a_lo, a_hi) pair when inconclusive, else None.
    """

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, direction, c, scan, witness, margin_ratio, interval,
                detail):
        if direction not in ("increasing", "decreasing", "non_monotone",
                             "inconclusive"):
            raise DomainError(f"unknown direction {direction!r}")
        if (direction == "non_monotone") != (witness is not None):
            raise DomainError(
                "a witness must be present exactly for non_monotone verdicts")
        return super().__new__(cls, direction, c, scan, witness, margin_ratio,
                               interval, detail)


# ---------------------------------------------------------------------------
# Monotonicity certification


def _classify(d, err_sum):
    """+1 / -1 for a certified strict sign, 0 for not-certifiable;
    elementwise when d and err_sum are arrays."""
    margin = STRICT_MARGIN * err_sum
    return 1 * (d > margin) - 1 * (d < -margin)


def certify_monotone(c: float, scan: ScanSpec) -> MonotoneVerdict:
    """Scan the tail probability over shapes and certify its direction.

    For c in (-1/3, 0) whose valley a* = (8/135)/(c + 1/3) lies strictly
    inside (a_min, a_max), the three shapes (a_min, a*, min(8 a*, a_max))
    come first: if they certify a dip, the verdict is non_monotone with
    that witness, and no grid is built (a dip inside the range is the
    verdict the grid reaches, or finds inside one of its intervals).

    Otherwise scan.grid() is built, raising DomainError for a range too
    narrow for its points, and evaluated in one tail_prob_many call.  A
    direction is certified only if every consecutive difference carries a
    certified strict sign and all signs agree.  Opposite certified signs yield a non_monotone verdict
    with a Witness.  A difference too small for its error bounds makes the
    verdict inconclusive, naming the first such grid interval: halves
    certifying one common sign would have certified the interval itself
    (their differences and margins add up).

    The scan must not start strictly inside the plateau: a_min >= -c is
    required when c < 0 (equality puts the first point on the plateau edge,
    where the probability is exactly 1).
    """
    c = float(c)
    if not math.isfinite(c):
        raise DomainError("c must be finite")
    if c < 0.0 and scan.a_min < -c:
        raise DomainError(
            "scan enters the plateau interior (a_min < -c) where the tail "
            "probability is identically 1; start the scan at -c or above")

    if -ONE_THIRD < c < 0.0:
        a, witness, w_ratio = _formula_dip(c, float(scan.a_min),
                                           float(scan.a_max))
        if witness is not None:
            return MonotoneVerdict(
                direction="non_monotone", c=c, scan=scan, witness=witness,
                margin_ratio=w_ratio, interval=None,
                detail=f"certified dip at three points a={a!r}, placed by "
                       "the valley formula (8/135)/(c + 1/3)")
    grid = scan.grid()
    p, e = tail_prob_many(grid, c)
    d = p[1:] - p[:-1]
    err_sum = e[:-1] + e[1:]
    sign = _classify(d, err_sum)
    ratio = np.abs(d) / np.maximum(err_sum, 5e-324)
    # Certified sign -> smallest ratio among its intervals.
    ratios = {s: float(np.min(ratio[sign == s]))
              for s in (1, -1) if np.any(sign == s)}
    unresolved = np.flatnonzero(sign == 0)

    if len(ratios) == 2:
        witness, w_ratio = _witness_from_points(grid, p.tolist(), e.tolist())
        if witness is None:
            lo, hi = ((unresolved[0], unresolved[0] + 1) if unresolved.size
                      else (0, -1))
            return MonotoneVerdict(
                direction="inconclusive", c=c, scan=scan, witness=None,
                margin_ratio=0.0, interval=(grid[lo], grid[hi]),
                detail="opposite certified signs found but no witness triple "
                       "met the margin discipline")
        return MonotoneVerdict(
            direction="non_monotone", c=c, scan=scan, witness=witness,
            margin_ratio=w_ratio, interval=None,
            detail=f"certified decrease and increase on the scan "
                   f"({scan.n} grid points)")
    if unresolved.size:
        k = unresolved[0]
        a_lo, a_hi = grid[k], grid[k + 1]
        return MonotoneVerdict(
            direction="inconclusive", c=c, scan=scan, witness=None,
            margin_ratio=float(ratio[k]), interval=(a_lo, a_hi),
            detail=f"difference {float(d[k])!r} on [{a_lo!r}, {a_hi!r}] is "
                   "below the certification margin")
    # Every interval certified one sign.
    s, word, direction = ((1, "positive", "increasing") if 1 in ratios
                          else (-1, "negative", "decreasing"))
    return MonotoneVerdict(
        direction=direction, c=c, scan=scan, witness=None,
        margin_ratio=ratios[s], interval=None,
        detail=f"all {scan.n - 1} consecutive differences certified {word}")


def _witness_from_points(a: Sequence[float], p: Sequence[float],
                         e: Sequence[float]
                         ) -> tuple[Optional[Witness], float]:
    """Best dip triple from evaluated points, given as sequences sorted by
    shape without repeats, or None if margins fail.  Ties go to the
    leftmost point: min and max with a key return the first extreme."""
    j = min(range(len(p)), key=p.__getitem__)
    if j == 0 or j == len(p) - 1:
        return None, 0.0
    i = max(range(j), key=p.__getitem__)
    k = max(range(j + 1, len(p)), key=p.__getitem__)
    (a1, a2, a3), (p1, p2, p3), (e1, e2, e3) = (
        (x[i], x[j], x[k]) for x in (a, p, e))
    left_gap = p1 - p2
    right_gap = p3 - p2
    left_err = e1 + e2
    right_err = e3 + e2
    if not (left_gap > STRICT_MARGIN * left_err
            and right_gap > STRICT_MARGIN * right_err):
        return None, 0.0
    ratio = min(left_gap / max(left_err, 5e-324),
                right_gap / max(right_err, 5e-324))
    witness = Witness(a1=a1, a2=a2, a3=a3, p1=p1, p2=p2, p3=p3)
    return witness, ratio


# ---------------------------------------------------------------------------
# Witness by formula


def _formula_dip(c: float, a_min: float, a_max: float = math.inf
                 ) -> tuple[tuple[float, float, float], Optional[Witness],
                            float]:
    """The triple a = (a_min, a*, min(8 a*, a_max)) for c in (-1/3, 0), with
    a* = (8/135)/(c + 1/3), and (a, witness, ratio) from three
    tail_prob_detail calls certified by _witness_from_points.  The witness
    is None if the margins fail, or, with no evaluation, unless
    a_min < a* < a_max."""
    a_star = _VALLEY / (c + ONE_THIRD)
    a = (a_min, a_star, min(8.0 * a_star, a_max))
    if not a_min < a_star < a_max:
        return a, None, 0.0
    points = [tail_prob_detail(TailQuery(x, c)) for x in a]
    return (a, *_witness_from_points(
        a, [t.value for t in points], [t.err_bound for t in points]))


def find_witness(c: float) -> Witness:
    """A certified dip triple for c strictly inside (-1/3, 0).

    The triple is (-c, a*, 8a*): the plateau edge, where the probability is
    exactly 1, the valley a* = (8/135)/(c + 1/3), and a shape past it on the
    way back up to 1/2.  Each is one tail_prob_detail call, and the triple is
    certified by _witness_from_points, the rule certify_monotone applies to
    its own points.  Margins that fail raise WitnessSearchError instead of
    returning an uncertified triple.
    """
    c = float(c)
    if not (-ONE_THIRD < c < 0.0):
        raise DomainError("witness search requires c strictly in (-1/3, 0)")
    # a* + c >= 2 sqrt(8/135) - 1/3 > 0.15 over the band: a* lies past -c.
    a, witness, _ = _formula_dip(c, -c)
    if witness is None:
        raise WitnessSearchError(
            f"no certified dip of the tail probability at a={a!r} "
            f"for c={c!r}")
    return witness


# ---------------------------------------------------------------------------
# Threshold-ratio reduction chain


class ThresholdChainReport(NamedTuple):
    """Certified monotonicity of the four threshold-ratio stages.

    Values are stored as excesses over the shared limit -1/3, which keeps
    them well conditioned near y = 1.  stage_names orders the stages from
    the original ratio down to the closed rational form; min_margin_ratios
    and monotone follow that order.  limit_excesses holds each stage's
    excess at the smallest grid point (all must vanish as y -> 1+).
    """

    stage_names: tuple[str, ...]
    n_points: int
    monotone: tuple[bool, ...]
    min_margin_ratios: tuple[float, ...]
    limit_excesses: tuple[float, ...]
    derivative_min: float
    derivative_fd_agreement: float
    certified: bool


def _ratio_excess(y: float, s: float) -> tuple[float, float]:
    """threshold_ratio(y) + 1/3 and its absolute error bound."""
    v, _, series = _threshold_forms(y)
    if series:
        return v, _CHAIN_SERIES_RERR * abs(v)
    return v, 4.0 * EPS * ONE_THIRD + 4.0 * EPS * abs(v)


def _reduction1_excess(y: float, s: float) -> tuple[float, float]:
    """Excess of the first reduced ratio (1/y - y + 2 ln y)/(s^2 ln(y)/y)."""
    w = math.log1p(s)
    den = 3.0 * s * s * w / y
    if s <= _CHAIN_SERIES_MAX:
        num = eval_series(CHAIN1_NUM, s)
        rerr = _CHAIN_SERIES_RERR
    else:
        num = 3.0 * (1.0 / y - y + 2.0 * w) + den / 3.0
        rerr = _CHAIN_DIRECT_RERR
    v = num / den
    return v, rerr * abs(v) + 4.0 * EPS * abs(v)


def _reduction2_excess(y: float, s: float) -> tuple[float, float]:
    """Excess of the second reduced ratio (-s/(2+s))/(ln y + s/(2+s))."""
    w = math.log1p(s)
    half = s / (2.0 + s)
    den = 3.0 * (w + half)
    if s <= _CHAIN_SERIES_MAX:
        num = eval_series(CHAIN2_NUM, s)
        rerr = _CHAIN_SERIES_RERR
    else:
        num = w - 2.0 * half
        rerr = _CHAIN_DIRECT_RERR
    v = num / den
    return v, rerr * abs(v) + 4.0 * EPS * abs(v)


def _rational_excess(y: float, s: float) -> tuple[float, float]:
    """Excess of -2y/(1 + 4y + y^2): exactly s^2/(3(6 + 6s + s^2))."""
    v = s * s / (3.0 * (6.0 + s * (6.0 + s)))
    return v, 4.0 * EPS * abs(v)


def rational_stage(y: float) -> float:
    """The closed rational end of the chain, -2y/(1 + 4y + y^2), for
    1 <= y <= 1e75, as -2/(6 + (y - 1)^2/y): unlike its excess minus 1/3,
    this neither cancels as it falls toward 0 nor drops below -1/3."""
    if not 1.0 <= y <= _THRESHOLD_Y_MAX:
        raise DomainError("rational_stage requires 1 <= y <= 1e75")
    s = y - 1.0
    return -2.0 / (6.0 + s * s / y)


def rational_stage_deriv(y: float) -> float:
    """Its derivative 2(y^2 - 1)/(1 + 4y + y^2)^2 for 1 <= y <= 1e75,
    positive for y > 1."""
    if not 1.0 <= y <= _THRESHOLD_Y_MAX:
        raise DomainError("rational_stage_deriv requires 1 <= y <= 1e75")
    den = 1.0 + y * (4.0 + y)
    # (y - 1)(y + 1), not y*y - 1, which cancels near y = 1.
    return 2.0 * ((y - 1.0) * (y + 1.0)) / (den * den)


_CHAIN_STAGES = (
    ("ratio", _ratio_excess),
    ("reduction1", _reduction1_excess),
    ("reduction2", _reduction2_excess),
    ("rational", _rational_excess),
)


def check_threshold_chain(y_grid: Sequence[float]) -> ThresholdChainReport:
    """Certify that every reduction stage increases along y_grid.

    The grid must lie in (1, 1e75] and be strictly increasing.
    A certified *reversal* at any stage contradicts the underlying lemma and
    raises CertificationError; differences merely too small for their error
    bounds leave the report uncertified without raising.
    """
    ys = [float(y) for y in y_grid]
    if not ys or any(not 1.0 < y <= _THRESHOLD_Y_MAX for y in ys):
        raise DomainError("y_grid must lie in (1, 1e75]")
    if len(ys) < 2:
        raise DomainError("y_grid needs at least two points to order")
    if any(b <= a for a, b in zip(ys, ys[1:])):
        raise DomainError("y_grid must be strictly increasing")

    names = tuple(name for name, _ in _CHAIN_STAGES)
    monotone = []
    ratios = []
    limits = []
    for _name, stage in _CHAIN_STAGES:
        vals_errs = [stage(y, y - 1.0) for y in ys]
        limits.append(vals_errs[0][0])
        ok = True
        min_ratio = math.inf
        for (v0, e0), (v1, e1) in zip(vals_errs, vals_errs[1:]):
            d = v1 - v0
            err_sum = e0 + e1
            if d < -STRICT_MARGIN * err_sum:
                raise CertificationError(
                    f"stage {_name!r} certifiably decreases between grid "
                    f"points with values {v0!r} -> {v1!r}")
            if d > STRICT_MARGIN * err_sum:
                min_ratio = min(min_ratio, d / max(err_sum, 5e-324))
            else:
                ok = False
        monotone.append(ok)
        ratios.append(min_ratio)

    deriv_vals = [rational_stage_deriv(y) for y in ys]
    deriv_min = min(deriv_vals)
    # Spot-check the closed derivative against finite differences at fixed
    # moderate arguments, where a double-precision difference quotient is
    # well conditioned (near y=1 the derivative itself vanishes like y-1 and
    # at huge y the stage flattens; both regimes are covered by the
    # monotonicity margins instead).
    fd_worst = 0.0
    for y in (2.0, 5.0, 10.0, 100.0):
        fd, _fd_err = central_difference(rational_stage, y, 1e-3 * y)
        exact = rational_stage_deriv(y)
        fd_worst = max(fd_worst, abs(fd - exact) / max(abs(exact), 1e-300))
    certified = all(monotone) and deriv_min > 0.0 and fd_worst < 1e-6
    return ThresholdChainReport(
        stage_names=names, n_points=len(ys), monotone=tuple(monotone),
        min_margin_ratios=tuple(ratios), limit_excesses=tuple(limits),
        derivative_min=deriv_min, derivative_fd_agreement=fd_worst,
        certified=certified)


# ---------------------------------------------------------------------------
# Mean-inequality chain


class MeanChainEntry(NamedTuple):
    """One certified instance of sqrt(xy) < L < refined < (x+y)/2; each gap
    is checked against its own bound, and err_bound is the largest."""

    x: float
    y: float
    geometric: float
    logarithmic: float
    refined: float
    arithmetic: float
    gap_log_vs_geo: float
    gap_refined_vs_log: float
    gap_arith_vs_refined: float
    err_bound: float
    extended: bool
    chain_ok: bool


class _MeanChainReportFields(NamedTuple):
    certified: bool
    min_margin_ratio: float
    probe_violation_found: bool
    probe_spread: float
    probe_gap: float
    columns: tuple[np.ndarray, ...]


class MeanChainReport(_MeanChainReportFields):
    """The mean-chain verdict over a list of pairs.

    The per-pair results are kept as read-only numpy columns, one per
    MeanChainEntry field in field order; entries builds the MeanChainEntry
    records from them on first access.  Two reports are equal when their
    summary fields and their entries are; the repr shows the summary
    fields alone.
    """

    @cached_property
    def entries(self) -> tuple[MeanChainEntry, ...]:
        return tuple(map(MeanChainEntry, *(c.tolist() for c in self.columns)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MeanChainReport):
            return NotImplemented
        return (*self[:-1], self.entries) == (*other[:-1], other.entries)

    def __ne__(self, other: object) -> bool:    # tuple's would see columns
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}"
                          for name, value in zip(self._fields[:-1], self))
        return f"MeanChainReport({shown})"


def check_mean_chain(pairs: Sequence[tuple[float, float]]) -> MeanChainReport:
    """Certify the mean chain on each pair and probe the 1/3 factor.

    All pairs are evaluated together, as numpy columns with the scalar
    formulas' operations (log1p stays one math.log1p call per pair).  Pairs
    with relative spread below 2% take their gaps from the extended-
    precision gap routine instead (the refined-vs-logarithmic gap shrinks
    like the fourth power of the spread and cancels catastrophically in
    doubles), all of them in one lockstep call.  Those gaps are of squared
    means (L^2 - xy, ...); each is divided by its sum of means (L + sqrt(xy),
    ...) into the unit of the means, as the other pairs' gaps are, with the
    rounding of that quotient and of the sum charged to its bound.

    The optimality probe replaces the 1/3 factor inside the refined mean by
    0.332 and scans near-equal pairs for a certified reversal of L < refined
    mean; finding one shows the factor cannot be lowered.
    """
    if len(pairs) == 0:
        raise DomainError("check_mean_chain requires at least one pair")
    xy = np.array(pairs, dtype=float)
    if xy.ndim != 2 or xy.shape[1] != 2:
        raise DomainError("check_mean_chain takes a sequence of (x, y) pairs")
    x, y = xy[:, 0], xy[:, 1]
    # A pair near either end of the double range is evaluated centred on 1
    # by an exact power of two, then scaled back: the means, the gaps and
    # their bounds by 2^-k.
    k, fits = _mean_scale(x, y, np.frexp)
    if not np.all((0.0 < x) & (x < y) & np.isfinite(y) & fits):
        raise DomainError("mean chain pairs require 0 < x < y, finite, with "
                          "y/x below 2**1000")
    xs, ys = np.ldexp(x, k), np.ldexp(y, k)
    d = ys - xs
    extended = d / xs <= _MEAN_EXTENDED_MAX
    geo = np.sqrt(xs * ys)
    lm = d / _log1p(d / xs)
    ref = np.sqrt(xs * ys + (lm - xs) * (ys - lm) / 3.0)
    ari = 0.5 * (xs + ys)
    gaps = np.stack((lm - geo, ref - lm, ari - ref))
    errs = np.tile(32.0 * EPS * ari, (3, 1))
    ext = mean_gaps(xs[extended], ys[extended])
    # Each sum of means is within 6 units of rounding of its exact value, so
    # a quotient is within 7 of the exact gap's, and 8 eps (16 units) of it
    # covers both; (1 + 8 eps) covers the same on the squared gap's bound.
    sums = np.stack((lm + geo, ref + lm, ari + ref))[:, extended]
    ext_gaps = np.stack((ext.log_vs_geo, ext.refined_vs_log,
                         ext.arith_vs_refined)) / sums
    gaps[:, extended] = ext_gaps
    errs[:, extended] = (ext.err_bounds / sums * (1.0 + 8.0 * EPS)
                         + 8.0 * EPS * np.abs(ext_gaps))
    geo, lm, ref, ari = (np.ldexp(v, -k) for v in (geo, lm, ref, ari))
    with np.errstate(over="ignore"):
        gaps, errs = np.ldexp(gaps, -k), np.ldexp(errs, -k)
    if not np.all((errs >= 2.0 ** -1022) & np.isfinite(gaps)):
        raise DomainError("mean chain pairs need gaps and error bounds "
                          "inside the normal double range")
    chain_ok = np.all(gaps > STRICT_MARGIN * errs, axis=0)
    ratios = (gaps / errs).T
    err = errs.max(axis=0)
    # The builtin min over the ratios in pair order keeps the first of two
    # equal signed zeros; np.min may return either.
    min_ratio = _ordered_extreme(min, math.inf, ratios)
    columns = (x, y, geo, lm, ref, ari, *gaps, err, extended, chain_ok)
    for column in columns:
        column.flags.writeable = False

    # Optimality probe: with the weakened factor the refined mean must drop
    # below the logarithmic mean somewhere near the diagonal.  The violation
    # gap grows like (delta/8) * spread^2, macroscopic in doubles.
    probe_found = False
    probe_spread = 0.0
    probe_gap = 0.0
    for t in ScanSpec(1e-3, 0.09, 40).grid():
        x, y = 1.0, 1.0 + t
        lm = log_mean(x, y)
        weakened = math.sqrt(x * y + _PROBE_FACTOR * (lm - x) * (y - lm))
        gap = lm - weakened
        if gap > STRICT_MARGIN * 32.0 * EPS and gap > probe_gap:
            probe_found = True
            probe_spread = t
            probe_gap = gap
    certified = bool(chain_ok.all()) and probe_found
    return MeanChainReport(
        certified=certified, min_margin_ratio=min_ratio,
        probe_violation_found=probe_found, probe_spread=probe_spread,
        probe_gap=probe_gap, columns=columns)


# ---------------------------------------------------------------------------
# Small-eps slope of the integrated tail defect


class AsymptoticSlopeReport(NamedTuple):
    """Fit of the integrated defect T(eps) = 2*int_0^1 g(eps, z) dz.

    The defect must be certifiably positive with T(eps)/eps approaching
    c + 1/3 (the slope target); a quadratic least-squares fit over eps
    checks the slope to 2% and bounds the residual by a fitted curvature
    constant.
    """

    c: float
    slope_target: float
    eps: tuple[float, ...]
    totals: tuple[float, ...]
    quad_errs: tuple[float, ...]
    slope: float
    curvature: float
    positive_ok: bool
    slope_ok: bool
    residual_bound_ok: bool
    certified: bool


def integrated_defect(c: float, eps: float) -> tuple[float, float]:
    """T(eps) = 2 * int_0^1 [1 - (1-b*eps)(1-z*eps)^(1/eps-b-1) e^z] dz
    with b = c + 1, and its quadrature error bound.

    With w = -eps*z the exponent is
    log1p(-b*eps) - (b+1)*log1p(w) + (log1p(w) - w)/eps, each term O(eps):
    the O(1) terms of (1/eps - b - 1)*log1p(w) + z, which would cancel to
    O(eps), are taken together by _log1pmx_vec.  Requires 1e-100 <= eps < 1:
    below, the last term's leading -eps*z^2/2 heads for underflow (w^2
    leaves the normal range near eps = 1e-150) and T(eps)/eps would lose
    the 1/3 of its limit c + 1/3.  b < 1 whenever c < 0, so b*eps < 1 keeps
    log1p(-b*eps) inside its domain.
    """
    c = float(c)
    eps = float(eps)
    if not math.isfinite(c) or not -1.0 < c < 0.0:
        raise DomainError("integrated_defect requires c in (-1, 0)")
    if not 1e-100 <= eps < 1.0:
        raise DomainError("integrated_defect requires eps in [1e-100, 1)")
    b = c + 1.0
    lead = math.log1p(-b * eps)

    def fn(z: np.ndarray) -> np.ndarray:
        w = -eps * z.ravel()            # libm per node; the engine reshapes
        return -_expm1(lead - (b + 1.0) * _log1p(w) + _log1pmx_vec(w) / eps)

    res = integrate(fn, 0.0, 1.0, rel_tol=_DEFECT_REL_TOL)
    return 2.0 * res.value, 2.0 * res.err_bound


def check_asymptotic_slope(c: float) -> AsymptoticSlopeReport:
    """Certify the leading small-eps behaviour of the integrated defect.

    Requires c in (-1/3, 0); the defect is taken at each eps of _SLOPE_EPS.
    The defect totals are certified positive against quadrature error; the
    fitted slope must match c + 1/3 within 2% (a documented heuristic band,
    not an analytic bound); residuals from the asserted leading term must
    stay within a fitted quadratic envelope.
    """
    c = float(c)
    if not (-ONE_THIRD < c < 0.0):
        raise DomainError("slope check requires c strictly in (-1/3, 0)")
    eps = _SLOPE_EPS
    totals, errs = zip(*(integrated_defect(c, e) for e in eps))

    slope_target = c + ONE_THIRD
    positive_ok = all(t > STRICT_MARGIN * q
                      for t, q in zip(totals, errs))

    # Least squares for T ~ slope*eps + curvature*eps^2 (2x2 normal system).
    s2 = sum(e * e for e in eps)
    s3 = sum(e ** 3 for e in eps)
    s4 = sum(e ** 4 for e in eps)
    b1 = sum(e * t for e, t in zip(eps, totals))
    b2 = sum(e * e * t for e, t in zip(eps, totals))
    det = s2 * s4 - s3 * s3
    slope = (b1 * s4 - b2 * s3) / det
    curvature = (b2 * s2 - b1 * s3) / det
    slope_ok = abs(slope - slope_target) <= 0.02 * abs(slope_target)

    # Residuals against the asserted leading term, bounded by a fitted
    # curvature constant: |T - slope_target*eps| <= K*eps^2 (with margin).
    resid = [t - slope_target * e for t, e in zip(totals, eps)]
    k_fit = sum(r * e * e for r, e in zip(resid, eps)) / s4
    residual_bound_ok = all(
        abs(r) <= 1.25 * abs(k_fit) * e * e + STRICT_MARGIN * q
        for r, e, q in zip(resid, eps, errs))

    certified = positive_ok and slope_ok and residual_bound_ok
    return AsymptoticSlopeReport(
        c=c, slope_target=slope_target, eps=eps, totals=totals,
        quad_errs=errs, slope=slope, curvature=curvature,
        positive_ok=positive_ok, slope_ok=slope_ok,
        residual_bound_ok=residual_bound_ok, certified=certified)
