"""Certification engine for the tail-probability monotonicity trichotomy.

Everything here reduces a claimed analytic fact to finitely many certified
floating-point sign checks.  The margin discipline is uniform: a difference
counts as a certified sign only when it exceeds ``strict_margin`` times the
combined evaluation error bound of its two endpoints.  Anything smaller is
refined (up to a fixed depth) and then reported inconclusive rather than
rounded up to a verdict, because strict monotonicity cannot be proven
numerically without a margin.

Contents:

* ``certify_monotone`` — scans ``a -> P(X_a - a > c)`` on a grid and returns
  a direction verdict (increasing / decreasing / non-monotone with witness /
  inconclusive with the offending interval).
* ``find_witness`` — constructive non-monotonicity: for c in (-1/3, 0) finds
  a1 < a2 < a3 with p(a1) > p(a2) < p(a3) at certified margins.
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
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._dd import central_difference, mean_gaps
from ._series import CHAIN1_NUM, CHAIN2_NUM, LAMBDA_EXCESS, eval_series
from .errors import CertificationError, DomainError, WitnessSearchError
from .quadrature import integrate
from .specfun import (_THRESHOLD_SERIES_MAX, DEFAULT_PRECISION, EPS,
                      ONE_THIRD, Precision, log_mean, refined_mean,
                      threshold_ratio)
from .tailprob import TailQuery, tail_prob_detail

_REFINE_DEPTH = 6
_WITNESS_BUDGET = 1e6
_WITNESS_SCAN_N = 200
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Taylor window for the reduction-stage excess forms; beyond it the direct
# formulas lose at most ~1e-11 relative accuracy, reflected in the bounds.
_CHAIN_SERIES_MAX = 0.5
_CHAIN_SERIES_RERR = 2e-14
_CHAIN_DIRECT_RERR = 1e-10
# Pairs closer than this relative spread get extended-precision mean gaps.
_MEAN_EXTENDED_MAX = 0.02
_PROBE_DELTA = 1e-3
_DEFECT_REL_TOL = 1e-12


# ---------------------------------------------------------------------------
# Types


@dataclass(frozen=True)
class ScanSpec:
    """A deterministic evaluation grid over the shape parameter."""

    a_min: float
    a_max: float
    n: int
    scale: str = "log"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a_min) and math.isfinite(self.a_max)):
            raise DomainError("scan bounds must be finite")
        if not (0.0 < self.a_min < self.a_max):
            raise DomainError("scan bounds must satisfy 0 < a_min < a_max")
        if self.n < 3:
            raise DomainError("scan needs at least 3 points")
        if self.scale not in ("linear", "log"):
            raise DomainError("scan scale must be 'linear' or 'log'")

    def grid(self) -> tuple[float, ...]:
        if self.scale == "log":
            pts = np.geomspace(self.a_min, self.a_max, self.n)
        else:
            pts = np.linspace(self.a_min, self.a_max, self.n)
        return tuple(float(v) for v in pts)


@dataclass(frozen=True)
class Witness:
    """A certified non-monotonicity triple: p(a1) > p(a2) < p(a3)."""

    a1: float
    a2: float
    a3: float
    p1: float
    p2: float
    p3: float

    def __post_init__(self) -> None:
        if not (self.a1 < self.a2 < self.a3):
            raise DomainError("witness shapes must be strictly increasing")
        if not (self.p1 > self.p2 and self.p3 > self.p2):
            raise DomainError("witness probabilities must dip at a2")


@dataclass(frozen=True)
class MonotoneVerdict:
    """Outcome of a monotonicity scan.

    margin_ratio is the smallest certified gap divided by its error bound
    (for inconclusive verdicts: the failing gap's ratio).  interval is the
    offending (a_lo, a_hi) pair when inconclusive, else None.
    """

    direction: str
    c: float
    scan: ScanSpec
    witness: Optional[Witness]
    margin_ratio: float
    interval: Optional[tuple[float, float]]
    detail: str

    def __post_init__(self) -> None:
        if self.direction not in ("increasing", "decreasing", "non_monotone",
                                  "inconclusive"):
            raise DomainError(f"unknown direction {self.direction!r}")
        if (self.direction == "non_monotone") != (self.witness is not None):
            raise DomainError(
                "a witness must be present exactly for non_monotone verdicts")


# ---------------------------------------------------------------------------
# Monotonicity certification


def _eval_point(a: float, c: float) -> tuple[float, float]:
    """(value, err_bound) of the tail probability at one shape."""
    d = tail_prob_detail(TailQuery(a, c))
    return d.value, d.err_bound


def _classify(d: float, err_sum: float, prec: Precision) -> int:
    """+1 / -1 for a certified strict sign, 0 for not-certifiable."""
    margin = prec.strict_margin * err_sum
    if d > margin:
        return 1
    if d < -margin:
        return -1
    return 0


def _scale_midpoint(lo: float, hi: float, scale: str) -> float:
    mid = math.sqrt(lo * hi) if scale == "log" else 0.5 * (lo + hi)
    if not (lo < mid < hi):
        mid = 0.5 * (lo + hi)
    return mid


def certify_monotone(c: float, scan: ScanSpec,
                     prec: Precision = DEFAULT_PRECISION) -> MonotoneVerdict:
    """Scan the tail probability over shapes and certify its direction.

    A direction is certified only if every consecutive difference carries a
    certified strict sign and all signs agree.  Opposite certified signs
    yield a non_monotone verdict with a Witness.  Differences too small for
    their error bounds are refined by scale-aware bisection up to depth 6,
    after which the verdict is inconclusive with the offending interval.

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

    grid = scan.grid()
    points = {a: _eval_point(a, c) for a in grid}

    pos_ratio = math.inf
    neg_ratio = math.inf
    has_pos = False
    has_neg = False
    unresolved: list[tuple[float, float, float, float]] = []

    # Stack of (a_lo, a_hi, depth); children pushed right-first so intervals
    # are examined left-to-right, keeping the verdict deterministic.
    stack = [(grid[i], grid[i + 1], 0) for i in range(len(grid) - 2, -1, -1)]
    while stack:
        a_lo, a_hi, depth = stack.pop()
        p_lo, e_lo = points[a_lo]
        p_hi, e_hi = points[a_hi]
        d = p_hi - p_lo
        err_sum = e_lo + e_hi
        sign = _classify(d, err_sum, prec)
        if sign != 0:
            ratio = abs(d) / max(err_sum, 5e-324)
            if sign > 0:
                has_pos = True
                pos_ratio = min(pos_ratio, ratio)
            else:
                has_neg = True
                neg_ratio = min(neg_ratio, ratio)
            continue
        if depth >= _REFINE_DEPTH:
            unresolved.append((a_lo, a_hi, d, err_sum))
            continue
        mid = _scale_midpoint(a_lo, a_hi, scan.scale)
        if mid not in points:
            points[mid] = _eval_point(mid, c)
        stack.append((mid, a_hi, depth + 1))
        stack.append((a_lo, mid, depth + 1))

    n_extra = len(points) - len(grid)
    if has_pos and has_neg:
        witness, ratio = _witness_from_points(points, prec)
        if witness is None:
            a_lo, a_hi, d, err_sum = unresolved[0] if unresolved else (
                grid[0], grid[-1], 0.0, 0.0)
            return MonotoneVerdict(
                direction="inconclusive", c=c, scan=scan, witness=None,
                margin_ratio=0.0, interval=(a_lo, a_hi),
                detail="opposite certified signs found but no witness triple "
                       "met the margin discipline")
        return MonotoneVerdict(
            direction="non_monotone", c=c, scan=scan, witness=witness,
            margin_ratio=ratio, interval=None,
            detail=f"certified decrease and increase on the scan "
                   f"({len(grid)} grid points, {n_extra} refinement points)")
    if unresolved:
        a_lo, a_hi, d, err_sum = unresolved[0]
        ratio = abs(d) / max(err_sum, 5e-324)
        return MonotoneVerdict(
            direction="inconclusive", c=c, scan=scan, witness=None,
            margin_ratio=ratio, interval=(a_lo, a_hi),
            detail=f"difference {d!r} on [{a_lo!r}, {a_hi!r}] is below the "
                   f"certification margin after depth-{_REFINE_DEPTH} "
                   "refinement")
    if has_pos:
        return MonotoneVerdict(
            direction="increasing", c=c, scan=scan, witness=None,
            margin_ratio=pos_ratio, interval=None,
            detail=f"all {len(grid) - 1} consecutive differences certified "
                   f"positive ({n_extra} refinement points)")
    if has_neg:
        return MonotoneVerdict(
            direction="decreasing", c=c, scan=scan, witness=None,
            margin_ratio=neg_ratio, interval=None,
            detail=f"all {len(grid) - 1} consecutive differences certified "
                   f"negative ({n_extra} refinement points)")
    return MonotoneVerdict(
        direction="inconclusive", c=c, scan=scan, witness=None,
        margin_ratio=0.0, interval=(grid[0], grid[-1]),
        detail="no certified differences on the scan")


def _witness_from_points(points: dict[float, tuple[float, float]],
                         prec: Precision
                         ) -> tuple[Optional[Witness], float]:
    """Best dip triple from evaluated points, or None if margins fail."""
    a_sorted = sorted(points)
    p = [points[a][0] for a in a_sorted]
    e = [points[a][1] for a in a_sorted]
    j = min(range(len(p)), key=lambda k: (p[k], k))
    if j == 0 or j == len(p) - 1:
        return None, 0.0
    i = min(range(0, j), key=lambda k: (-p[k], k))
    k = min(range(j + 1, len(p)), key=lambda m: (-p[m], m))
    left_gap = p[i] - p[j]
    right_gap = p[k] - p[j]
    left_err = e[i] + e[j]
    right_err = e[k] + e[j]
    if not (left_gap > prec.strict_margin * left_err
            and right_gap > prec.strict_margin * right_err):
        return None, 0.0
    ratio = min(left_gap / max(left_err, 5e-324),
                right_gap / max(right_err, 5e-324))
    witness = Witness(a1=a_sorted[i], a2=a_sorted[j], a3=a_sorted[k],
                      p1=p[i], p2=p[j], p3=p[k])
    return witness, ratio


# ---------------------------------------------------------------------------
# Witness search


def find_witness(c: float, prec: Precision = DEFAULT_PRECISION) -> Witness:
    """A certified dip triple for c strictly inside (-1/3, 0).

    a1 is placed at the plateau edge -c where the probability is exactly 1;
    the interior minimizer a2 is located by a coarse geometric scan (grown
    by 8x while the minimum sits at the right edge) followed by golden-
    section refinement; a3 doubles from a2 until p(a3) > p(a2) is certified.
    The shape budget is 1e6; exhausting it raises WitnessSearchError instead
    of returning an uncertified triple.
    """
    c = float(c)
    if not (-ONE_THIRD < c < 0.0):
        raise DomainError("witness search requires c strictly in (-1/3, 0)")

    # Coarse scan for the interior minimizer, starting just off the plateau.
    scan_lo = -c * (1.0 + 1e-3)
    scan_hi = max(8.0 * -c, 4.0)
    while True:
        grid = np.geomspace(scan_lo, scan_hi, _WITNESS_SCAN_N)
        vals = [_eval_point(float(a), c)[0] for a in grid]
        j = min(range(len(vals)), key=lambda k: (vals[k], k))
        if j < len(vals) - 1:
            break
        scan_hi *= 8.0
        if scan_hi > _WITNESS_BUDGET:
            raise WitnessSearchError(
                f"no interior minimum of the tail probability found below "
                f"a={_WITNESS_BUDGET:g} for c={c!r}", budget=_WITNESS_BUDGET)
    lo = float(grid[j - 1]) if j > 0 else float(grid[0])
    hi = float(grid[j + 1])

    # Golden-section descent to the minimizer; evaluations reuse the cheap
    # value-only path, margins are re-checked at the final point.
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, _ = _eval_point(x1, c)
    f2, _ = _eval_point(x2, c)
    for _ in range(200):
        if hi - lo <= 1e-10 * hi:
            break
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1, _ = _eval_point(x1, c)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2, _ = _eval_point(x2, c)
    a2 = 0.5 * (lo + hi)
    p2, e2 = _eval_point(a2, c)

    a1 = -c
    p1, e1 = _eval_point(a1, c)  # plateau edge: exactly 1, zero error
    if not (p1 - p2 > prec.strict_margin * (e1 + e2)):
        raise WitnessSearchError(
            f"interior minimum at a={a2!r} is not certifiably below the "
            f"plateau value for c={c!r}", budget=_WITNESS_BUDGET)

    a3 = max(2.0 * a2, a2 + 1.0)
    while True:
        p3, e3 = _eval_point(a3, c)
        if p3 - p2 > prec.strict_margin * (e3 + e2):
            break
        a3 *= 2.0
        if a3 > _WITNESS_BUDGET:
            raise WitnessSearchError(
                f"recovery above the dip not certified below the shape "
                f"budget {_WITNESS_BUDGET:g} for c={c!r}",
                budget=_WITNESS_BUDGET)
    return Witness(a1=a1, a2=a2, a3=a3, p1=p1, p2=p2, p3=p3)


# ---------------------------------------------------------------------------
# Threshold-ratio reduction chain


@dataclass(frozen=True)
class ThresholdChainReport:
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
    if s <= _THRESHOLD_SERIES_MAX:
        v = eval_series(LAMBDA_EXCESS, s)
        return v, _CHAIN_SERIES_RERR * abs(v)
    v = threshold_ratio(y) + ONE_THIRD
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
    """The closed rational end of the chain, -2y/(1 + 4y + y^2)."""
    return _rational_excess(y, y - 1.0)[0] - ONE_THIRD


def rational_stage_deriv(y: float) -> float:
    """Its derivative 2(y^2 - 1)/(1 + 4y + y^2)^2, positive for y > 1."""
    den = 1.0 + y * (4.0 + y)
    return 2.0 * (y * y - 1.0) / (den * den)


_CHAIN_STAGES = (
    ("ratio", _ratio_excess),
    ("reduction1", _reduction1_excess),
    ("reduction2", _reduction2_excess),
    ("rational", _rational_excess),
)


def check_threshold_chain(y_grid: Sequence[float],
                          prec: Precision = DEFAULT_PRECISION
                          ) -> ThresholdChainReport:
    """Certify that every reduction stage increases along y_grid.

    The grid must lie strictly inside (1, oo) and be strictly increasing.
    A certified *reversal* at any stage contradicts the underlying lemma and
    raises CertificationError; differences merely too small for their error
    bounds leave the report uncertified without raising.
    """
    ys = [float(y) for y in y_grid]
    if not ys or any(y <= 1.0 or not math.isfinite(y) for y in ys):
        raise DomainError("y_grid must lie strictly inside (1, oo)")
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
            if d < -prec.strict_margin * err_sum:
                raise CertificationError(
                    f"stage {_name!r} certifiably decreases between grid "
                    f"points with values {v0!r} -> {v1!r}")
            if d > prec.strict_margin * err_sum:
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


@dataclass(frozen=True)
class MeanChainEntry:
    """One certified instance of sqrt(xy) < L < refined < (x+y)/2."""

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


@dataclass(frozen=True)
class MeanChainReport:
    entries: tuple[MeanChainEntry, ...]
    certified: bool
    min_margin_ratio: float
    probe_violation_found: bool
    probe_spread: float
    probe_gap: float


def _mean_entry(x: float, y: float, prec: Precision) -> MeanChainEntry:
    geo = math.sqrt(x * y)
    lm = log_mean(x, y)
    ref = refined_mean(x, y)
    ari = 0.5 * (x + y)
    spread = (y - x) / x
    if spread <= _MEAN_EXTENDED_MAX:
        gaps = mean_gaps(x, y)
        g1, g2, g3 = (gaps.log_vs_geo, gaps.refined_vs_log,
                      gaps.arith_vs_refined)
        err = gaps.err_bound
        extended = True
    else:
        g1, g2, g3 = lm - geo, ref - lm, ari - ref
        err = 32.0 * EPS * ari
        extended = False
    ok = (g1 > prec.strict_margin * err and g2 > prec.strict_margin * err
          and g3 > prec.strict_margin * err)
    return MeanChainEntry(
        x=x, y=y, geometric=geo, logarithmic=lm, refined=ref, arithmetic=ari,
        gap_log_vs_geo=g1, gap_refined_vs_log=g2, gap_arith_vs_refined=g3,
        err_bound=err, extended=extended, chain_ok=ok)


def check_mean_chain(pairs: Sequence[tuple[float, float]],
                     prec: Precision = DEFAULT_PRECISION, *,
                     probe_factor: float = ONE_THIRD - _PROBE_DELTA
                     ) -> MeanChainReport:
    """Certify the mean chain on each pair and probe the 1/3 factor.

    Pairs with relative spread below 2% are evaluated with the extended-
    precision gap routine (the refined-vs-logarithmic gap shrinks like the
    fourth power of the spread and cancels catastrophically in doubles).

    The optimality probe replaces the 1/3 factor inside the refined mean by
    probe_factor (default 1/3 - 1e-3, which must stay below 1/3) and scans
    near-equal pairs for a certified reversal of L < refined mean; finding
    one shows the factor cannot be lowered.
    """
    if not (0.0 < probe_factor < ONE_THIRD):
        raise DomainError("probe_factor must lie strictly inside (0, 1/3)")
    if len(pairs) == 0:
        raise DomainError("check_mean_chain requires at least one pair")
    entries = []
    min_ratio = math.inf
    for x, y in pairs:
        x, y = float(x), float(y)
        if not (0.0 < x < y) or not math.isfinite(y):
            raise DomainError("mean chain pairs require 0 < x < y, finite")
        entry = _mean_entry(x, y, prec)
        entries.append(entry)
        for gap in (entry.gap_log_vs_geo, entry.gap_refined_vs_log,
                    entry.gap_arith_vs_refined):
            min_ratio = min(min_ratio, gap / max(entry.err_bound, 5e-324))

    # Optimality probe: with the weakened factor the refined mean must drop
    # below the logarithmic mean somewhere near the diagonal.  The violation
    # gap grows like (delta/8) * spread^2, macroscopic in doubles.
    factor = probe_factor
    probe_found = False
    probe_spread = 0.0
    probe_gap = 0.0
    for t in np.geomspace(1e-3, 0.09, 40):
        x, y = 1.0, 1.0 + float(t)
        lm = log_mean(x, y)
        weakened = math.sqrt(x * y + factor * (lm - x) * (y - lm))
        gap = lm - weakened
        if gap > prec.strict_margin * 32.0 * EPS and gap > probe_gap:
            probe_found = True
            probe_spread = float(t)
            probe_gap = gap
    certified = all(e.chain_ok for e in entries) and probe_found
    return MeanChainReport(
        entries=tuple(entries), certified=certified,
        min_margin_ratio=min_ratio, probe_violation_found=probe_found,
        probe_spread=probe_spread, probe_gap=probe_gap)


# ---------------------------------------------------------------------------
# Small-eps slope of the integrated tail defect


@dataclass(frozen=True)
class AsymptoticSlopeReport:
    """Fit of the integrated defect T(eps) = 2*int_0^1 g(eps, z) dz.

    The defect must be certifiably positive with T(eps)/eps approaching
    c + 1/3 (the slope target); a quadratic least-squares fit over eps_list
    checks the slope to 2% and bounds the residual by a fitted curvature
    constant.  fit_consistent is an advisory cubic-order check on the fit
    residuals; its failure flags the fit quality, not the underlying fact.
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
    fit_consistent: bool
    certified: bool


def integrated_defect(c: float, eps: float) -> tuple[float, float]:
    """T(eps) = 2 * int_0^1 [1 - (1-b*eps)(1-z*eps)^(1/eps-b-1) e^z] dz
    with b = c + 1, and its quadrature error bound.

    Requires 0 < eps < 1 so that both logarithms in the integrand stay
    inside their domains (b < 1 whenever c < 0, so b*eps < 1 follows).
    """
    c = float(c)
    eps = float(eps)
    if not math.isfinite(c) or not -1.0 < c < 0.0:
        raise DomainError("integrated_defect requires c in (-1, 0)")
    if not 0.0 < eps < 1.0:
        raise DomainError("integrated_defect requires eps in (0, 1)")
    b = c + 1.0
    power = 1.0 / eps - b - 1.0
    lead = math.log1p(-b * eps)

    def fn(z: np.ndarray) -> np.ndarray:
        return -np.expm1(lead + power * np.log1p(-eps * z) + z)

    res = integrate(fn, 0.0, 1.0, rel_tol=_DEFECT_REL_TOL, abs_tol=1e-300)
    return 2.0 * res.value, 2.0 * res.err_bound


def check_asymptotic_slope(c: float,
                           eps_list: Sequence[float] = (0.02, 0.01, 0.005,
                                                        0.0025),
                           prec: Precision = DEFAULT_PRECISION
                           ) -> AsymptoticSlopeReport:
    """Certify the leading small-eps behaviour of the integrated defect.

    Requires c in (-1/3, 0) and every eps in (0, 0.2).  The defect totals
    are certified positive against quadrature error; the fitted slope must
    match c + 1/3 within 2% (a documented heuristic band, not an analytic
    bound); residuals from the asserted leading term must stay within a
    fitted quadratic envelope.
    """
    c = float(c)
    if not (-ONE_THIRD < c < 0.0):
        raise DomainError("slope check requires c strictly in (-1/3, 0)")
    eps = tuple(sorted(float(e) for e in eps_list))
    if len(eps) < 2:
        raise DomainError("slope check needs at least two eps values")
    if eps[0] <= 0.0 or eps[-1] >= 0.2:
        raise DomainError("eps values must lie in (0, 0.2)")

    totals = []
    errs = []
    for e in eps:
        t, q = integrated_defect(c, e)
        totals.append(t)
        errs.append(q)

    slope_target = c + ONE_THIRD
    positive_ok = all(t > prec.strict_margin * q
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
        abs(r) <= 1.25 * abs(k_fit) * e * e + prec.strict_margin * q
        for r, e, q in zip(resid, eps, errs))

    # Advisory: a quadratic-plus-cubic model must explain the residuals
    # almost entirely, i.e. what is left over after fitting K2*eps^2 +
    # K3*eps^3 should be tiny against the residuals themselves.
    a11 = s4
    a12 = sum(e ** 5 for e in eps)
    a22 = sum(e ** 6 for e in eps)
    c1 = sum(r * e * e for r, e in zip(resid, eps))
    c2 = sum(r * e ** 3 for r, e in zip(resid, eps))
    det2 = a11 * a22 - a12 * a12
    k2 = (c1 * a22 - c2 * a12) / det2
    k3 = (c2 * a11 - c1 * a12) / det2
    leftover = [abs(r - k2 * e * e - k3 * e ** 3)
                for r, e in zip(resid, eps)]
    fit_consistent = max(leftover) <= (0.05 * max(abs(r) for r in resid)
                                       + prec.strict_margin * max(errs))

    certified = positive_ok and slope_ok and residual_bound_ok
    return AsymptoticSlopeReport(
        c=c, slope_target=slope_target, eps=eps, totals=tuple(totals),
        quad_errs=tuple(errs), slope=slope, curvature=curvature,
        positive_ok=positive_ok, slope_ok=slope_ok,
        residual_bound_ok=residual_bound_ok, fit_consistent=fit_consistent,
        certified=certified)
