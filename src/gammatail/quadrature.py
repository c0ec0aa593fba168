"""Adaptive panel quadrature on finite intervals.

Fixed-order Gauss-Legendre estimates per panel, bisection refinement driven by
a proportional error budget, and math.fsum accumulation of accepted panels.
Gauss nodes are interior, so integrable endpoint singularities are never
sampled; panels whose bisection defect is already at the rounding floor are
accepted as converged.  Non-convergence raises QuadratureError carrying the
best estimate; the engine never silently returns a value that missed its
target.

The engine runs in lockstep: integrate_many advances all of a call's
intervals together.  It evaluates the starting panels first, then each
refinement sweep evaluates both bisection halves of every live panel, in
integrand calls of up to _CHUNK panels: the nodes one row per panel, and
the owners, each panel's interval index, as a column that broadcasts
against the nodes.  Live panels stay grouped by interval.  The books are
arrays: per interval the live, accepted and evaluation counts and plain
running sums of the accepted values and magnitudes, and per sweep the
accepted children's intervals, values and defects.  So a sweep is a fixed
set of numpy operations, however many intervals are live; one stable sort
by interval at the end gathers each interval's children in accepted order.

Acceptance, the panel budget, the sweep limit and the fsum accumulation
stay per interval, so each interval's result is bit-identical to
integrating it alone: integrand values and per-panel 15-node sums are
element-wise, and fsum is correctly rounded, so neither depends on which
other panels share the arrays.  A sweep's error target and mass are the
interval's running plain sums of its accepted values and of their
magnitudes, plus the sums of its live values and magnitudes that sweep;
np.bincount adds each interval's own panels alone, in panel order, so
these do not depend on the other intervals either.  Each result takes its
fsums once, at the end.  The engine raises the first failure it meets;
integrate_many then replays the intervals one at a time, so the error is
the one a loop of integrate calls raises first.  The routine is
single-threaded and bit-deterministic.
"""
from __future__ import annotations

import math
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DomainError, QuadratureError
from .specfun import EPS

GAUSS_ORDER = 15
_MAX_SWEEPS = 120
# Panels each interval starts with, and the most it may accept.  C01's
# 2,530 oracle quadratures take 332,370, 295,920, 373,410, 466,320,
# 577,770, 689,040 and 915,240 evaluations from 1, 2, 3, 4, 5, 6 and 8
# starting panels.  From 1 or 2, C11's fitted slope moves, and from 2 the
# direct form's worst error against mpmath reaches 2.07e-14; from 4 or 5,
# C01's worst deviation moves.  From 3, 6 and 8 verify-all prints the same
# bytes, and 3 spends the fewest evaluations of those.
_PRE_SPLIT = 3
_MAX_PANELS = 10_000
# The most panels one integrand call takes, which bounds the memory of each
# call whatever the number of intervals: one integrand call per sweep over
# 256 of C01's intervals raised its peak traced memory to 8.8 MB; calls of
# 512 panels keep it near 2 MB.
_CHUNK = 512

# The 15-point Gauss-Legendre rule on [-1, 1], as numpy's
# polynomial.legendre.leggauss(15) returns it (numpy 2.4, x86-64), frozen so
# that the rule's bits do not depend on the LAPACK build or cost the import
# of numpy.polynomial.
_NODES = np.array((
    -0.9879925180204854, -0.9372733924007058, -0.8482065834104272,
    -0.7244177313601701, -0.5709721726085388, -0.3941513470775634,
    -0.20119409399743451, 0.0, 0.20119409399743451, 0.3941513470775634,
    0.5709721726085388, 0.7244177313601701, 0.8482065834104272,
    0.9372733924007058, 0.9879925180204854))
_WEIGHTS = np.array((
    0.030753241996117203, 0.0703660474881084, 0.10715922046717141,
    0.13957067792615444, 0.16626920581699398, 0.1861610000155622,
    0.1984314853271116, 0.2025782419255613, 0.1984314853271116,
    0.1861610000155622, 0.16626920581699398, 0.13957067792615444,
    0.10715922046717141, 0.0703660474881084, 0.030753241996117203))
# Affine map of the canonical nodes onto (0, 1); weights absorb the 1/2.
GAUSS_NODES_01 = 0.5 * (_NODES + 1.0)
GAUSS_WEIGHTS_01 = 0.5 * _WEIGHTS


class QuadResult(NamedTuple):
    """Integral estimate with an accumulated error bound."""

    value: float
    err_bound: float
    n_panels: int
    n_evals: int


def _panel_estimates(fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
                     lows: np.ndarray, widths: np.ndarray,
                     owner: np.ndarray) -> np.ndarray:
    """Gauss-Legendre estimate of fn on each panel [low, low + width]; fn
    receives the nodes of up to _CHUNK panels per call, one row per panel,
    and the index of each row's interval as a column."""
    out = np.empty(lows.size)
    for i in range(0, lows.size, _CHUNK):
        part = slice(i, i + _CHUNK)
        pts = lows[part, None] + widths[part, None] * GAUSS_NODES_01[None, :]
        vals = np.asarray(fn(pts, owner[part, None]),
                          dtype=float).reshape(pts.shape)
        # An inf or NaN in the engine's own arithmetic is caught as a
        # non-finite panel and ends in QuadratureError, so numpy's warnings
        # for it are silenced here and in _sweeps; the integrand runs
        # outside.
        with np.errstate(invalid="ignore", over="ignore"):
            out[part] = (vals * GAUSS_WEIGHTS_01[None, :]).sum(axis=1) \
                * widths[part]
    return out


def _fsum(values: Iterable[float]) -> float:
    """math.fsum, or NaN where it refuses: +inf and -inf together, or an
    intermediate overflow.  A NaN total ends in QuadratureError."""
    try:
        return math.fsum(values)
    except (ValueError, OverflowError):
        return math.nan


def _alloc(tol: np.ndarray, mass: np.ndarray, abs_vals: np.ndarray,
           width_share: np.ndarray) -> np.ndarray:
    """Each panel's error allowance: its interval's tolerance times the
    larger of its width share and, where the interval has mass, its mass
    share."""
    massive = mass > 0.0
    mass_share = abs_vals / np.where(massive, mass, 1.0)
    return tol * np.where(massive, np.maximum(width_share, mass_share),
                          width_share)


def _sweeps(fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
            los: Sequence[float], his: Sequence[float],
            rel_tol: float) -> list[QuadResult]:
    """The lockstep engine: integrate fn over each [los[k], his[k]], raising
    the first failure it meets."""
    lo = np.array(los, dtype=float)
    hi = np.array(his, dtype=float)
    if not 0.0 < rel_tol < math.inf:
        raise DomainError("rel_tol must be finite and positive")
    if lo.ndim != 1 or lo.shape != hi.shape:
        raise DomainError("los and his must be 1-D and of one length")
    with np.errstate(over="ignore", invalid="ignore"):
        span_of = hi - lo
    # A finite span has finite ends, and its width does not overflow.
    if not np.all(np.isfinite(span_of) & (hi > lo)):
        raise QuadratureError(
            "integration interval must be finite with hi > lo",
            value=math.nan, err_bound=math.inf, n_panels=0)
    n_int = lo.size
    if n_int == 0:
        return []

    # Live panels, grouped by owning interval in ascending order, and their
    # estimates.
    width0 = span_of / _PRE_SPLIT
    lows = (lo[:, None]
            + width0[:, None] * np.arange(_PRE_SPLIT)[None, :]).ravel()
    widths = np.repeat(width0, _PRE_SPLIT)
    owner = np.repeat(np.arange(n_int), _PRE_SPLIT)
    vals = _panel_estimates(fn, lows, widths, owner)
    # Per interval: live panels, evaluations, accepted children, and plain
    # running sums of their values and magnitudes.
    counts = np.full(n_int, _PRE_SPLIT)
    n_evals = GAUSS_ORDER * counts
    n_kept = np.zeros(n_int, dtype=np.intp)
    kept_sum = np.zeros(n_int)
    kept_abs = np.zeros(n_int)
    # Per sweep: the accepted panels' intervals, children's values (left,
    # right) and defects.
    books: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def accepted(k: int) -> tuple[list[float], list[float]]:
        """Interval k's children's values and defects, in the order they
        were accepted."""
        if not books:
            return [], []
        owners, pairs, defects = (np.concatenate(part) for part in zip(*books))
        sel = owners == k
        return pairs[sel].ravel().tolist(), defects[sel].tolist()

    def failure(k: int, message: str) -> QuadratureError:
        """The error for interval k, stopped with panels still live; they
        count in full towards the error bound."""
        values, defects = accepted(k)
        live = vals[owner == k].tolist()
        return QuadratureError(
            message, value=_fsum(values) + _fsum(live),
            err_bound=_fsum(defects) + _fsum(map(abs, live)),
            n_panels=len(values) + len(live))

    for _ in range(_MAX_SWEEPS):
        n_evals += 2 * GAUSS_ORDER * counts
        half = 0.5 * widths
        r_lows = lows + half
        est = _panel_estimates(fn, np.concatenate((lows, r_lows)),
                               np.concatenate((half, half)),
                               np.concatenate((owner, owner)))
        l_vals, r_vals = est[:lows.size], est[lows.size:]

        abs_vals = np.abs(vals)
        with np.errstate(invalid="ignore", over="ignore"):
            pair = l_vals + r_vals
            diff = np.abs(vals - pair)
            abs_pair = np.abs(l_vals) + np.abs(r_vals)
            floor = 32.0 * EPS * abs_pair
            # Each interval's error target and absolute mass, from the
            # running sums of its accepted values and the sums of its live
            # ones.  np.maximum keeps a NaN target, as the builtin max does.
            tol = np.maximum(
                rel_tol * np.abs(kept_sum + np.bincount(owner, vals, n_int)),
                1e-320)
            mass = kept_abs + np.bincount(owner, abs_vals, n_int)
            alloc = _alloc(tol[owner], mass[owner], abs_vals,
                           widths / span_of[owner])
        # A panel too narrow to bisect in floating point cannot be improved.
        exhausted = (r_lows <= lows) | (r_lows >= lows + widths)
        finite = np.isfinite(pair)
        stuck = ~finite & exhausted
        if stuck.any():
            k = int(owner[stuck][0])
            raise QuadratureError(
                "integrand is non-finite on an unsplittable panel",
                value=_fsum(accepted(k)[0]), err_bound=math.inf,
                n_panels=int(n_kept[k] + counts[k]))
        accept = ((diff <= floor) | exhausted | (diff <= alloc)) & finite

        idx = np.flatnonzero(accept)
        acc_owner = owner[idx]
        books.append((acc_owner, np.stack((l_vals[idx], r_vals[idx]), axis=1),
                      diff[idx]))
        n_kept += 2 * np.bincount(acc_owner, minlength=n_int)
        kept_sum += np.bincount(acc_owner, pair[idx], n_int)
        kept_abs += np.bincount(acc_owner, abs_pair[idx], n_int)

        keep = np.flatnonzero(~accept)
        lows = np.stack((lows[keep], r_lows[keep]), axis=1).ravel()
        widths = np.repeat(half[keep], 2)
        vals = np.stack((l_vals[keep], r_vals[keep]), axis=1).ravel()
        owner = np.repeat(owner[keep], 2)
        counts = np.bincount(owner, minlength=n_int)
        over = np.flatnonzero((counts > 0) & (n_kept + counts > _MAX_PANELS))
        if over.size:
            raise failure(int(over[0]), f"panel budget {_MAX_PANELS} exceeded")
        if owner.size == 0:
            break
    else:
        raise failure(int(owner[0]),
                      f"no convergence after {_MAX_SWEEPS} refinement sweeps")

    # Each interval's accepted children, in the order accepted.
    owners, pairs, defects = (np.concatenate(part) for part in zip(*books))
    order = np.argsort(owners, kind="stable")
    pairs, defects = pairs[order], defects[order]
    ends = np.cumsum(np.bincount(owners, minlength=n_int)).tolist()
    out = []
    for start, end, evals in zip([0, *ends], ends, n_evals.tolist()):
        kept = pairs[start:end].ravel().tolist()
        value = _fsum(kept)
        err_bound = (_fsum(defects[start:end].tolist())
                     + 4.0 * EPS * _fsum(map(abs, kept)))
        if not math.isfinite(err_bound):
            raise QuadratureError(
                "accepted panels sum beyond the double range", value=value,
                err_bound=math.inf, n_panels=len(kept))
        out.append(QuadResult(value=value, err_bound=err_bound,
                              n_panels=len(kept), n_evals=evals))
    return out


def integrate_many(fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
                   los: Sequence[float], his: Sequence[float], *,
                   rel_tol: float = 1e-10) -> list[QuadResult]:
    """Integrate fn over each [los[k], his[k]], all intervals in one
    lockstep pass.

    fn(t, k) is elementwise over a (panels, GAUSS_ORDER) array t of nodes,
    one row per panel; k is the (panels, 1) column of each row's interval
    index, so per-interval parameters indexed by k broadcast against t.
    Each result equals, field for field,
    what integrate would return for that interval alone (see integrate for
    the tolerance and acceptance rules).  If any interval fails, the
    intervals are replayed one at a time in index order, so the
    QuadratureError raised is the one a loop of integrate calls raises
    first.  DomainError unless los and his are 1-D and of one length and
    0 < rel_tol < inf.
    """
    try:
        return _sweeps(fn, los, his, rel_tol)
    except QuadratureError:
        for k, (lo, hi) in enumerate(zip(los, his)):
            _sweeps(lambda t, own: fn(t, own + k), (lo,), (hi,), rel_tol)
        raise


def integrate(fn: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, *,
              rel_tol: float = 1e-10) -> QuadResult:
    """Integrate an elementwise callable over [lo, hi] to a requested
    tolerance; fn takes a (panels, GAUSS_ORDER) array of nodes.

    The target for the whole interval is rel_tol * |integral|, at least
    1e-320; each panel receives the larger of a width-proportional and a
    mass-proportional share.  The mass share lets a panel whose bisection
    defect has stalled at the integrand's own rounding noise (noise scales
    with the local value) accept, while the width share accepts far-tail
    panels whose defect is absolutely negligible; either alone can stall
    refinement into the panel budget.  A bisected panel is accepted when the
    parent-vs-children defect meets its share or is indistinguishable from
    quadrature rounding noise, and the children's values are what get
    accumulated.  Exceeding _MAX_PANELS or producing non-finite values on an
    unsplittable panel raises QuadratureError; a rel_tol outside
    0 < rel_tol < inf raises DomainError.
    """
    return _sweeps(lambda t, _k: fn(t), (lo,), (hi,), rel_tol)[0]
