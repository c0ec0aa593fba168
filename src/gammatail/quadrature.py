"""Adaptive panel quadrature on finite intervals.

Fixed-order Gauss-Legendre estimates per panel, bisection refinement driven by
a proportional error budget, and math.fsum accumulation of accepted panels.
Gauss nodes are interior, so integrable endpoint singularities are never
sampled; panels whose bisection defect is already at the rounding floor are
accepted as converged.  Non-convergence raises QuadratureError carrying the
best estimate; the engine never silently returns a value that missed its
target.

The engine runs in lockstep: it advances any number of intervals together,
and each refinement sweep makes one integrand call covering every live
panel of every interval (both bisection halves, plus the parent panels on
the first sweep).  Live panels stay grouped by interval, so each sweep
records an interval's accepted panels in one step, in panel order.
Acceptance, the panel budget, the sweep limit and the fsum accumulation
stay per interval, so each interval's result is bit-identical to
integrating it alone: integrand values and per-panel 15-node sums are
element-wise, and fsum is exactly rounded, so neither depends on which
other panels share the arrays.  The engine raises the first failure it
meets; integrate_many then replays the intervals one at a time, so the
error is the one a loop of integrate calls raises first.  The routine is
single-threaded and bit-deterministic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import QuadratureError
from .specfun import EPS

GAUSS_ORDER = 15
_MAX_SWEEPS = 120
# Panels each interval starts with, and the most it may accept.
_PRE_SPLIT = 8
_MAX_PANELS = 10_000

_nodes, _weights = np.polynomial.legendre.leggauss(GAUSS_ORDER)
# Affine map of the canonical nodes onto (0, 1); weights absorb the 1/2.
GAUSS_NODES_01 = 0.5 * (_nodes + 1.0)
GAUSS_WEIGHTS_01 = 0.5 * _weights


@dataclass(frozen=True)
class QuadResult:
    """Integral estimate with an accumulated error bound."""

    value: float
    err_bound: float
    n_panels: int
    n_evals: int


def _panel_estimates(fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
                     lows: np.ndarray, widths: np.ndarray,
                     owner: np.ndarray) -> np.ndarray:
    """Gauss-Legendre estimate of fn on each panel [low, low + width]; fn
    receives every node together with the index of its panel's interval."""
    pts = lows[:, None] + widths[:, None] * GAUSS_NODES_01[None, :]
    vals = np.asarray(fn(pts.ravel(), np.repeat(owner, GAUSS_ORDER)),
                      dtype=float).reshape(pts.shape)
    # An inf or NaN in the engine's own arithmetic is caught as a
    # non-finite panel and ends in QuadratureError, so numpy's warnings for
    # it are silenced here and in _sweeps; the integrand runs outside.
    with np.errstate(invalid="ignore", over="ignore"):
        return (vals * GAUSS_WEIGHTS_01[None, :]).sum(axis=1) * widths


def _fsum(values: Iterable[float]) -> float:
    """math.fsum, or NaN where it refuses: +inf and -inf together, or an
    intermediate overflow.  A NaN target or total ends in QuadratureError."""
    try:
        return math.fsum(values)
    except (ValueError, OverflowError):
        return math.nan


class _Interval:
    """One interval's bookkeeping: its accepted panel values and defects."""

    __slots__ = ("span", "vals", "errs", "n_evals", "_sums")

    def __init__(self, span: float, n_evals: int) -> None:
        self.span = span
        self.vals: list[float] = []
        self.errs: list[float] = []
        self.n_evals = n_evals
        self._sums: Optional[tuple[float, float]] = (0.0, 0.0)

    def accept(self, vals: list[float], errs: list[float]) -> None:
        """Record accepted panels: their children's values, interleaved
        left and right, and their defects."""
        self.vals.extend(vals)
        self.errs.extend(errs)
        self._sums = None

    def sums(self) -> tuple[float, float]:
        """fsum of the accepted values and of their magnitudes."""
        if self._sums is None:
            self._sums = (_fsum(self.vals), _fsum(map(abs, self.vals)))
        return self._sums

    def failure(self, message: str, live: list[float]) -> QuadratureError:
        """The error for an interval stopped with panels still live; they
        count in full towards the error bound."""
        return QuadratureError(
            message, value=self.sums()[0] + _fsum(live),
            err_bound=_fsum(self.errs) + _fsum(map(abs, live)),
            n_panels=len(self.vals) + len(live))

    def result(self) -> QuadResult:
        value, abs_sum = self.sums()
        err_bound = _fsum(self.errs) + 4.0 * EPS * abs_sum
        if not math.isfinite(err_bound):
            raise QuadratureError(
                "accepted panels sum beyond the double range", value=value,
                err_bound=math.inf, n_panels=len(self.vals))
        return QuadResult(value=value, err_bound=err_bound,
                          n_panels=len(self.vals), n_evals=self.n_evals)


def _split(flat: list[float], counts: list[int]) -> list[list[float]]:
    """Consecutive runs of the given lengths."""
    out = []
    pos = 0
    for n in counts:
        out.append(flat[pos:pos + n])
        pos += n
    return out


def _sweeps(fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
            los: Sequence[float], his: Sequence[float], rel_tol: float,
            abs_tol: float) -> list[QuadResult]:
    """The lockstep engine: integrate fn over each [los[k], his[k]], raising
    the first failure it meets."""
    states: list[_Interval] = []
    for lo, hi in zip(los, his):
        lo, hi = float(lo), float(hi)
        if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
            raise QuadratureError(
                "integration interval must be finite with hi > lo",
                value=math.nan, err_bound=math.inf, n_panels=0)
        states.append(_Interval(hi - lo, _PRE_SPLIT * GAUSS_ORDER))
    if not states:
        return []

    # Live panels, grouped by owning interval in ascending order.
    span_of = np.array([st.span for st in states])
    width0 = span_of / _PRE_SPLIT
    lows = (np.array(los, dtype=float)[:, None]
            + width0[:, None] * np.arange(_PRE_SPLIT)[None, :]).ravel()
    widths = np.repeat(width0, _PRE_SPLIT)
    owner = np.repeat(np.arange(len(states)), _PRE_SPLIT)
    vals: Optional[np.ndarray] = None
    tol_of = np.empty(len(states))
    mass_of = np.empty(len(states))

    for _ in range(_MAX_SWEEPS):
        counts = np.bincount(owner)
        ids = np.flatnonzero(counts)
        count_list = counts[ids].tolist()

        n = lows.size
        half = 0.5 * widths
        r_lows = lows + half
        if vals is None:
            est = _panel_estimates(fn, np.concatenate((lows, lows, r_lows)),
                                   np.concatenate((widths, half, half)),
                                   np.concatenate((owner, owner, owner)))
            vals, l_vals, r_vals = est[:n], est[n:2 * n], est[2 * n:]
        else:
            est = _panel_estimates(fn, np.concatenate((lows, r_lows)),
                                   np.concatenate((half, half)),
                                   np.concatenate((owner, owner)))
            l_vals, r_vals = est[:n], est[n:]

        # Each interval's error target and absolute mass.
        abs_vals = np.abs(vals)
        for k, c, seg, seg_abs in zip(ids.tolist(), count_list,
                                      _split(vals.tolist(), count_list),
                                      _split(abs_vals.tolist(), count_list)):
            st = states[k]
            st.n_evals += 2 * GAUSS_ORDER * c
            acc, acc_abs = st.sums()
            tol_of[k] = max(rel_tol * abs(acc + _fsum(seg)), abs_tol,
                            1e-320)
            mass_of[k] = acc_abs + _fsum(seg_abs)

        with np.errstate(invalid="ignore", over="ignore"):
            pair = l_vals + r_vals
            diff = np.abs(vals - pair)
            share = widths / span_of[owner]
            abs_mass = mass_of[owner]
            massive = abs_mass > 0.0
            mass_share = abs_vals / np.where(massive, abs_mass, 1.0)
            share = np.where(massive, np.maximum(share, mass_share), share)
            alloc = tol_of[owner] * share
            floor = 32.0 * EPS * (np.abs(l_vals) + np.abs(r_vals))
        # A panel too narrow to bisect in floating point cannot be improved.
        exhausted = (r_lows <= lows) | (r_lows >= lows + widths)
        finite = np.isfinite(pair)
        stuck = ~finite & exhausted
        if stuck.any():
            k = owner[stuck][0]
            raise QuadratureError(
                "integrand is non-finite on an unsplittable panel",
                value=states[k].sums()[0], err_bound=math.inf,
                n_panels=len(states[k].vals) + int(counts[k]))
        accept = ((diff <= alloc) | (diff <= floor) | exhausted) & finite

        idx = np.flatnonzero(accept)
        children = np.stack((l_vals[idx], r_vals[idx]), axis=1).ravel()
        n_acc = np.bincount(owner[idx])
        acc_ids = np.flatnonzero(n_acc)
        n_acc = n_acc[acc_ids].tolist()
        for k, seg, defects in zip(
                acc_ids.tolist(),
                _split(children.tolist(), [2 * c for c in n_acc]),
                _split(diff[idx].tolist(), n_acc)):
            states[k].accept(seg, defects)

        keep = np.flatnonzero(~accept)
        m = keep.size
        new_lows = np.empty(2 * m)
        new_widths = np.empty(2 * m)
        new_vals = np.empty(2 * m)
        new_lows[0::2] = lows[keep]
        new_lows[1::2] = r_lows[keep]
        new_widths[0::2] = half[keep]
        new_widths[1::2] = half[keep]
        new_vals[0::2] = l_vals[keep]
        new_vals[1::2] = r_vals[keep]
        lows, widths, vals = new_lows, new_widths, new_vals
        owner = np.repeat(owner[keep], 2)

        counts = np.bincount(owner, minlength=len(states))
        for k in np.flatnonzero(counts).tolist():
            if len(states[k].vals) + int(counts[k]) > _MAX_PANELS:
                raise states[k].failure(
                    f"panel budget {_MAX_PANELS} exceeded",
                    vals[owner == k].tolist())
        if owner.size == 0:
            break
    else:
        k = owner[0]
        raise states[k].failure(
            f"no convergence after {_MAX_SWEEPS} refinement sweeps",
            vals[owner == k].tolist())
    return [st.result() for st in states]


def integrate_many(fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
                   los: Sequence[float], his: Sequence[float], *,
                   rel_tol: float = 1e-10, abs_tol: float = 0.0
                   ) -> list[QuadResult]:
    """Integrate fn over each [los[k], his[k]], all intervals in lockstep.

    fn(t, k) is vectorized over points t, where k[i] is the index of the
    interval that t[i] belongs to.  Each result equals, field for field,
    what integrate would return for that interval alone (see integrate for
    the tolerance and acceptance rules).  If any interval fails, the
    intervals are replayed one at a time, so the QuadratureError raised is
    the one a loop of integrate calls raises first.
    """
    if len(his) != len(los):
        raise ValueError("los and his must have the same length")
    try:
        return _sweeps(fn, los, his, rel_tol, abs_tol)
    except QuadratureError:
        for k, (lo, hi) in enumerate(zip(los, his)):
            _sweeps(lambda t, own, k=k: fn(t, own + k), (lo,), (hi,),
                    rel_tol, abs_tol)
        raise


def integrate(fn: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, *,
              rel_tol: float = 1e-10, abs_tol: float = 0.0) -> QuadResult:
    """Integrate a vectorized callable over [lo, hi] to a requested tolerance.

    The target for the whole interval is max(rel_tol * |integral|, abs_tol);
    each panel receives the larger of a width-proportional and a
    mass-proportional share.  The mass share lets a panel whose bisection
    defect has stalled at the integrand's own rounding noise (noise scales
    with the local value) accept, while the width share accepts far-tail
    panels whose defect is absolutely negligible; either alone can stall
    refinement into the panel budget.  A bisected panel is accepted when the
    parent-vs-children defect meets its share or is indistinguishable from
    quadrature rounding noise, and the children's values are what get
    accumulated.  Exceeding _MAX_PANELS or producing non-finite values on an
    unsplittable panel raises QuadratureError.
    """
    return _sweeps(lambda t, _k: fn(t), (lo,), (hi,), rel_tol, abs_tol)[0]
