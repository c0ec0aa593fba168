"""The numpy lane machinery behind the batched kernels.

_reg_gamma_q_core, Q's one lane core, evaluates whole arrays of lanes,
every lane bit-identical to specfun's scalar kernel: behind reg_gamma_q_many
(any (a, x) lanes, such as the acceptance grid) and tailprob.tail_prob_many
(shapes at one offset or one per shape, the plateau at x = 0).  Only the
loops live here: the branch masks, each branch's result and the log
prefactor are specfun's formulas, given per-lane transcendentals.

Every loop runs on one driver, _lockstep: each numpy pass runs a block of
iterations of all running lanes, and a lane retires at its first stop
column with that column's state, so its count and final state are the
scalar loop's.  The first-order loops -- the ascending series, the
small-shape tail and the _log1pmx and _lgamma1p Taylor sums -- fold
_FOLD_BLOCK iterations per pass: each state variable is one row-wise
ufunc.accumulate, a sequential left fold, so every column holds the scalar
loop's bits at that iteration.  The continued fraction (_upper_cf_block)
runs _CF_BLOCK iterations per pass: only the recurrences of c and d per
iteration, and its other steps and its stop test once per block.  The
Taylor sums of _dd and the Lambert solvers run one step per pass
(_each_step).  _finish continues the lanes the driver leaves running on
their scalar loop, which raises at its cap.  _log1pmx_vec is the
fixed-length log1p(d) - d of the quadrature integrands.

branch_roots_many solves the two Lambert branches behind branch_roots for
an array of z: lambert_w0's and lambert_wm1's regimes are masks, and their
Halley and Newton loops run in _lockstep to each lane's stop, one step of
specfun's step formulas per pass.  Its BranchRootLanes feed tailprob's
direction_form_detail and integrand_ratio, which take lanes as well as a
BranchRoots.

specfun holds the scalar loops and imports no numpy; this module holds
everything that does.  The loop caps _KERNEL_MAX_ITER, _L1PMX_MAX_TERMS and
_ZETA_TABLE are read from specfun at each call, so the lanes and the scalar
loops always share them.
"""
from __future__ import annotations

import math
from functools import partial
from typing import NamedTuple

import numpy as np

from . import specfun
from .errors import DomainError, GammaTailError
from .specfun import (EPS, Z_GAP, Z_MIN, _BRANCH_WINDOW, _CF_TINY,
                      _EULER_GAMMA, _INV_E, _L1PMX_WINDOW,
                      _LOWER_SERIES_START, _SMALL_SHAPE_START,
                      _STIRLING_MIN, _branch_series, _cf_result,
                      _halley_residual, _halley_step, _lgamma1p, _log1pmx,
                      _log_gamma_norm_direct, _log_gamma_norm_stirling,
                      _lower_series_run, _q_branches, _root_converged,
                      _series_complement_result, _tail_series_result,
                      _upper_cf_run, _upper_cf_start, _upper_small_shape_run,
                      _wm1_newton_step, branch_roots, reg_gamma_q_detail)

# Iterations per numpy pass of the folded loops: a wider block wastes more
# iterations past each lane's stop.  Timed over 8..128 on a certify pass
# (200 scans up to a = 200), 32 was fastest (0.55 s; 0.62 s at 16, 0.60 s at
# 64); wider blocks win only on long series, up to a = 1e6.
_FOLD_BLOCK = 32
# Iterations per numpy pass of the continued fraction, which hands its last
# lanes to its scalar loop (_finish) once fewer than _LOCKSTEP_MIN_LANES are
# still iterating: below that, numpy's fixed cost per pass exceeds the
# scalar loop's cost.  Timed over blocks of 8..64 and hand-offs of 16..128
# on 400-point scans at c = 1.05, 1.2, 2 and 4.5 up to a = 200 (the certify
# scans), a block of 16 and a hand-off at 64 were fastest: blocks of 32 took
# 15-18% longer, of 48 and 64 40-80% longer, and hand-offs at 32 and 48 up
# to 14%.  Up to a = 1e6 a hand-off at 32 was 16-27% faster than at 64.
_CF_BLOCK = 16
_LOCKSTEP_MIN_LANES = 64
# Values per Python list when _ordered_extreme walks an array.
_ORDERED_CHUNK = 1024

_ZETA_COEF = np.array(specfun._ZETA_TABLE)
# (-1)^k k: dividing by it rounds exactly as _lgamma1p's -(z * a^k / k).
_ZETA_SIGNED_K = np.array([(-1.0) ** k * k
                           for k in range(2, 2 + len(specfun._ZETA_TABLE))])

# c_k of _log1pmx's series for k = 2.._L1PMX_MAX_TERMS-1.
_L1PMX_COEF = np.array([1.0 if k % 2 == 0 else (k - 1.0) / k
                        for k in range(2, specfun._L1PMX_MAX_TERMS)])
# The fixed-length Horner series of _log1pmx_vec sums c_2..c_67.
_L1PMX_VEC_TERMS = 66


def _counts(n: int, width: int) -> np.ndarray:
    """The iteration numbers n+1..n+width as floats."""
    return np.arange(n + 1.0, n + width + 1.0)


def _accumulate(ufunc, carry, steps, width: int,
                order: str = "C") -> np.ndarray:
    """Each lane's left fold of ufunc over carry and its width steps (steps
    broadcast to lanes x width): column k is the state after step k + 1,
    rounded exactly as a scalar loop applying ufunc step by step.  With
    order "F" each column is contiguous, for loops that step a column at a
    time."""
    rows = np.empty((np.shape(carry)[0], width + 1), order=order)
    rows[:, 0] = carry
    rows[:, 1:] = steps
    return ufunc.accumulate(rows, axis=1, out=rows)[:, 1:]


def _lockstep(block, n_max: int, consts: tuple, start: tuple, width: int,
              min_lanes: int = 1) -> tuple[np.ndarray, ...]:
    """Run a loop for arrays of lanes, a block of iterations per pass.

    block(n, width, *consts, *state) returns the states after iterations
    n+1..n+width of every running lane, one lanes x width matrix per state
    variable, and the matching stop matrix; start is the state before the
    first iteration (scalars broadcast).  Each pass runs width iterations,
    or fewer to end at n_max.  A lane leaves at its first stop column with
    that column's state, so its iteration count and final state are
    bit-identical to the scalar loop's.  The loop ends after n_max
    iterations, or once fewer than min_lanes lanes run.

    Returns the lanes still running (in lane order), the iteration counts
    and the final states, one array each; a lane still running keeps the
    count and the state it had when the loop ended.
    """
    state = np.broadcast_arrays(consts[0], *start)[1:]
    out = [s.copy() for s in state]
    n_out = np.empty(consts[0].shape, dtype=np.int64)
    lane = np.arange(consts[0].size)
    n = 0
    while lane.size >= min_lanes and n < n_max:
        w = min(width, n_max - n)
        *cols, stop = block(n, w, *consts, *state)
        state = [col[:, -1] for col in cols]
        if stop.any():
            hit = stop.any(axis=1)
            k = stop[hit].argmax(axis=1)
            done = lane[hit]
            n_out[done] = n + 1 + k
            for o, col in zip(out, cols):
                o[done] = col[hit, k]
            live = ~hit
            lane = lane[live]
            consts = [v[live] for v in consts]
            state = [s[live] for s in state]
        n += w
    n_out[lane] = n
    for o, s in zip(out, state):
        o[lane] = s
    return lane, n_out, *out


def _each_step(step):
    """step(n, *consts, *state) -> (*state, stop), one iteration n of the
    running lanes and their stop mask, as a block of width 1."""
    def block(n, width, *args):
        return [v[:, None] for v in step(n + 1, *args)]
    return block


def _finish(run, consts: tuple, left: np.ndarray, n: np.ndarray,
            *state: np.ndarray) -> tuple[np.ndarray, ...]:
    """Finish the lanes that _lockstep left running, given that call's
    result, on the scalar loop run(*consts, n, *state) -> (n, *state); a
    lane at the cap raises run's ConvergenceError.  Returns the iteration
    counts and the final states."""
    lists = (v[left].tolist() for v in (*consts, n, *state))
    for i, *args in zip(left.tolist(), *lists):
        n[i], *final = run(*args)
        for o, v in zip(state, final):
            o[i] = v
    return n, *state


def _per_lane(fn, values: np.ndarray) -> np.ndarray:
    """fn applied to each lane's Python float, one scalar call per lane."""
    return np.fromiter(map(fn, values.tolist()), dtype=float,
                       count=values.size)


def _ordered_extreme(pick, start: float, values: np.ndarray) -> float:
    """pick (the builtin min or max) over start and then values in C order,
    as one call over one list takes it: ties keep the first value, so of
    two equal signed zeros the earlier, and NaN never wins.  The values
    are walked in chunks, so no Python list of every lane is built."""
    flat = values.ravel()
    for i in range(0, flat.size, _ORDERED_CHUNK):
        start = pick([start, *flat[i:i + _ORDERED_CHUNK].tolist()])
    return start


# The transcendentals of specfun's shared formulas, one scalar call per lane.
_exp, _expm1, _log, _log1p, _lgamma = (partial(_per_lane, fn) for fn in (
    math.exp, math.expm1, math.log, math.log1p, math.lgamma))


def _lgamma1p_block(i, width, a, ak, acc):
    """Terms i..i+width-1 of _lgamma1p's loop on arrays of lanes (ak starts
    at a, so the first fold step makes a*a)."""
    k = slice(i, i + width)
    aks = _accumulate(np.multiply, ak, a[:, None], width)
    terms = _ZETA_COEF[k] * aks / _ZETA_SIGNED_K[k]
    accs = _accumulate(np.add, acc, terms, width)
    stop = np.abs(terms) <= 0.25 * EPS * (np.abs(accs)
                                          + _EULER_GAMMA * a[:, None])
    return aks, accs, stop


def _lgamma1p_lanes(a: np.ndarray) -> np.ndarray:
    """_lgamma1p for arrays of lanes, bit-identical per lane."""
    left, _, _, acc = _lockstep(_lgamma1p_block, len(specfun._ZETA_TABLE),
                                (a,), (a, 0.0), _FOLD_BLOCK)
    for i in left[:1].tolist():
        _lgamma1p(a[i].item())              # raises the scalar loop's error
    return acc - _EULER_GAMMA * a


def _log1pmx_block(i, width, u, uk, acc):
    """Terms i..i+width-1 of _log1pmx's loop (k = i+2..) on arrays of
    lanes (uk starts at u, so the first fold step makes u*u)."""
    uks = _accumulate(np.multiply, uk, u[:, None], width)
    terms = _L1PMX_COEF[i:i + width] * uks
    accs = _accumulate(np.add, acc, terms, width)
    return uks, accs, np.abs(terms) <= 0.25 * EPS * np.abs(accs)


def _log1pmx_lanes(d: np.ndarray) -> np.ndarray:
    """_log1pmx for arrays of lanes, bit-identical per lane."""
    if np.any(d <= -1.0):
        raise DomainError("log1pmx requires d > -1")
    out = np.empty_like(d)
    direct = (np.abs(d) > _L1PMX_WINDOW) | (d < -0.95)
    d_b = d[direct]
    out[direct] = _per_lane(math.log1p, d_b) - d_b
    d_b = d[~direct]
    u = d_b / (2.0 + d_b)
    left, _, _, acc = _lockstep(_log1pmx_block, specfun._L1PMX_MAX_TERMS - 2,
                                (u,), (u, 0.0), _FOLD_BLOCK)
    for i in left[:1].tolist():
        _log1pmx(d_b[i].item())             # raises the scalar loop's error
    out[~direct] = -2.0 * acc
    return out


def _log1pmx_vec(d: np.ndarray) -> np.ndarray:
    """Vectorized log1p(d) - d for d > -1 (quadrature integrands in
    tailprob and the oracle).

    The fixed-length Horner series is only used for |d| <= 0.5, where its
    truncation sits far below eps; outside, the direct form's cancellation
    is bounded by ~4 eps / |d|, adequate for integrand exponents.
    """
    d = np.asarray(d, dtype=float)
    series = np.abs(d) <= 0.5
    out = np.empty_like(d)
    d_b = d[~series]
    out[~series] = np.log1p(d_b) - d_b
    d_b = d[series]
    u = d_b / (2.0 + d_b)
    acc = np.zeros_like(u)
    for c in _L1PMX_COEF[_L1PMX_VEC_TERMS - 1::-1]:
        np.multiply(acc, u, out=acc)
        np.add(acc, c, out=acc)
    out[series] = -2.0 * u * u * acc
    return out


def _log_gamma_norm_lanes(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """_log_gamma_norm for arrays of lanes, bit-identical per lane."""
    out = np.empty_like(a)
    big = a >= _STIRLING_MIN
    # Near the largest double, a * log1pmx((x - a) / a) overflows to -inf,
    # silently, as it does with floats.
    with np.errstate(over="ignore"):
        out[big] = _log_gamma_norm_stirling(a[big], x[big], _log1pmx_lanes,
                                            _log)
    out[~big] = _log_gamma_norm_direct(a[~big], x[~big], _log, _lgamma)
    return out


def _lower_series_block(n, width, a, x, term, total):
    """Iterations n+1..n+width of _lower_series_run on arrays of lanes."""
    terms = _accumulate(np.multiply, term,
                        x[:, None] / (a[:, None] + _counts(n, width)), width)
    totals = _accumulate(np.add, total, terms, width)
    return terms, totals, terms <= 0.25 * EPS * totals


def _upper_cf_rows(an, bs, c, d, cs, ds, tiny: bool) -> None:
    """The recurrences of c and d over a block of _upper_cf_run, one
    iteration per row of an, bs, cs and ds (cs and ds are written); with
    tiny, a c or d of 0 is replaced by _CF_TINY, as the scalar loop does."""
    for an_k, b_k, c_k, d_k in zip(an, bs, cs, ds):
        np.multiply(an_k, d, out=d_k)
        np.add(d_k, b_k, out=d_k)
        if tiny:
            d_k[d_k == 0.0] = _CF_TINY
        np.divide(an_k, c, out=c_k)
        np.add(b_k, c_k, out=c_k)
        if tiny:
            c_k[c_k == 0.0] = _CF_TINY
        np.divide(1.0, d_k, out=d_k)
        c, d = c_k, d_k


def _upper_cf_block(n, width, a, x, b, c, d, h):
    """Iterations n+1..n+width of _upper_cf_run on arrays of lanes.

    Only the recurrences of c and d run per iteration (_upper_cf_rows);
    an, b, delta = d c, the running product h and the stop test are each
    one operation on the whole block.  The block runs without the scalar
    loop's replacement of a zero c or d, and is replayed with it if a c is
    0 or a d infinite (1/0): no input in Q's domain is known to reach it,
    and the replacement's two masks per iteration made certify's
    op_tail_ms about 7% longer (8 alternating pairs of perfbench runs,
    1.78 -> 1.92 ms in the median, longer in every pair).  A lane keeps
    stepping past its stop to the end of the block, where it may overflow
    or divide by zero, so numpy's warnings are muted here.
    """
    counts = _counts(n, width)[:, None]
    an = counts * (a - counts)
    bs = _accumulate(np.add, b, 2.0, width, "F")
    cs, ds = np.empty((2, width, a.size)).transpose(0, 2, 1)
    rows = an, bs.T, c, d, cs.T, ds.T
    with np.errstate(all="ignore"):
        _upper_cf_rows(*rows, False)
        if not cs.all() or np.isinf(ds).any():
            _upper_cf_rows(*rows, True)
        deltas = ds * cs
        hs = _accumulate(np.multiply, h, deltas, width, "F")
    return bs, cs, ds, hs, np.abs(deltas - 1.0) <= EPS


def _upper_cf_lanes(a: np.ndarray, x: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """_upper_cf_run from its start for arrays of lanes: the iteration
    counts and h, bit-identical per lane.  The lanes run in blocks of
    _CF_BLOCK; the last fewer than _LOCKSTEP_MIN_LANES finish on the scalar
    loop, which raises at the cap."""
    n, *_, h = _finish(_upper_cf_run, (a, x), *_lockstep(
        _upper_cf_block, specfun._KERNEL_MAX_ITER, (a, x),
        _upper_cf_start(a, x), _CF_BLOCK, _LOCKSTEP_MIN_LANES))
    return n, h


def _upper_small_shape_block(n, width, a, x, term, h, habs):
    """Iterations n+1..n+width of _upper_small_shape_run on arrays of
    lanes."""
    counts = _counts(n, width)
    terms = _accumulate(np.multiply, term, -x[:, None] / counts, width)
    contrib = terms * (a[:, None] / (a[:, None] + counts))
    hs = _accumulate(np.subtract, h, contrib, width)
    habss = _accumulate(np.add, habs, np.abs(contrib), width)
    stop = np.abs(terms) <= 0.25 * EPS * np.maximum(np.abs(hs), 1e-300)
    return terms, hs, habss, stop


def _reg_gamma_q_lanes(a: np.ndarray, x: np.ndarray, ln_norm: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """reg_gamma_q_detail's value and err_bound for arrays of lanes with
    x > 0 and a + 1 > a, given each lane's _log_gamma_norm(a, x): each
    branch's loop in blocks of _lockstep, and the branch masks and each
    branch's result specfun's formulas.
    """
    q = np.empty_like(a)
    err = np.empty_like(a)
    cf, small = _q_branches(a, x)
    series = ~(cf | small)
    max_iter = specfun._KERNEL_MAX_ITER
    if cf.any():
        a_b, x_b = a[cf], x[cf]
        n, h = _upper_cf_lanes(a_b, x_b)
        q[cf], err[cf] = _cf_result(ln_norm[cf], n, h, _exp)
    if small.any():
        a_b, x_b = a[small], x[small]
        n, _, h, habs = _finish(
            _upper_small_shape_run, (a_b, x_b), *_lockstep(
                _upper_small_shape_block, max_iter, (a_b, x_b),
                _SMALL_SHAPE_START, _FOLD_BLOCK))
        q[small], err[small] = _tail_series_result(
            a_b, x_b, n, h, habs, _log, _lgamma1p_lanes, _exp, _expm1)
    if series.any():
        a_b, x_b = a[series], x[series]
        n, _, total = _finish(_lower_series_run, (a_b, x_b), *_lockstep(
            _lower_series_block, max_iter, (a_b, x_b),
            _LOWER_SERIES_START, _FOLD_BLOCK))
        q[series], err[series] = _series_complement_result(
            ln_norm[series], a_b, n, total, _log, _exp)
    return q, err


def _reg_gamma_q_core(a: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, ...]:
    """Q's values and err_bounds for equal-shape arrays of lanes (a, x), the
    mask of the lanes with x > 0 and their _log_gamma_norm(a, x); lanes with
    x == 0 are 1.0 with bound 0.  DomainError unless every lane lies in
    reg_gamma_q_detail's domain."""
    live = x > 0.0
    if not np.all(np.isfinite(a) & np.isfinite(x) & (a > 0.0)
                  & (x >= 0.0) & ~(live & (a + 1.0 == a))):
        raise DomainError("Q's lanes require finite a > 0 and x >= 0, and a "
                          "below 2**53 where x > 0")
    q, err = np.ones(a.shape), np.zeros(a.shape)
    a_l, x_l = a[live], x[live]
    ln_norm = _log_gamma_norm_lanes(a_l, x_l)
    q[live], err[live] = _reg_gamma_q_lanes(a_l, x_l, ln_norm)
    return q, err, live, ln_norm


def reg_gamma_q_many(a, x) -> np.ndarray:
    """reg_gamma_q for equal-shape arrays of lanes (a, x), each lane
    bit-identical to the scalar call; lanes with x == 0 are 1.0.

    One pass of _reg_gamma_q_core.  If any lane fails, the error raised is
    the first one a loop of reg_gamma_q calls in lane order raises.
    """
    a, x = np.broadcast_arrays(np.asarray(a, dtype=float),
                               np.asarray(x, dtype=float))
    try:
        q = _reg_gamma_q_core(a, x)[0]
    except GammaTailError:
        # Lanes of several branches may fail; the scalar loop says which
        # fails first, and how.
        for a_i, x_i in zip(a.ravel().tolist(), x.ravel().tolist()):
            reg_gamma_q_detail(a_i, x_i)
        raise
    return q


class BranchRootLanes(NamedTuple):
    """branch_roots for an array of z: BranchRoots' fields, one array each."""

    z: np.ndarray
    x1: np.ndarray
    x2: np.ndarray


def _halley_lane_step(n, v, w):
    """One iteration of specfun._halley_iterate on arrays of lanes."""
    ew, f = _halley_residual(v, w, _exp)
    exact = f == 0.0                    # the scalar loop stops unstepped
    with np.errstate(divide="ignore", invalid="ignore"):
        step = _halley_step(w, ew, f)
        w = np.where(exact, w, w - step)
    return w, exact | _root_converged(step, w)


def _wm1_newton_lane_step(n, t_target, t):
    """One iteration of lambert_wm1's Newton loop on arrays of lanes."""
    step = _wm1_newton_step(t, t_target, _log)
    t = t - step
    return t, _root_converged(step, t)


def _lane_roots(step, consts: tuple, start: tuple) -> np.ndarray:
    """A Lambert solver's loop run to its stop for every lane; a lane still
    running at the cap raises."""
    left, _, w = _lockstep(_each_step(step), specfun._ROOT_MAX_ITER,
                           consts, start, 1)
    if left.size:
        raise specfun._not_converged("Lambert solver lanes",
                                     specfun._ROOT_MAX_ITER)
    return w


def branch_roots_many(z) -> BranchRootLanes:
    """branch_roots for a 1-D array of z, each lane bit-identical to the
    scalar call.

    The regimes of lambert_w0 and lambert_wm1 on [-1/e, 0) are masks: the
    branch-point series inside _BRANCH_WINDOW; outside it, Halley from the
    series or log1p seed, or for W-1 above v = -0.25 Newton in t = -w.  All
    Halley lanes of both branches iterate in one _lockstep call, the Newton
    lanes in another, with one math function call per lane for exp, log
    and log1p.  If any lane fails, the error raised is
    the first one a loop of branch_roots calls in lane order raises.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim != 1:
        raise DomainError("branch_roots_many takes a 1-D array of z")
    try:
        if not np.all((Z_MIN <= z) & (z <= 1.0 - Z_GAP)):
            raise DomainError("branch_roots requires z in [1e-300, 1 - 1e-12]")
        v = -z * _INV_E
        ev1 = math.e * v + 1.0
        window = np.abs(v + _INV_E) < _BRANCH_WINDOW
        ev1_w = ev1[window]
        p = np.sqrt(2.0 * np.where(0.0 > ev1_w, 0.0, ev1_w))  # max(ev1, 0.0)
        w0, wm1 = np.empty_like(v), np.empty_like(v)
        w0[window], wm1[window] = _branch_series(p), _branch_series(-p)
        # Halley for W0 outside the window (v < 100 throughout), and for
        # W-1 up to v = -0.25, in one lockstep call.
        outside = ~window
        deep = outside & (v < -0.25)
        seeds0 = np.empty_like(v)
        seeds0[deep] = _branch_series(np.sqrt(2.0 * ev1[deep]))
        shallow = outside & ~deep
        seeds0[shallow] = _log1p(v[shallow])
        halley1 = outside & (v <= -0.25)
        seeds1 = _branch_series(-np.sqrt(2.0 * ev1[halley1]))
        n0 = int(outside.sum())
        w = _lane_roots(_halley_lane_step,
                        (np.concatenate((v[outside], v[halley1])),),
                        (np.concatenate((seeds0[outside], seeds1)),))
        w0[outside], wm1[halley1] = w[:n0], w[n0:]
        newton = outside & ~halley1
        t_target = _log(-v[newton])
        t = _lane_roots(_wm1_newton_lane_step, (t_target,),
                        (-t_target + _log(np.maximum(-t_target, 2.0)),))
        wm1[newton] = -t
        x1, x2 = -w0, -wm1
        if not np.all((0.0 < x1) & (x1 < 1.0) & (1.0 < x2)):
            raise DomainError("roots must straddle the peak at 1")
    except GammaTailError:
        for z_i in z.tolist():
            branch_roots(z_i)
        raise
    return BranchRootLanes(z, x1, x2)
