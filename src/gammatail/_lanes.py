"""The numpy lane machinery behind the batched kernels.

_reg_gamma_q_core, Q's one lane core, evaluates whole arrays of lanes,
every lane bit-identical to specfun's scalar kernel: behind reg_gamma_q_many
(any (a, x) lanes, such as the acceptance grid) and tailprob.tail_prob_many
(shapes at one offset or one per shape, the plateau at x = 0).  Only the
loops live here: the branch masks, each branch's result and the log
prefactor are specfun's formulas, given per-lane transcendentals.  The core
takes each live lane's ln x once, one math.log call per lane, and hands
that value to every formula that uses it: the direct prefactor, the
small-shape tail's result and tailprob's argument charge.

Every loop runs on one driver, _lockstep: each numpy pass runs a block of
iterations of all running lanes, and a lane retires at its first stop
column with that column's state, so its count and final state are the
scalar loop's.  The first-order loops -- the ascending series, the
small-shape tail and the _log1pmx Taylor sum -- fold _FOLD_BLOCK
iterations per pass: each state variable is one row-wise ufunc.accumulate,
a sequential left fold, so every column holds the scalar loop's bits at
that iteration.  The continued fraction (_upper_cf_block) runs _CF_BLOCK
iterations per pass: only the recurrences of c and d per iteration, and
its other steps and its stop test once per block.  The Taylor sums of _dd
run one step per pass (_each_step).  _finish continues the lanes the driver
leaves running on their scalar loop, which raises at its cap.  _log1pmx_vec
is the fixed-length log1p(d) - d of the quadrature integrands.

branch_roots_many takes one branch_roots call per z, so specfun's scalar
Lambert solver is the only one.  Its BranchRootLanes feed tailprob's
direction_form_detail and integrand_ratio, which take lanes as well as a
BranchRoots; C08 and C12 call it.

specfun holds the scalar loops and imports no numpy; this module holds
everything that does.  The loop caps _KERNEL_MAX_ITER and _L1PMX_MAX_TERMS
are read from specfun at each call, so the lanes and the scalar loops always
share them.  The small-shape tail's lnGamma(1 + a) is specfun's loop-free
_lgamma1p, called on the array of lanes.
"""
from __future__ import annotations

import math
from functools import partial
from typing import NamedTuple

import numpy as np

from . import specfun
from .errors import DomainError, GammaTailError
from .specfun import (EPS, _CF_TINY, _L1PMX_WINDOW, _LOWER_SERIES_START,
                      _SMALL_SHAPE_START, _STIRLING_MIN, _cf_result, _log1pmx,
                      _log_gamma_norm_direct, _log_gamma_norm_stirling,
                      _lower_series_run, _q_branches,
                      _series_complement_result, _tail_series_result,
                      _upper_cf_run, _upper_cf_start, _upper_small_shape_run,
                      branch_roots, reg_gamma_q_detail)

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

# c_k of _log1pmx's series for k = 2.._L1PMX_MAX_TERMS-1.
_L1PMX_COEF = np.array([1.0 if k % 2 == 0 else (k - 1.0) / k
                        for k in range(2, specfun._L1PMX_MAX_TERMS)])
# The fixed-length Horner series of _log1pmx_vec sums c_2..c_37.
_L1PMX_VEC_TERMS = 36


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
    first iteration, per variable one value for all lanes or an array of
    one per lane, which the loop copies and neither writes nor returns.
    Each pass runs width iterations, or fewer to end at n_max.  A lane
    leaves at its first stop column with that column's state, so its
    iteration count and final state are bit-identical to the scalar
    loop's.  The loop ends after n_max iterations, or once fewer than
    min_lanes lanes run.

    Returns the lanes still running (in lane order), the iteration counts
    and the final states, one array each; a lane still running keeps the
    count and the state it had when the loop ended.
    """
    out = state = [np.full(consts[0].shape, s) for s in start]
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


# The transcendentals of specfun's shared formulas, one scalar call per lane.
_exp, _expm1, _log, _log1p, _lgamma = (partial(_per_lane, fn) for fn in (
    math.exp, math.expm1, math.log, math.log1p, math.lgamma))


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
    tailprob, the oracle and integrated_defect).

    The Horner series of c_2..c_37 in u = d/(2 + d) is only used for
    |d| <= 0.5: there |u| <= 1/3, and the tail it drops is at most
    |u|^36 / (1 - |u|) < 1e-17 of the sum, below 0.1 ulp.  Outside, the
    direct form's cancellation is bounded by ~4 eps / |d|, adequate for
    integrand exponents.
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


def _log_gamma_norm_lanes(a: np.ndarray, x: np.ndarray, log_x: np.ndarray
                          ) -> np.ndarray:
    """_log_gamma_norm for arrays of lanes, bit-identical per lane, given
    each lane's log_x = ln x."""
    out = np.empty_like(a)
    big = a >= _STIRLING_MIN
    # Near the largest double, a * log1pmx((x - a) / a) overflows to -inf,
    # silently, as it does with floats.
    with np.errstate(over="ignore"):
        out[big] = _log_gamma_norm_stirling(a[big], x[big], _log1pmx_lanes,
                                            _log)
    out[~big] = _log_gamma_norm_direct(a[~big], x[~big], log_x[~big],
                                       _lgamma)
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


def _reg_gamma_q_lanes(a: np.ndarray, x: np.ndarray, log_x: np.ndarray,
                       ln_norm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """reg_gamma_q_detail's value and err_bound for arrays of lanes with
    x > 0 and a + 1 > a, given each lane's ln x and _log_gamma_norm(a, x):
    each branch's loop in blocks of _lockstep, and the branch masks and
    each branch's result specfun's formulas.
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
            a_b, log_x[small], n, h, habs, _exp, _expm1)
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
    mask of the lanes with x > 0, and their _log_gamma_norm(a, x) and ln x;
    lanes with x == 0 are 1.0 with bound 0.  DomainError unless every lane
    lies in reg_gamma_q_detail's domain."""
    live = x > 0.0
    if not np.all(np.isfinite(a) & np.isfinite(x) & (a > 0.0)
                  & (x >= 0.0) & ~(live & (a + 1.0 == a))):
        raise DomainError("Q's lanes require finite a > 0 and x >= 0, and a "
                          "below 2**53 where x > 0")
    q, err = np.ones(a.shape), np.zeros(a.shape)
    a_l, x_l = a[live], x[live]
    log_x = _log(x_l)
    ln_norm = _log_gamma_norm_lanes(a_l, x_l, log_x)
    q[live], err[live] = _reg_gamma_q_lanes(a_l, x_l, log_x, ln_norm)
    return q, err, live, ln_norm, log_x


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


def branch_roots_many(z) -> BranchRootLanes:
    """branch_roots for a 1-D array of z: one scalar call per z, in lane
    order, so each lane is the scalar call's bits and a failure is the
    first one a loop of branch_roots calls raises."""
    z = np.asarray(z, dtype=float)
    if z.ndim != 1:
        raise DomainError("branch_roots_many takes a 1-D array of z")
    roots = [branch_roots(z_i) for z_i in z.tolist()]
    return BranchRootLanes(z, np.array([r.x1 for r in roots], dtype=float),
                           np.array([r.x2 for r in roots], dtype=float))
