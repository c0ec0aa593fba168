"""The numpy lane machinery behind the batched kernels.

_reg_gamma_q_lanes and _log_gamma_norm_lanes evaluate whole arrays of lanes,
every lane bit-identical to the scalar kernels of specfun: behind
reg_gamma_q_many (any (a, x) lanes, such as the acceptance grid) and
tailprob.tail_prob_many (scan grids at one offset).  The first-order loops
-- the ascending series, the small-shape tail and the _log1pmx and
_lgamma1p Taylor sums -- fold _FOLD_BLOCK iterations of all lanes per numpy
pass (_fold): each state variable is one row-wise ufunc.accumulate, a
sequential left fold, so every column holds the scalar loop's bits at that
iteration.  Other loops run one iteration of all lanes per pass (_lockstep):
the continued fraction (_upper_cf_step) and the Taylor sums of _dd.
_finish continues the lanes either one leaves running on their scalar loop,
which raises at its cap.  _log1pmx_vec is the fixed-length log1p(d) - d of
the quadrature integrands.

specfun holds the scalar loops and imports no numpy; this module holds
everything that does.  The loop caps _KERNEL_MAX_ITER, _L1PMX_MAX_TERMS and
_ZETA_TABLE are read from specfun at each call, so the lanes and the scalar
loops always share them.
"""
from __future__ import annotations

import math

import numpy as np

from . import specfun
from .errors import DomainError, GammaTailError
from .specfun import (EPS, _CF_TINY, _EULER_GAMMA, _L1PMX_WINDOW,
                      _LOWER_SERIES_START, _SMALL_SHAPE, _SMALL_SHAPE_START,
                      _STIRLING_MIN, _TWO_PI, _kernel_rel, _lgamma1p,
                      _log1pmx, _lower_series_run, _small_shape_err,
                      _stirling_phi, _upper_cf_run, _upper_cf_start,
                      _upper_small_shape_run, reg_gamma_q_detail)

# The continued fraction, run for many lanes at once one iteration per
# numpy pass (_lockstep), hands its last lanes to its scalar loop (_finish)
# once fewer than this many are still iterating: below it, numpy's fixed
# cost per iteration exceeds the scalar loop's cost.  Timed over 8..128 on
# 400-point scans up to a = 200 and up to a = 1e6, 64 was fastest on both.
_LOCKSTEP_MIN_LANES = 64
# Iterations per numpy pass of the folded loops (_fold): a wider block
# wastes more iterations past each lane's stop.  Timed over 8..128 on a
# certify pass (200 scans up to a = 200), 32 was fastest (0.55 s; 0.62 s at
# 16, 0.60 s at 64); wider blocks win only on long series, up to a = 1e6.
_FOLD_BLOCK = 32

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


def _accumulate(ufunc, carry, steps, width: int) -> np.ndarray:
    """Each lane's left fold of ufunc over carry and its width steps (steps
    broadcast to lanes x width): column k is the state after step k + 1,
    rounded exactly as a scalar loop applying ufunc step by step."""
    rows = np.empty((np.shape(carry)[0], width + 1))
    rows[:, 0] = carry
    rows[:, 1:] = steps
    return ufunc.accumulate(rows, axis=1, out=rows)[:, 1:]


def _fold(block, n_max: int, consts: tuple, start: tuple
          ) -> tuple[np.ndarray, ...]:
    """Run a loop whose iterations block folds, for arrays of lanes.

    block(n, width, *consts, *state) returns the states after iterations
    n+1..n+width of every lane, one lanes x width matrix per state
    variable, and the matching stop matrix; start is the state before the
    first iteration (scalars broadcast).  Each pass runs _FOLD_BLOCK
    iterations, or fewer to end at n_max.  A lane leaves at its first stop
    column with that column's state, so its iteration count and final state
    are bit-identical to the scalar loop's.

    Returns the lanes still running after n_max iterations (in lane order),
    the iteration counts and the final states, one array each; a lane still
    running counts n_max and keeps its state there.
    """
    state = np.broadcast_arrays(consts[0], *start)[1:]
    out = [s.copy() for s in state]
    n_out = np.full(consts[0].shape, n_max, dtype=np.int64)
    lane = np.arange(consts[0].size)
    n = 0
    while lane.size and n < n_max:
        width = min(_FOLD_BLOCK, n_max - n)
        *cols, stop = block(n, width, *consts, *state)
        first = stop.argmax(axis=1)
        rows = np.arange(lane.size)
        hit = stop[rows, first]
        if hit.any():
            done, k = lane[hit], first[hit]
            n_out[done] = n + 1 + k
            for o, col in zip(out, cols):
                o[done] = col[rows[hit], k]
            live = ~hit
            lane = lane[live]
            consts = [v[live] for v in consts]
            state = [col[live, -1] for col in cols]
        else:
            state = [col[:, -1] for col in cols]
        n += width
    for o, s in zip(out, state):
        o[lane] = s
    return lane, n_out, *out


def _lockstep(step, n_max: int, consts: tuple, start: tuple,
              min_lanes: int) -> tuple[np.ndarray, ...]:
    """Run a loop for arrays of lanes, one iteration of all lanes per pass.

    step(n, *consts, *state) returns the state after iteration n of the
    running lanes and their stop mask; start is the state before the first
    iteration (scalars broadcast).  A lane leaves at its own stopping
    iteration, so its count and final state are bit-identical to the scalar
    loop's.  The loop ends after n_max iterations, or once fewer than
    min_lanes lanes run.  Returns what _fold returns.
    """
    state = np.broadcast_arrays(consts[0], *start)[1:]
    out = [s.copy() for s in state]
    n_out = np.empty(consts[0].shape, dtype=np.int64)
    lane = np.arange(consts[0].size)
    n = 0
    while lane.size >= min_lanes and n < n_max:
        n += 1
        *state, stop = step(n, *consts, *state)
        if stop.any():
            hit = lane[stop]
            n_out[hit] = n
            for o, s in zip(out, state):
                o[hit] = s[stop]
            live = ~stop
            lane = lane[live]
            consts = [v[live] for v in consts]
            state = [s[live] for s in state]
    n_out[lane] = n
    for o, s in zip(out, state):
        o[lane] = s
    return lane, n_out, *out


def _finish(run, consts: tuple, left: np.ndarray, n: np.ndarray,
            *state: np.ndarray) -> tuple[np.ndarray, ...]:
    """Finish the lanes that _fold or _lockstep left running, given that
    call's result, on the scalar loop run(*consts, n, *state) -> (n,
    *state); a lane at the cap raises run's ConvergenceError.  Returns the
    iteration counts and the final states."""
    lists = (v[left].tolist() for v in (*consts, n, *state))
    for i, *args in zip(left.tolist(), *lists):
        n[i], *final = run(*args)
        for o, v in zip(state, final):
            o[i] = v
    return n, *state


def _per_lane(fn, *arrays: np.ndarray) -> np.ndarray:
    """fn applied to each lane's Python floats, one scalar call per lane."""
    return np.array(list(map(fn, *(v.tolist() for v in arrays))), dtype=float)


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
    left, _, _, acc = _fold(_lgamma1p_block, len(specfun._ZETA_TABLE), (a,),
                            (a, 0.0))
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
    left, _, _, acc = _fold(_log1pmx_block, specfun._L1PMX_MAX_TERMS - 2,
                            (u,), (u, 0.0))
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
    """_log_gamma_norm for arrays of lanes, bit-identical per lane: the
    same operations in numpy, each transcendental one scalar call."""
    out = np.empty_like(a)
    big = a >= _STIRLING_MIN
    a_b = a[big]
    d = (x[big] - a_b) / a_b
    out[big] = (a_b * _log1pmx_lanes(d)
                + 0.5 * _per_lane(math.log, a_b / _TWO_PI)
                - _stirling_phi(a_b))
    a_b, x_b = a[~big], x[~big]
    out[~big] = (a_b * _per_lane(math.log, x_b) - x_b
                 - _per_lane(math.lgamma, a_b))
    return out


def _lower_series_block(n, width, a, x, term, total):
    """Iterations n+1..n+width of _lower_series_run on arrays of lanes."""
    terms = _accumulate(np.multiply, term,
                        x[:, None] / (a[:, None] + _counts(n, width)), width)
    totals = _accumulate(np.add, total, terms, width)
    return terms, totals, terms <= 0.25 * EPS * totals


def _upper_cf_step(n, a, x, b, c, d, h):
    """One iteration of _upper_cf_run on arrays of lanes."""
    an = n * (a - n)
    b = b + 2.0
    d = an * d + b
    d = np.where(d == 0.0, _CF_TINY, d)
    c = b + an / c
    c = np.where(c == 0.0, _CF_TINY, c)
    d = 1.0 / d
    delta = d * c
    h = h * delta
    return b, c, d, h, np.abs(delta - 1.0) <= EPS


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
    x > 0 and a + 1 > a, given each lane's _log_gamma_norm(a, x).

    The branch choice and the bound assembly are reg_gamma_q_detail's, in
    numpy + - * / on whole branches; the series loops fold in blocks, the
    continued fraction runs in lockstep, and every transcendental is one
    scalar call per lane, so each lane is bit-identical to the scalar call.
    """
    q = np.empty_like(a)
    err = np.empty_like(a)
    cf = x >= a + 1.0
    small = ~cf & (a <= _SMALL_SHAPE)
    series = ~(cf | small)
    max_iter = specfun._KERNEL_MAX_ITER
    if cf.any():
        a_b, x_b, ln_pref = a[cf], x[cf], ln_norm[cf]
        n, *_, h = _finish(_upper_cf_run, (a_b, x_b), *_lockstep(
            _upper_cf_step, max_iter, (a_b, x_b),
            _upper_cf_start(a_b, x_b), _LOCKSTEP_MIN_LANES))
        q[cf] = value = _per_lane(math.exp, ln_pref) * h
        err[cf] = _kernel_rel(ln_pref, n) * value + 5e-324
    if small.any():
        a_b, x_b = a[small], x[small]
        alnx = a_b * _per_lane(math.log, x_b)
        lg = _lgamma1p_lanes(a_b)
        g = alnx - lg
        n, _, h, habs = _finish(_upper_small_shape_run, (a_b, x_b), *_fold(
            _upper_small_shape_block, max_iter, (a_b, x_b),
            _SMALL_SHAPE_START))
        eg = _per_lane(math.exp, g)
        q[small] = value = -_per_lane(math.expm1, g) + eg * h
        err[small] = _small_shape_err(alnx, lg, g, eg, n, habs,
                                      value) + 5e-324
    if series.any():
        a_b, x_b = a[series], x[series]
        ln_pref = ln_norm[series] - _per_lane(math.log, a_b)
        n, _, total = _finish(_lower_series_run, (a_b, x_b), *_fold(
            _lower_series_block, max_iter, (a_b, x_b),
            _LOWER_SERIES_START))
        p = _per_lane(math.exp, ln_pref) * total
        q[series] = 1.0 - p
        err[series] = _kernel_rel(ln_pref, n) * p + EPS
    return q, err


def reg_gamma_q_many(a, x) -> np.ndarray:
    """reg_gamma_q for equal-shape arrays of lanes (a, x), each lane
    bit-identical to the scalar call; lanes with x == 0 are 1.0.

    One pass of _reg_gamma_q_lanes over all lanes with x > 0.  If any lane
    fails, the error raised is the first one a loop of reg_gamma_q calls in
    lane order raises.
    """
    a, x = np.broadcast_arrays(np.asarray(a, dtype=float),
                               np.asarray(x, dtype=float))
    q = np.ones(a.shape)
    live = x > 0.0
    try:
        if not np.all(np.isfinite(a) & np.isfinite(x) & (a > 0.0)
                      & (x >= 0.0) & ~(live & (a + 1.0 == a))):
            raise DomainError("reg_gamma_q_many requires finite a > 0 and "
                              "x >= 0, and a below 2**53 where x > 0")
        a_l, x_l = a[live], x[live]
        q[live] = _reg_gamma_q_lanes(a_l, x_l,
                                     _log_gamma_norm_lanes(a_l, x_l))[0]
    except GammaTailError:
        # Lanes of several branches may fail; the scalar loop says which
        # fails first, and how.
        for a_i, x_i in zip(a.ravel().tolist(), x.ravel().tolist()):
            reg_gamma_q_detail(a_i, x_i)
        raise
    return q
