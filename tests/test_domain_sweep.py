"""A seeded sweep of every exported function over the edges of its domain.

The library twin of the CLI fuzz in test_cli.py.  Each row of _ROWS gives a
function its probes -- the ends of the double range, the branch switches of
its documented domain and seeded log-uniform draws -- with its documented
domain and the range its results must lie in.  The outcomes allowed are a
result in that range with no NaN anywhere in it, or a GammaTailError: a
DomainError only outside the documented domain, and a CertificationError
never, since no input contradicts a proven statement.  A bare Python
exception or a RuntimeWarning fails.
"""
from __future__ import annotations

import inspect
import math
import random
import sys
import warnings

import numpy as np
import pytest

import gammatail
from gammatail import (CertificationError, DomainError, GammaTailError,
                       ScanSpec, TailQuery)
from gammatail._lanes import branch_roots_many, reg_gamma_q_many

MAX = sys.float_info.max
TINY = 5e-324
# The ends of the double range, and the points the domains below switch at:
# 0, 1/2 (Q's small-shape series), 1, 24 (Q's Stirling prefactor) and 2^53
# (where a + 1 rounds to a).
EDGES = (-math.inf, -MAX, -1.0, -TINY, 0.0, TINY, sys.float_info.min, 1e-300,
         1e-16, 0.5, 1.0, 2.0, 24.0, 1e6, 2.0 ** 53, 1e300, MAX, math.inf,
         math.nan)
SHAPES = EDGES + (math.nextafter(0.5, 1.0), math.nextafter(24.0, 0.0), 1e15)
# The threshold chain's switches: its Taylor branch to 1.25, its top at 1e75,
# and the points where its formulas once overflowed or cancelled.
CHAIN_YS = EDGES + (math.nextafter(1.0, 2.0), 1.25, math.nextafter(1.25, 2.0),
                    1e16, 1e17, 1e20, 1e75, math.nextafter(1e75, math.inf),
                    1e77, 1e153, 1.3e154)
ONE_THIRD = 1.0 / 3.0
INV_E = 1.0 / math.e


def _logu(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _finite(*values):
    return all(math.isfinite(v) for v in values)


def _bound(err):
    return 0.0 <= err < math.inf


def _pairs(xs, ys=None):
    return [(x, y) for x in xs for y in (xs if ys is None else ys)]


# Each kernel and tail function, and its lane forms.

def _q_domain(a, x):
    return _finite(a, x) and a > 0.0 and x >= 0.0 and (x == 0.0
                                                       or a + 1.0 > a)


def _q_probes(rng):
    # Each shape also meets its continued-fraction switch x = a + 1 and a
    # point below half an ulp of it, where x - a rounds to -a.
    probes = _pairs(SHAPES, EDGES)
    probes += [(a, x) for a in SHAPES for x in (a + 1.0, a * 2.0 ** -54)]
    for _ in range(60):
        a = _logu(rng, 1e-300, 1e8)
        probes.append((a, rng.choice((_logu(rng, TINY, MAX),
                                      a * 2.0 ** -54 * rng.random(),
                                      a * rng.uniform(0.9, 1.1), a + 1.0))))
    return probes


def _q_lanes(rng):
    # The in-domain points up to a = 1e6, which no kernel loop caps, in one
    # call, and again with an out-of-domain lane last.
    a, x = (np.array(v) for v in zip(*(
        p for p in _q_probes(rng) if _q_domain(*p) and p[0] <= 1e6)))
    return [(a, x), (np.append(a, -1.0), np.append(x, 1.0))]


def _lanes_in(domain):
    return lambda *arrays: all(map(domain, *(np.ravel(v).tolist()
                                             for v in arrays)))


def _tail_domain(a, c):
    return _finite(a, c) and a > 0.0 and (a + c <= 0.0 or a + 1.0 > a)


def _tail_probes(rng):
    probes = _pairs(SHAPES, EDGES)
    probes += [(a, c) for a in SHAPES
               for c in (-a, math.nextafter(-a, 0.0), -ONE_THIRD)]
    for _ in range(40):
        a = _logu(rng, 1e-300, 1e8)
        probes.append((a, rng.choice((-a * rng.random(), rng.uniform(-1, 1),
                                      _logu(rng, TINY, MAX)))))
    return probes


def _tail_lanes(rng):
    a = np.array([a for a in SHAPES if _tail_domain(a, 0.0) and a <= 1e6])
    return [(a, c) for c in (0.0, -ONE_THIRD, -1.0, MAX, -a)] + [
        (np.append(a, 2.0 ** 53), 0.0)]


def _tail_probs(values, errs):
    return np.all((values >= 0.0) & (values <= 1.0) & (errs >= 0.0)
                  & np.isfinite(errs))


# The peak map's branches, the means and the threshold chain.

def _z_probes(rng):
    z_min, z_max = 1e-300, 1.0 - 1e-12
    # 1 - 1e-6 e is the branch-point window's edge, e/4 the v = -0.25 switch.
    return [(z,) for z in EDGES + (
        z_min, math.nextafter(z_min, 0.0), z_max, math.nextafter(z_max, 1.0),
        1.0 - 1e-6 * math.e, math.e / 4.0)] + [
        (_logu(rng, 1e-300, 1.0),) for _ in range(20)]


def _z_domain(z):
    return 1e-300 <= z <= 1.0 - 1e-12


def _roots(rng):
    return [gammatail.branch_roots(z) for (z,) in _z_probes(rng)
            if _z_domain(z)]


def _roots_and_c(rng):
    roots = _roots(rng)
    lanes = branch_roots_many(np.array([r.z for r in roots]))
    return [(r, c) for r in (*roots[::4], lanes)
            for c in EDGES + (-1e300, 1e300)]


def _c_domain(roots, c):
    return abs(c) <= 1e300


def _w_probes(rng):
    return [(v,) for v in EDGES + (
        -INV_E, -INV_E - 1e-15, -INV_E - 1e-13, -INV_E + 1e-6, -0.25, 100.0)]


def _chain_grids(rng):
    draws = sorted(_logu(rng, 1.0 + 1e-12, 1e75) for _ in range(12))
    return [([2.0, 1e200, 1e300],), ([1.0 + 1e-12, 1.25, 2.0, 1e17, 1e75],),
            ([],), ([2.0],), ([1.0, 2.0],), ([2.0, 1.5],), ([2.0, math.inf],),
            ([2.0, math.nan],), ([1e75, 1e76],), (draws,)]


def _chain_domain(ys):
    return (len(ys) >= 2 and all(1.0 < y <= 1e75 for y in ys)
            and all(a < b for a, b in zip(ys, ys[1:])))


def _mean_pairs(rng):
    draws = []
    for _ in range(20):
        x = _logu(rng, TINY, MAX)
        draws.append((x, min(x * (1.0 + _logu(rng, 1e-12, 1e3)), MAX)))
    return [([p],) for p in (
        (1.0, 2.0), (TINY, 1.0), (1e-300, 1e300), (TINY, MAX), (1.0, 1.0),
        (2.0, 1.0), (1.0, math.inf), (math.nan, 1.0))] + [
        ([],), ([(1.0, 2.0, 3.0)],), (draws,)]


def _mean_domain(pairs):
    return bool(pairs) and all(
        len(p) == 2 and _finite(*p) and 0.0 < p[0] < p[1]
        and math.frexp(p[1])[1] - math.frexp(p[0])[1] < 1000 for p in pairs)


# The integral identity, the medians and the certification engines.

def _ratio_probes(rng):
    us = (-1.0, math.nextafter(-1.0, 0.0), -0.5, 0.0, 1.0, 1e3, 1e9, 1e300,
          MAX, math.inf, math.nan)
    cs = (-MAX, -1e300, -1.0, 0.0, 1.0, 800.0, 1e6, 1e300, MAX, math.nan)
    return _pairs(us, cs) + [(_logu(rng, 1e-3, 1e6), rng.uniform(-0.9, 5.0))
                             for _ in range(10)]


def _ratio_ok(parts):
    return all(_finite(p.head_integral, p.tail_integral, p.ratio)
               and p.head_integral > 0.0 and p.tail_integral > 0.0
               and p.ratio > 0.0 and _bound(p.head_err)
               and _bound(p.tail_err) and _bound(p.ratio_err)
               for p in parts)


def _median_shapes(rng):
    return [(a,) for a in EDGES + (1.0043e-3, 1.0044e-3, 0.35, 3.5e7, 1e9)]


def _median_domain(a):
    # Below about 1.0043e-3 the median lies under the solver's 1e-300 floor.
    return 1.0044e-3 <= a < 2.0 ** 53


def _bracket_grids(rng):
    return [([1e-300, 0.5, 24.0, 1e6],), ([TINY],), ([2.0 ** 53],), ([],),
            ([[1.0, 2.0]],), ([math.nan],), ([0.0],),
            (sorted(_logu(rng, 1e-300, 1e8) for _ in range(10)),)]


def _bracket_domain(grid):
    return (len(grid) > 0 and all(isinstance(a, float) for a in grid)
            and all(0.0 < a < 2.0 ** 53 for a in grid))


def _scans(rng):
    probes = []
    for c in (0.5, 0.0, -0.2, -ONE_THIRD, -1.0, 1e308, MAX, -1e300,
              math.inf, math.nan):
        a_lo = max(-c, 1e-3) if math.isfinite(c) else 1.0
        probes += [(c, ScanSpec(a_lo, 2.0 * a_lo + 10.0, 5)),
                   (c, ScanSpec(1e-300, 1e6, 5))]
    return probes


def _scan_domain(c, scan):
    return (math.isfinite(c) and scan.a_min >= -c and scan.a_max < 2.0 ** 53)


def _in_third(c, *_):
    return -ONE_THIRD < c < 0.0


def _defect_probes(rng):
    return _pairs((-1.0, math.nextafter(-1.0, 0.0), -0.5, -ONE_THIRD, -TINY,
                   0.0, math.nan),
                  (TINY, 1e-300, math.nextafter(1e-100, 0.0), 1e-100, 1e-16,
                   0.0025, 0.5, math.nextafter(1.0, 0.0), 1.0))


def _defect_domain(c, eps):
    return -1.0 < c < 0.0 and 1e-100 <= eps < 1.0


def _quad_probes(rng):
    # The intervals at the default rel_tol, then rel_tol's edges on one.
    return [(np.cos, lo, hi, 1e-10) for lo, hi in (
        (0.0, 1.0), (0.0, 1e300), (-MAX, MAX), (1.0, 0.0), (0.0, math.inf),
        (math.nan, 1.0), (TINY, 2 * TINY))] + [
        (np.cos, 0.0, 1.0, tol) for tol in (
            -math.inf, -1.0, -TINY, 0.0, TINY, 1e-300, 1e-16, 0.5, 1.0, MAX,
            math.inf, math.nan)]


def _nowhere(*_):
    # Every point of the domain may raise DomainError: the documented domain
    # has a part no check can decide before the computation.
    return False


# name -> (function, probes(rng), documented domain, range of the result).
_ROWS = {
    "reg_gamma_q": (gammatail.reg_gamma_q, _q_probes, _q_domain,
                    lambda q, a, x: 0.0 <= q <= 1.0),
    "reg_gamma_q_detail": (
        gammatail.reg_gamma_q_detail, _q_probes, _q_domain,
        lambda r, a, x: 0.0 <= r.value <= 1.0 and _bound(r.err_bound)),
    "reg_gamma_q_many": (
        reg_gamma_q_many, _q_lanes, _lanes_in(_q_domain),
        lambda q, a, x: bool(np.all((q >= 0.0) & (q <= 1.0)))),
    "tail_prob": (lambda a, c: gammatail.tail_prob(TailQuery(a, c)),
                  _tail_probes, _tail_domain, lambda p, a, c: 0.0 <= p <= 1.0),
    "tail_prob_detail": (
        lambda a, c: gammatail.tail_prob_detail(TailQuery(a, c)),
        _tail_probes, _tail_domain,
        lambda t, a, c: 0.0 <= t.value <= 1.0 and _bound(t.err_bound)),
    "tail_prob_many": (
        gammatail.tail_prob_many, _tail_lanes,
        lambda a, c: all(map(_tail_domain, a.tolist(),
                             np.broadcast_to(c, a.shape).tolist())),
        lambda r, a, c: _tail_probs(*r)),
    "lambert_w0": (gammatail.lambert_w0, _w_probes,
                   lambda v: _finite(v) and v >= -INV_E - 1e-14,
                   lambda w, v: math.isfinite(w) and w >= -1.0),
    "lambert_wm1": (gammatail.lambert_wm1, _w_probes,
                    lambda v: -INV_E - 1e-14 <= v < 0.0,
                    lambda w, v: math.isfinite(w) and w <= -1.0),
    "branch_roots": (gammatail.branch_roots, _z_probes, _z_domain,
                     lambda r, z: 0.0 < r.x1 < 1.0 < r.x2 < math.inf),
    "branch_roots_many": (
        branch_roots_many, lambda rng: [
            (np.array([z for (z,) in _z_probes(rng) if _z_domain(z)]),),
            (np.array([0.5, 1.0]),)],
        _lanes_in(_z_domain),
        lambda r, z: bool(np.all((0.0 < r.x1) & (r.x1 < 1.0) & (1.0 < r.x2)
                                 & (r.x2 < math.inf)))),
    "branch_root_deriv": (
        gammatail.branch_root_deriv,
        lambda rng: [(r, k) for r in _roots(rng) for k in (0, 1, 2)],
        lambda roots, k: k in (1, 2),
        lambda d, roots, k: math.isfinite(d) and (d > 0.0) == (k == 1)),
    "direction_form": (gammatail.direction_form, _roots_and_c,
                       _c_domain,
                       lambda m, roots, c: bool(np.all(np.isfinite(m)))),
    "direction_form_detail": (
        gammatail.direction_form_detail, _roots_and_c,
        _c_domain,
        lambda r, roots, c: bool(np.all(np.isfinite(r[0]) & (r[1] >= 0.0)
                                        & np.isfinite(r[1])))),
    "integrand_ratio": (
        # Beyond the double range the ratio saturates to inf, and below it
        # to 0, as documented.
        gammatail.integrand_ratio, _roots_and_c, _c_domain,
        lambda r, roots, c: bool(np.all(r >= 0.0))),
    "log_mean": (gammatail.log_mean, lambda rng: _pairs(EDGES),
                 lambda x, y: _finite(x, y) and x > 0.0 and y > 0.0,
                 lambda m, x, y: min(x, y) <= m <= max(x, y)),
    "refined_mean": (gammatail.refined_mean, lambda rng: _pairs(EDGES),
                     lambda x, y: _mean_domain([(x, y)]) or 0.0 < x == y < MAX,
                     lambda m, x, y: x <= m <= y),
    "threshold_ratio": (gammatail.threshold_ratio,
                        lambda rng: [(y,) for y in CHAIN_YS],
                        lambda y: 1.0 < y <= 1e75,
                        lambda v, y: -ONE_THIRD <= v < 0.0),
    "rational_stage": (gammatail.rational_stage,
                       lambda rng: [(y,) for y in CHAIN_YS],
                       lambda y: 1.0 <= y <= 1e75,
                       lambda v, y: -ONE_THIRD <= v < 0.0),
    "rational_stage_deriv": (gammatail.rational_stage_deriv,
                             lambda rng: [(y,) for y in CHAIN_YS],
                             lambda y: 1.0 <= y <= 1e75,
                             lambda d, y: d > 0.0 or d == 0.0 == y - 1.0),
    "check_threshold_chain": (
        gammatail.check_threshold_chain, _chain_grids, _chain_domain,
        lambda r, ys: all(v >= 0.0 for v in r.min_margin_ratios)
        and r.derivative_min >= 0.0),
    "check_mean_chain": (
        gammatail.check_mean_chain, _mean_pairs, _mean_domain,
        lambda r, pairs: r.min_margin_ratio >= 0.0 or not r.certified),
    "integrate": (lambda fn, lo, hi, tol: gammatail.integrate(
                      fn, lo, hi, rel_tol=tol), _quad_probes,
                  lambda fn, lo, hi, tol: 0.0 < tol < math.inf,
                  lambda r, fn, lo, hi, tol: math.isfinite(r.value)
                  and _bound(r.err_bound)),
    "ratio_parts": (gammatail.ratio_parts, _ratio_probes, _nowhere,
                    lambda p, u, c: _ratio_ok([p])),
    "ratio_parts_many": (
        gammatail.ratio_parts_many,
        lambda rng: [([1.0, 1.0], [0.0, 1e6]), ([0.5, 2.0], [-0.5, 3.0])],
        _nowhere, lambda parts, u, c: _ratio_ok(parts)),
    "gamma_median": (gammatail.gamma_median, _median_shapes, _median_domain,
                     lambda r, a: r.residual <= 1e-12),
    "check_median_bracket": (gammatail.check_median_bracket, _bracket_grids,
                             _bracket_domain, lambda r, grid: True),
    "certify_monotone": (gammatail.certify_monotone, _scans, _scan_domain,
                         lambda v, c, scan: v.margin_ratio >= 0.0),
    "find_witness": (
        gammatail.find_witness,
        lambda rng: [(c,) for c in (-0.2, -ONE_THIRD, -0.3333,
                                    math.nextafter(-ONE_THIRD, 0.0), -1e-3,
                                    -TINY, 0.0, math.nan)],
        _in_third, lambda w, c: True),
    "check_asymptotic_slope": (
        gammatail.check_asymptotic_slope,
        lambda rng: [(c,) for c in (-0.2, math.nextafter(-ONE_THIRD, 0.0),
                                    -TINY, -ONE_THIRD, 0.0, math.nan)],
        _in_third, lambda r, c: True),
    "integrated_defect": (gammatail.integrated_defect, _defect_probes,
                          _defect_domain,
                          lambda r, c, eps: math.isfinite(r[0])
                          and _bound(r[1])),
    "verify_all": (gammatail.verify_all,
                   lambda rng: [(["C99"],), ([],), (["c13"],)],
                   lambda cids: cids == ["c13"],
                   lambda results, cids: all(r.passed for r in results)),
}


def _floats(value):
    """Every float a result holds, in its fields, items and arrays."""
    if hasattr(value, "_fields"):       # a record, a NamedTuple
        for name in value._fields:
            yield from _floats(getattr(value, name))
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _floats(item)
    elif isinstance(value, np.ndarray):
        yield from value.ravel().tolist()
    elif isinstance(value, float):
        yield value


def _problem(fn, args, domain, in_range):
    """What is wrong with fn(*args)'s outcome, or None."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            result = fn(*args)
        except CertificationError as exc:
            return f"CertificationError: {exc}"
        except DomainError as exc:
            return f"DomainError inside the domain: {exc}" if domain(
                *args) else None
        except GammaTailError:
            return None
        except Exception as exc:    # a RuntimeWarning, raised as an error
            return f"{type(exc).__name__}: {exc}"
    if any(math.isnan(v) for v in _floats(result)):
        return "NaN in the result"
    if not in_range(result, *args):
        return f"out of range: {result!r}"
    return None


def test_the_sweep_covers_every_exported_function():
    exported = {name for name in gammatail.__all__
                if inspect.isfunction(getattr(gammatail, name))}
    assert exported <= set(_ROWS)


@pytest.mark.parametrize("name", sorted(_ROWS))
def test_exported_function_meets_its_domain_and_range(name):
    fn, probes, domain, in_range = _ROWS[name]
    failures = [(args, why) for args in probes(random.Random(name))
                if (why := _problem(fn, args, domain, in_range))]
    assert failures == []
