"""The lane forms behind verify-all's criteria against their scalar paths.

Each lane form must give, lane by lane, the bits of the scalar call, and on
failure the error a loop of scalar calls raises first.  Values are compared
through float.hex, so -0.0 and the last ulp count.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from gammatail import _lanes, specfun
from gammatail._lanes import (BranchRootLanes, _reg_gamma_q_core,
                              _upper_cf_lanes, branch_roots_many)
from gammatail.acceptance import _MEDIAN_SHAPES, _seeded_uniforms
from gammatail.certify import check_mean_chain
from gammatail.errors import ConvergenceError, DomainError
from gammatail.median import _bracket_margins, check_median_bracket
from gammatail.quadrature import integrate
from gammatail.specfun import (Z_GAP, Z_MIN, _upper_cf_start, branch_roots,
                               reg_gamma_q_detail)
from gammatail.tailprob import (_RATIO_REL_TOL, ScanSpec,
                                _substitution_order, direction_form_detail,
                                integrand_ratio, ratio_parts,
                                ratio_parts_many)
from test_specfun import _QUARTER, _WINDOW_EDGE, _steps_around


def _hex(values) -> list[str]:
    return [float(v).hex() for v in np.ravel(values).tolist()]


def _roots_hex(z) -> list[tuple[str, str]]:
    return [(r.x1.hex(), r.x2.hex()) for r in map(branch_roots, z.tolist())]


@pytest.mark.parametrize("z", [
    np.random.default_rng(17).random(2000) * (1.0 - Z_GAP - Z_MIN) + Z_MIN,
    10.0 ** np.random.default_rng(18).uniform(-300.0, -1e-9, 500),
    _steps_around(_WINDOW_EDGE),
    _steps_around(_QUARTER),
    np.array([Z_MIN, 1.0 - Z_GAP, 0.5, Z_MIN, 1.0 - Z_GAP]),
    np.array([], dtype=float),
], ids=["seeded", "log-seeded", "window-edge", "quarter", "ends", "empty"])
def test_branch_roots_many_is_bitwise_the_scalar_call(z):
    lanes = branch_roots_many(z)
    assert isinstance(lanes, BranchRootLanes)
    assert _hex(lanes.z) == _hex(z)
    assert list(zip(_hex(lanes.x1), _hex(lanes.x2))) == _roots_hex(z)


def _first_error(fn, items):
    with pytest.raises(Exception) as info:
        for item in items:
            fn(item)
    return type(info.value), str(info.value), getattr(info.value, "n_iter",
                                                      None)


@pytest.mark.parametrize("z", [
    [0.5, 0.0, math.nan, 2.0],
    [0.25, math.inf, 1.0],
    [1e-301, 0.5],
])
def test_branch_roots_many_raises_the_scalar_loops_first_error(z):
    with pytest.raises(DomainError) as info:
        branch_roots_many(np.array(z))
    assert (type(info.value), str(info.value), None) == _first_error(
        branch_roots, z)


def test_branch_roots_many_cap_errors_in_scalar_order(monkeypatch):
    # One iteration allowed: the window lanes need none, every other lane
    # runs out.  The first of those in lane order fails in lambert_w0 at
    # z = 0.01 (Halley from log1p) before the W-1 Newton lane at z = 0.001
    # or the range error at z = 2 is reached.
    monkeypatch.setattr(specfun, "_ROOT_MAX_ITER", 1)
    z = [1.0 - Z_GAP, 0.01, 0.001, 2.0]
    with pytest.raises(ConvergenceError) as info:
        branch_roots_many(np.array(z))
    expected = _first_error(branch_roots, z)
    assert expected[0] is ConvergenceError and "W(v=" in expected[1]
    assert (type(info.value), str(info.value),
            info.value.n_iter) == expected


def test_branch_roots_many_takes_one_dimension():
    with pytest.raises(DomainError):
        branch_roots_many(np.full((2, 2), 0.5))


_Z = np.concatenate((np.random.default_rng(21).random(400) * 0.98 + 0.01,
                     [1e-300, 1e-30, 0.999999, 1.0 - Z_GAP]))
_C = np.random.default_rng(22).uniform(-3.0, 3.0, _Z.size)


@pytest.mark.parametrize("c", [_C, -1.0 / 3.0, 0.0, 2.0],
                         ids=["per-lane", "minus-third", "zero", "two"])
def test_direction_form_and_integrand_ratio_lanes_are_bitwise(c):
    lanes = branch_roots_many(_Z)
    cs = np.broadcast_to(c, _Z.shape).tolist()
    roots = list(map(branch_roots, _Z.tolist()))
    m, err = direction_form_detail(lanes, c)
    scalar = [direction_form_detail(r, c_i) for r, c_i in zip(roots, cs)]
    assert list(zip(_hex(m), _hex(err))) == [
        (v.hex(), e.hex()) for v, e in scalar]
    ratio = integrand_ratio(lanes, c)
    assert _hex(ratio) == [integrand_ratio(r, c_i).hex()
                           for r, c_i in zip(roots, cs)]


def test_integrand_ratio_lanes_saturate_and_reject_as_the_scalar_call():
    lanes = branch_roots_many(np.array([1e-300, 0.5]))
    ratio = integrand_ratio(lanes, 2.0)
    assert ratio[0] == math.inf and math.isfinite(ratio[1])
    degenerate = BranchRootLanes(np.array([0.5, 0.5]),
                                 np.array([0.2, 1.0 - 1e-16]),
                                 np.array([2.0, 2.0]))
    with pytest.raises(DomainError, match="degenerate"):
        integrand_ratio(degenerate, 0.0)
    with pytest.raises(DomainError, match="finite c"):
        direction_form_detail(lanes, np.array([0.0, math.nan]))


def test_direction_form_detail_broadcasts_offsets_against_lanes():
    # Acceptance C08 takes every offset in one call, one row per offset.
    lanes = branch_roots_many(_Z)
    offsets = np.array([-1.0, 0.0, 1.0])
    m, err = direction_form_detail(lanes, offsets[:, None])
    assert m.shape == err.shape == (3, _Z.size)
    for row, c in enumerate(offsets.tolist()):
        each = direction_form_detail(lanes, c)
        assert _hex(m[row]) == _hex(each[0])
        assert _hex(err[row]) == _hex(each[1])


def _reference_ratio_parts(u: float, c: float) -> tuple[float, ...]:
    """ratio_parts as written for one pair before its lane form: the same
    integrands with Python scalars u, c and m, each integrated by two
    integrate calls, over [0, 5/8] and [5/8, 1], and summed."""
    from gammatail._lanes import _log1pmx_vec

    m_head = _substitution_order(u)

    def head_fn(s):
        ln_s = np.log(s)
        w = m_head * ln_s
        d = np.expm1(w)
        x = np.where(d > -0.5, 1.0 + d, np.exp(w))
        d_safe = np.where(d > -0.5, d, 0.0)
        bulk = (u * _log1pmx_vec(d_safe) + (m_head - 1.0) * ln_s)
        deep = ((m_head * (u + 1.0) - 1.0) * ln_s - u * d)
        return np.exp(np.where(d > -0.5, bulk, deep)
                      + math.log(m_head) - (1.0 + c) * x)

    m_tail = _substitution_order(u + c)

    def tail_fn(s):
        ln_s = np.log(s)
        d = -m_tail * ln_s
        d_safe = np.where(d < 0.5, d, 0.0)
        bulk = (u * _log1pmx_vec(d_safe)
                + (m_tail * (1.0 + c) - 1.0) * ln_s)
        deep = (u * np.log1p(d) + (m_tail * (u + c + 1.0) - 1.0) * ln_s)
        return np.exp(np.where(d < 0.5, bulk, deep)
                      + math.log(m_tail) - (1.0 + c))

    def both(fn):
        lo = integrate(fn, 0.0, 0.625, rel_tol=_RATIO_REL_TOL)
        hi = integrate(fn, 0.625, 1.0, rel_tol=_RATIO_REL_TOL)
        return lo.value + hi.value, lo.err_bound + hi.err_bound

    (head, head_err), (tail, tail_err) = both(head_fn), both(tail_fn)
    ratio = head / tail
    return (head, tail, ratio, head_err, tail_err,
            head_err / tail + ratio * tail_err / tail)


def _parts_hex(p) -> tuple[str, ...]:
    return tuple(v.hex() for v in (p.head_integral, p.tail_integral, p.ratio,
                                   p.head_err, p.tail_err, p.ratio_err))


def test_ratio_parts_many_is_bitwise_the_one_pair_integrals():
    # Acceptance C07's pairs (u = a - 1), plus the domain's corners.
    draws = _seeded_uniforms(107, 40)
    u = np.concatenate((0.1 + 18.9 * draws[0::2], [-0.9, -0.5, 0.0, 30.0]))
    c = np.concatenate((-0.9 + 2.9 * draws[1::2], [0.5, -0.4, -0.99, 2.0]))
    many = ratio_parts_many(u, c)
    assert [(p.u, p.c) for p in many] == list(zip(u.tolist(), c.tolist()))
    expected = [tuple(v.hex() for v in _reference_ratio_parts(u_i, c_i))
                for u_i, c_i in zip(u.tolist(), c.tolist())]
    assert [_parts_hex(p) for p in many] == expected
    assert [_parts_hex(ratio_parts(u_i, c_i)) for u_i, c_i in zip(
        u[:3].tolist(), c[:3].tolist())] == expected[:3]


def test_ratio_parts_many_raises_the_first_lanes_error():
    u = [1.0, -1.5, 0.5, 2.0]
    c = [0.5, 0.0, math.nan, -4.0]
    with pytest.raises(DomainError) as info:
        ratio_parts_many(u, c)
    assert str(info.value) == "ratio_parts requires u > -1"
    with pytest.raises(DomainError, match="integrable at infinity"):
        ratio_parts_many([1.0, 2.0], [0.5, -4.0])


@pytest.mark.parametrize("grid", [
    _MEDIAN_SHAPES.grid(),                 # acceptance C05's grid
    [0.35, 1.0, 1e6, 3e7, 1e-3],
], ids=["c05", "edges"])
def test_check_median_bracket_is_bitwise_the_scalar_margins(grid):
    report = check_median_bracket(grid)
    ratio = math.inf
    certified = True
    for entry, a in zip(report.entries, np.asarray(grid).tolist()):
        margins = _bracket_margins(a)
        assert entry.a == a
        assert _hex([entry.below, entry.below_err, entry.above,
                     entry.above_err]) == _hex(margins)
        for margin, err in margins:
            r = abs(margin) / max(err, 1e-300)
            ratio = min(ratio, r)
            certified = certified and margin > 8.0 * err
    assert report.min_margin_ratio.hex() == ratio.hex()
    assert report.certified == certified


def test_check_median_bracket_raises_the_scalar_loops_error():
    grid = [1.0, math.inf, -1.0]
    with pytest.raises(DomainError) as info:
        check_median_bracket(grid)
    assert str(info.value) == _first_error(_bracket_margins, grid)[1]
    with pytest.raises(DomainError):
        check_median_bracket([])


def test_min_margin_ratios_are_the_builtin_min_over_the_entries():
    # The reports take numpy's min over their ratios; on seeded inputs it is
    # the builtin min over the entries in order, bit for bit.  The mean
    # pairs spread past 2%, where each gap's bound is the entry's err_bound.
    rng = np.random.default_rng(39)
    shapes = (10.0 ** rng.uniform(-0.4, 6.0, 200)).tolist()
    median = check_median_bracket(shapes)
    ratio = math.inf
    for e in median.entries:
        for margin, err in ((e.below, e.below_err), (e.above, e.above_err)):
            ratio = min(ratio, margin / max(err, 1e-300))
    assert median.min_margin_ratio.hex() == ratio.hex()

    x = 10.0 ** rng.uniform(-3.0, 3.0, 300)
    y = x * (1.0 + 10.0 ** rng.uniform(math.log10(0.03), 2.0, 300))
    means = check_mean_chain(list(zip(x.tolist(), y.tolist())))
    assert not any(e.extended for e in means.entries)
    ratio = math.inf
    for e in means.entries:
        for gap in (e.gap_log_vs_geo, e.gap_refined_vs_log,
                    e.gap_arith_vs_refined):
            ratio = min(ratio, gap / e.err_bound)
    assert means.min_margin_ratio.hex() == ratio.hex()


# ----------------------------------------------------------------------
# The continued fraction's lanes, run in blocks of _CF_BLOCK iterations
# ----------------------------------------------------------------------

# The shapes of a certify scan; from c = 1 on, every lane takes the
# continued fraction.
_CF_SCAN = np.array(ScanSpec(0.01, 200.0, 400).grid())


def _cf_lanes_hex(a, x):
    """Each lane's iteration count, h, value and err_bound (hex) on the
    lane path: _upper_cf_lanes, and Q's lane core for the value."""
    n, h = _upper_cf_lanes(a, x)
    q, err = _reg_gamma_q_core(a, x)[:2]
    return list(zip(n.tolist(), _hex(h), _hex(q), _hex(err)))


def _cf_scalar_hex(a, x):
    """The same, lane by lane, from the scalar loop and reg_gamma_q_detail."""
    out = []
    for a_i, x_i in zip(a.tolist(), x.tolist()):
        n, *_, h = specfun._upper_cf_run(a_i, x_i, 0,
                                         *specfun._upper_cf_start(a_i, x_i))
        detail = reg_gamma_q_detail(a_i, x_i)
        assert (detail.method, detail.n_iter) == ("cf", n)
        out.append((n, h.hex(), detail.value.hex(), detail.err_bound.hex()))
    return out


@pytest.mark.parametrize("c", [1.05, 3.0])
def test_cf_lanes_retire_at_every_column_of_a_block(monkeypatch, c):
    # With no hand-off, every lane retires inside a block, and the stops
    # fall on every column of one, the first and the last included.
    monkeypatch.setattr(_lanes, "_LOCKSTEP_MIN_LANES", 1)
    x = _CF_SCAN + c
    scalar = _cf_scalar_hex(_CF_SCAN, x)
    columns = {(n - 1) % _lanes._CF_BLOCK for n, *_ in scalar}
    assert columns == set(range(_lanes._CF_BLOCK))
    assert _cf_lanes_hex(_CF_SCAN, x) == scalar


def test_cf_lanes_below_the_hand_off_finish_on_the_scalar_loop(monkeypatch):
    handed = []
    run = _lanes._upper_cf_run

    def spy(a, x, n, *state):
        handed.append(n)
        return run(a, x, n, *state)

    monkeypatch.setattr(_lanes, "_upper_cf_run", spy)
    x = _CF_SCAN + 4.5
    scalar = _cf_scalar_hex(_CF_SCAN, x)
    _upper_cf_lanes(_CF_SCAN, x)
    # The last lanes are handed over together, at the end of a block.
    assert 0 < len(handed) < _lanes._LOCKSTEP_MIN_LANES
    assert len(set(handed)) == 1 and handed[0] % _lanes._CF_BLOCK == 0
    assert _cf_lanes_hex(_CF_SCAN, x) == scalar


def test_cf_lanes_cut_their_last_block_at_the_cap(monkeypatch):
    # A cap of 20 cuts the second block short.  Lanes that stop by then, at
    # the cap itself too, keep their bits; with a lane that needs more, the
    # first such lane raises the scalar loop's error.
    x = _CF_SCAN + 4.5
    n = np.array([s[0] for s in _cf_scalar_hex(_CF_SCAN, x)])
    cap = 20
    assert _lanes._CF_BLOCK < cap < 2 * _lanes._CF_BLOCK
    monkeypatch.setattr(specfun, "_KERNEL_MAX_ITER", cap)
    monkeypatch.setattr(_lanes, "_LOCKSTEP_MIN_LANES", 1)
    in_time = n <= cap
    assert (n == cap).any() and (n[in_time] > _lanes._CF_BLOCK).sum() > 1
    a_t, x_t = _CF_SCAN[in_time], x[in_time]
    assert _cf_lanes_hex(a_t, x_t) == _cf_scalar_hex(a_t, x_t)
    err = _first_error(lambda p: reg_gamma_q_detail(*p),
                       zip(_CF_SCAN.tolist(), x.tolist()))
    assert err[0] is ConvergenceError and err[2] == cap
    for lanes in (_upper_cf_lanes, _reg_gamma_q_core):
        assert _first_error(lambda p: lanes(*p), [(_CF_SCAN, x)]) == err


def _tiny_start(zero, a, x):
    """_upper_cf_start with c (zero = "c") or d (zero = "d") moved so that
    the first iteration's c or d is exactly 0 wherever a - 1 and x + 3 - a
    are powers of two."""
    b, c, d, h = _upper_cf_start(a, x)
    an, b1 = a - 1.0, b + 2.0
    if zero == "c":
        return b, -an / b1, d, h
    return b, c, -b1 / an, h


@pytest.mark.parametrize("zero", ["c", "d"])
def test_cf_lanes_replace_a_zero_c_or_d_as_the_scalar_loop(monkeypatch, zero):
    # No shape in Q's domain is known to reach the replacement, so both
    # paths start from a state that does, on 30 lanes of 130.
    start = partial(_tiny_start, zero)
    monkeypatch.setattr(specfun, "_upper_cf_start", start)
    monkeypatch.setattr(_lanes, "_upper_cf_start", start)
    monkeypatch.setattr(_lanes, "_LOCKSTEP_MIN_LANES", 1)
    a_z, x_z = np.array([(a, a - 3.0 + 2.0 ** k)
                         for a in (2.0, 3.0, 5.0, 9.0, 17.0, 33.0)
                         for k in range(2, 7)]).T
    b, c, d, _ = start(a_z, x_z)
    an, b1 = a_z - 1.0, b + 2.0
    assert ((b1 + an / c if zero == "c" else an * d + b1) == 0.0).all()
    a = np.concatenate((a_z, _CF_SCAN[::4]))
    x = np.concatenate((x_z, _CF_SCAN[::4] + 2.0))
    assert _cf_lanes_hex(a, x) == _cf_scalar_hex(a, x)


def test_cf_lanes_are_bitwise_the_scalar_loop_on_seeded_lanes():
    # Shapes over [1e-3, 1e6], from the branch edge x = a + 1 (the slowest
    # lanes, some thousands of iterations at the top) to a few standard
    # deviations above the mean.
    rng = np.random.default_rng(2026)
    a = 10.0 ** rng.uniform(-3.0, 6.0, 300)
    x = a + 1.0 + np.abs(rng.standard_normal(300)) * 2.0 * np.sqrt(a)
    x[::10] = a[::10] + 1.0
    assert _cf_lanes_hex(a, x) == _cf_scalar_hex(a, x)


def _ramp_block(n, width, k, acc, step, count):
    """acc grows by step each iteration and count is an integer counter; a
    lane stops at iteration k."""
    j = np.arange(1, width + 1)
    accs = acc[:, None] + step[:, None] * j
    steps = np.repeat(step[:, None], width, axis=1)
    return accs, steps, count[:, None] + j, n + j >= k[:, None]


def _lockstep_broadcast(block, n_max, consts, start, width, min_lanes=1):
    """_lockstep given every start as its own array of lanes, as
    np.broadcast_arrays spreads it."""
    lanes = np.broadcast_arrays(consts[0], *start)[1:]
    return _lanes._lockstep(block, n_max, consts,
                            tuple(s.copy() for s in lanes), width, min_lanes)


@pytest.mark.parametrize("n_max, min_lanes", [(100, 1), (5, 1), (0, 1),
                                              (100, 5)],
                         ids=["to-stop", "to-cap", "no-pass", "too-few"])
def test_lockstep_copies_its_start_states(n_max, min_lanes):
    # Scalar starts reach every lane, an array start is neither written nor
    # returned, and the result is the one from fully broadcast starts, dtype
    # included, whether the loop stops each lane, stops at its cap or never
    # runs.
    k = np.array([3.0, 1.0, 7.0, 5.0])
    step = np.array([1.0, 2.0, 3.0, 4.0])
    start = (0.5, step, 0)
    got = _lanes._lockstep(_ramp_block, n_max, (k,), start, 4, min_lanes)
    assert np.array_equal(step, [1.0, 2.0, 3.0, 4.0])
    assert not any(np.shares_memory(v, step) for v in got)
    left, n, acc, steps, count = got
    runs = min_lanes <= k.size
    assert n.tolist() == (np.minimum(k, n_max) if runs else 0 * k).tolist()
    assert acc.tolist() == (0.5 + n * step).tolist()
    assert steps.tolist() == step.tolist() and count.tolist() == n.tolist()
    assert count.dtype == np.asarray(0).dtype
    expected = _lockstep_broadcast(_ramp_block, n_max, (k,), start, 4,
                                   min_lanes)
    assert all(g.dtype == e.dtype and np.array_equal(g, e)
               for g, e in zip(got, expected))
    # Q's continued fraction starts from three arrays (two of them the same
    # array) and one scalar.
    a, x = _CF_SCAN[::8], _CF_SCAN[::8] + 2.0
    start = _upper_cf_start(a, x)
    got = _lanes._lockstep(_lanes._upper_cf_block, n_max, (a, x), start,
                           _lanes._CF_BLOCK, min_lanes)
    expected = _lockstep_broadcast(_lanes._upper_cf_block, n_max, (a, x),
                                   start, _lanes._CF_BLOCK, min_lanes)
    assert [_hex(v) for v in got[2:]] == [_hex(v) for v in expected[2:]]
    assert np.array_equal(got[0], expected[0])
    assert np.array_equal(got[1], expected[1])
    assert not any(np.shares_memory(v, s) for v in got for s in start[::2])


# The lane tests of Q's kernel, which claim bit-identity from IEEE + - * /
# alone, the verify-all golden, the log-grid outputs and the quadrature's
# batches, whose every interval must keep its bits whatever shares its
# arrays, each with numpy's optional SIMD paths on and off.
_Q_LANE_PARITY = [
    "tests/test_lane_forms.py::" + name for name in (
        "test_cf_lanes_retire_at_every_column_of_a_block",
        "test_cf_lanes_below_the_hand_off_finish_on_the_scalar_loop",
        "test_cf_lanes_cut_their_last_block_at_the_cap",
        "test_cf_lanes_replace_a_zero_c_or_d_as_the_scalar_loop",
        "test_cf_lanes_are_bitwise_the_scalar_loop_on_seeded_lanes")] + [
    "tests/test_tailprob.py::test_tail_prob_many_is_bitwise_the_scalar_scan",
    "tests/test_tailprob.py::"
    "test_tail_prob_many_with_one_offset_per_lane_is_bitwise_the_scan",
    "tests/test_specfun.py::test_reg_gamma_q_many_is_bitwise_the_scalar_loop",
    "tests/test_acceptance.py::test_verify_all_cli_output_is_byte_identical",
    "tests/test_cli.py::test_log_grid_outputs_are_pinned_byte_for_byte",
    "tests/test_quadrature.py::"
    "test_integrate_many_over_more_than_512_intervals_equals_the_loop",
    "tests/test_quadrature.py::"
    "test_integrate_many_mixing_every_scale_equals_each_alone",
]


def _optional_simd_features() -> list[str]:
    """The CPU features numpy dispatches to at run time on this machine:
    the names NPY_DISABLE_CPU_FEATURES accepts, which differ between numpy
    versions (baseline features cannot be turned off)."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:                     # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return [name for name in umath.__cpu_dispatch__
            if umath.__cpu_features__.get(name)]


def test_q_lane_parity_holds_with_numpy_simd_paths_off():
    features = _optional_simd_features()
    if not features:
        pytest.skip("numpy dispatches to no optional CPU feature here")
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(features),
               PYTHONPATH=os.pathsep.join(
                   [str(root / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        # Plain asserts: rewriting the modules the test files import (the
        # property-test library's among them) would take most of the run.
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--assert=plain", *_Q_LANE_PARITY], cwd=root, env=env,
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
