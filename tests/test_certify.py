"""Tests for the certification toolkit.

A verdict here is never "the difference looked positive": a sign is
certified only when the difference exceeds STRICT_MARGIN times the sum
of the evaluation error bounds, refinement is capped at depth 6, and
anything weaker is reported as inconclusive.  These tests pin the three
monotonicity regimes, the witness search, the threshold-ratio chain, the
mean chain, and the integrated-defect slope, re-verifying every frozen
witness through the independent oracle.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from gammatail import (
    CertificationError,
    DomainError,
    MonotoneVerdict,
    ScanSpec,
    Witness,
    WitnessSearchError,
    certify_monotone,
    check_asymptotic_slope,
    check_mean_chain,
    check_threshold_chain,
    find_witness,
    integrated_defect,
    rational_stage,
    rational_stage_deriv,
)
from gammatail._dd import mean_gaps
from gammatail.acceptance import _seeded_uniforms
from gammatail.certify import MeanChainEntry
from gammatail.oracle import oracle_tail_prob
from gammatail.specfun import log_mean, refined_mean

ULP = 2.220446049250313e-16


# ----------------------------------------------------------------------
# scan specification and result containers
# ----------------------------------------------------------------------


def test_scan_spec_grid():
    log_grid = ScanSpec(0.01, 100.0, 5, scale="log").grid()
    assert log_grid[0] == 0.01 and log_grid[-1] == 100.0
    assert len(log_grid) == 5
    ratios = [b / a for a, b in zip(log_grid, log_grid[1:])]
    assert all(math.isclose(r, 10.0, rel_tol=1e-12) for r in ratios)
    lin_grid = ScanSpec(1.0, 3.0, 3, scale="linear").grid()
    assert lin_grid == (1.0, 2.0, 3.0)


def test_scan_spec_validation():
    for kwargs in (
        {"a_min": 0.0, "a_max": 1.0, "n": 10},
        {"a_min": -1.0, "a_max": 1.0, "n": 10},
        {"a_min": 2.0, "a_max": 1.0, "n": 10},
        {"a_min": 1.0, "a_max": 2.0, "n": 1},
        {"a_min": 1.0, "a_max": 2.0, "n": 10, "scale": "cubic"},
    ):
        with pytest.raises(DomainError):
            ScanSpec(**kwargs)
    for n in (3.5, "4", None):
        with pytest.raises(DomainError, match="whole number"):
            ScanSpec(0.1, 1.0, n)
    scan = ScanSpec(0.1, 1.0, np.int64(3))
    assert type(scan.n) is int and scan == ScanSpec(0.1, 1.0, 3)


def test_witness_container_enforces_valley_shape():
    Witness(a1=1.0, a2=2.0, a3=3.0, p1=0.9, p2=0.5, p3=0.7)
    with pytest.raises(DomainError):
        Witness(a1=2.0, a2=1.0, a3=3.0, p1=0.9, p2=0.5, p3=0.7)
    with pytest.raises(DomainError):
        Witness(a1=1.0, a2=2.0, a3=3.0, p1=0.5, p2=0.9, p3=0.7)


def test_verdict_container_validation():
    scan = ScanSpec(1.0, 2.0, 4)
    with pytest.raises(DomainError):
        MonotoneVerdict(
            direction="sideways", c=0.0, scan=scan, witness=None,
            margin_ratio=10.0, interval=None, detail="",
        )
    with pytest.raises(DomainError):
        # non_monotone verdict must carry a witness
        MonotoneVerdict(
            direction="non_monotone", c=-0.2, scan=scan, witness=None,
            margin_ratio=10.0, interval=None, detail="",
        )


# ----------------------------------------------------------------------
# monotonicity certification
# ----------------------------------------------------------------------


def test_certify_increasing_for_zero_threshold():
    v = certify_monotone(0.0, ScanSpec(0.01, 200.0, 80))
    assert v.direction == "increasing"
    assert v.witness is None
    assert v.interval is None
    assert v.margin_ratio > 8.0
    assert "refin" in v.detail or "grid" in v.detail


def test_certify_decreasing_below_minus_third():
    v = certify_monotone(-1.0, ScanSpec(1.01, 200.0, 80))
    assert v.direction == "decreasing"
    assert v.margin_ratio > 8.0
    boundary = certify_monotone(-1.0 / 3.0, ScanSpec(0.34, 200.0, 80))
    assert boundary.direction in ("decreasing", "inconclusive")


def test_certify_non_monotone_in_middle_band():
    v = certify_monotone(-0.2, ScanSpec(0.21, 500.0, 200))
    assert v.direction == "non_monotone"
    w = v.witness
    assert w is not None
    # frozen deterministic output of this scan
    assert math.isclose(w.a2, 0.47704552021187635, rel_tol=1e-12)
    assert w.a1 == 0.21 and w.a3 == 500.0
    # independent re-check of the valley through the slow oracle
    o1 = oracle_tail_prob(w.a1, -0.2)
    o2 = oracle_tail_prob(w.a2, -0.2)
    o3 = oracle_tail_prob(w.a3, -0.2)
    assert o1 > o2 < o3
    assert abs(o1 - w.p1) < 1e-12
    assert abs(o2 - w.p2) < 1e-12
    assert abs(o3 - w.p3) < 1e-12


def test_certify_rejects_scan_entering_plateau():
    with pytest.raises(DomainError):
        certify_monotone(-0.5, ScanSpec(0.4, 10.0, 20))
    # starting exactly at -c is legal: the plateau edge belongs to the scan
    v = certify_monotone(-0.5, ScanSpec(0.5, 10.0, 20))
    assert v.direction in ("decreasing", "inconclusive", "non_monotone")


def test_certify_rejects_a_non_finite_offset():
    for c in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="^c must be finite$"):
            certify_monotone(c, ScanSpec(1.0, 2.0, 12))


def test_certify_reports_inconclusive_under_unreachable_margin(monkeypatch):
    # With an absurd margin requirement no sign can be certified, and the
    # verdict must say so instead of guessing a direction.
    import gammatail.certify as certify

    monkeypatch.setattr(certify, "STRICT_MARGIN", 1e15)
    v = certify_monotone(0.0, ScanSpec(1.0, 2.0, 12))
    assert v.direction == "inconclusive"
    assert v.witness is None
    assert v.interval is not None
    assert v.interval[0] < v.interval[1]
    assert "refinement" in v.detail


# ----------------------------------------------------------------------
# witness search
# ----------------------------------------------------------------------


def test_certify_opposite_signs_without_a_witness_triple_is_inconclusive(
        monkeypatch):
    # Certified decrease, increase and decrease with the minimum at the
    # last point: there is no interior dip to form a witness triple.
    import gammatail.certify as certify

    monkeypatch.setattr(certify, "tail_prob_many", lambda a, c: (
        np.array([1.0, 0.5, 0.9, 0.1]), np.full(4, 1e-17)))
    scan = ScanSpec(1.0, 4.0, 4, scale="linear")
    v = certify_monotone(0.5, scan)
    assert v.direction == "inconclusive"
    assert v.witness is None and v.margin_ratio == 0.0
    assert v.interval == (1.0, 4.0)
    assert v.detail.startswith("opposite certified signs found but no "
                               "witness triple")


def test_find_witness_structure_and_oracle_recheck():
    w = find_witness(-0.2)
    # the left witness sits exactly on the plateau edge, where p = 1
    assert w.a1 == 0.2
    assert w.p1 == 1.0
    assert w.a1 < w.a2 < w.a3
    assert w.p1 > w.p2 < w.p3
    # frozen deterministic search result
    assert math.isclose(w.a2, 0.47476848380990105, rel_tol=1e-12)
    assert math.isclose(w.a3, 1.474768483809901, rel_tol=1e-12)
    # oracle re-verification of both strict drops
    o2 = oracle_tail_prob(w.a2, -0.2)
    o3 = oracle_tail_prob(w.a3, -0.2)
    assert 1.0 > o2 < o3
    assert abs(o2 - w.p2) < 1e-12
    assert abs(o3 - w.p3) < 1e-12


def test_find_witness_near_band_edges():
    shallow = find_witness(-0.05)
    assert shallow.a1 == 0.05 and shallow.p1 == 1.0
    assert shallow.p2 < shallow.p3 < 1.0
    deep = find_witness(-0.3)
    assert deep.a1 == 0.3 and deep.p1 == 1.0
    assert deep.p2 < deep.p3


def test_find_witness_rejects_outside_open_band():
    for c in (0.0, 0.1, -1.0 / 3.0, -0.5):
        with pytest.raises(DomainError):
            find_witness(c)


def _witness_failure(c=-0.2):
    with pytest.raises(WitnessSearchError) as info:
        find_witness(c)
    assert info.value.budget == 1e6
    return str(info.value)


def test_find_witness_gives_up_when_the_scan_minimum_stays_at_its_edge(
        monkeypatch):
    # A tail probability falling on every scan leaves the minimum at the
    # right edge, so the scan grows by 8x until it passes the budget.
    import gammatail.certify as certify

    monkeypatch.setattr(certify, "tail_prob_many",
                        lambda a, c: (-np.asarray(a), None))
    assert _witness_failure().startswith(
        "no interior minimum of the tail probability found below a=1e+06 "
        "for c=-0.2")


def test_find_witness_gives_up_on_a_dip_inside_the_margin(monkeypatch):
    # Every point, the plateau edge included, at one value with a bound:
    # the dip is not certifiably below the plateau.
    import gammatail.certify as certify

    monkeypatch.setattr(certify, "_eval_point", lambda a, c: (0.9, 1e-3))
    message = _witness_failure()
    assert message.startswith("interior minimum at a=")
    assert message.endswith(
        " is not certifiably below the plateau value for c=-0.2")


def test_find_witness_gives_up_when_no_recovery_is_certified(monkeypatch):
    # 1 at the plateau edge and flat beyond it: p(a3) never rises above
    # p(a2), so a3 doubles past the budget.
    import gammatail.certify as certify

    monkeypatch.setattr(certify, "_eval_point",
                        lambda a, c: (1.0 if a == -c else 0.5, 0.0))
    assert _witness_failure().startswith(
        "recovery above the dip not certified below the shape budget 1e+06 "
        "for c=-0.2")


# ----------------------------------------------------------------------
# batched scans against the point-by-point scans they replaced
# ----------------------------------------------------------------------


def _reference_certify_monotone(c, scan, strict_margin):
    """certify_monotone with one tail_prob_detail call per grid point and
    every grid interval classified on the refinement stack, kept as the
    bit-level reference for the batched scan."""
    from gammatail.certify import (_REFINE_DEPTH, _eval_point,
                                   _scale_midpoint, _witness_from_points)

    grid = scan.grid()
    points = {a: _eval_point(a, c) for a in grid}
    ratios = {1: math.inf, -1: math.inf}
    seen = set()
    unresolved = []
    stack = [(grid[i], grid[i + 1], 0) for i in range(len(grid) - 2, -1, -1)]
    while stack:
        a_lo, a_hi, depth = stack.pop()
        (p_lo, e_lo), (p_hi, e_hi) = points[a_lo], points[a_hi]
        d = p_hi - p_lo
        err_sum = e_lo + e_hi
        margin = strict_margin * err_sum
        sign = 1 if d > margin else -1 if d < -margin else 0
        if sign:
            seen.add(sign)
            ratios[sign] = min(ratios[sign], abs(d) / max(err_sum, 5e-324))
        elif depth >= _REFINE_DEPTH:
            unresolved.append((a_lo, a_hi, d, err_sum))
        else:
            mid = float(_scale_midpoint(a_lo, a_hi, scan.scale))
            if mid not in points:
                points[mid] = _eval_point(mid, c)
            stack += [(mid, a_hi, depth + 1), (a_lo, mid, depth + 1)]

    def verdict(direction, ratio, interval, detail, witness=None):
        return MonotoneVerdict(direction=direction, c=c, scan=scan,
                               witness=witness, margin_ratio=ratio,
                               interval=interval, detail=detail)

    n_extra = len(points) - len(grid)
    if seen == {1, -1}:
        a_pts = sorted(points)
        witness, ratio = _witness_from_points(
            np.array(a_pts), np.array([points[a][0] for a in a_pts]),
            np.array([points[a][1] for a in a_pts]))
        if witness is None:
            lo, hi = (unresolved[0][:2] if unresolved
                      else (grid[0], grid[-1]))
            return verdict("inconclusive", 0.0, (lo, hi),
                           "opposite certified signs found but no witness "
                           "triple met the margin discipline")
        return verdict("non_monotone", ratio, None,
                       f"certified decrease and increase on the scan "
                       f"({len(grid)} grid points, {n_extra} refinement "
                       f"points)", witness)
    if unresolved:
        lo, hi, d, err_sum = unresolved[0]
        return verdict("inconclusive", abs(d) / max(err_sum, 5e-324),
                       (lo, hi),
                       f"difference {d!r} on [{lo!r}, {hi!r}] is below the "
                       f"certification margin after depth-{_REFINE_DEPTH} "
                       "refinement")
    for sign, word, name in ((1, "positive", "increasing"),
                             (-1, "negative", "decreasing")):
        if sign in seen:
            return verdict(name, ratios[sign], None,
                           f"all {len(grid) - 1} consecutive differences "
                           f"certified {word} ({n_extra} refinement points)")
    return verdict("inconclusive", 0.0, (grid[0], grid[-1]),
                   "no certified differences on the scan")


@pytest.mark.parametrize("c, scan, margin", [
    (0.0, ScanSpec(0.01, 200.0, 400), 8.0),
    (2.5, ScanSpec(0.01, 200.0, 400), 8.0),
    (-1.2, ScanSpec(1.2, 200.0, 400), 8.0),
    (-0.1, ScanSpec(0.1, 200.0, 400), 8.0),
    (-0.2, ScanSpec(0.2, 30.0, 200, scale="linear"), 1e9),    # refines
    (0.0, ScanSpec(0.01, 200.0, 400), 1e10),                  # inconclusive
    (-0.3, ScanSpec(0.3, 50.0, 50, scale="linear"), 1e11),    # inconclusive
    (0.0, ScanSpec(1.0, 2.0, 12), 1e15),                      # no signs
    (-0.2, ScanSpec(0.23738424190495053, 16648.89558963054, 3, "linear"),
     8.0),                                           # refined, then certified
    (0.0, ScanSpec(1.0, 1.0 + 4.440892098500626e-16, 3, "linear"),
     8.0),                                      # midpoints round onto ends
], ids=["increasing", "cf", "decreasing", "non-monotone", "refined",
        "inconclusive", "inconclusive-dip", "no-signs", "refined-certified",
        "rounded-midpoints"])
def test_certify_monotone_equals_point_by_point_scan(c, scan, margin,
                                                     monkeypatch):
    import gammatail.certify as certify

    monkeypatch.setattr(certify, "STRICT_MARGIN", margin)
    got = certify_monotone(c, scan)
    assert repr(got) == repr(_reference_certify_monotone(c, scan, margin))
    if margin == 1e9:
        assert "0 refinement points" not in got.detail


def test_witness_from_points_takes_the_leftmost_of_tied_points():
    from gammatail.certify import _witness_from_points

    p = np.array([0.9, 0.9, 0.5, 0.1, 0.1, 0.8, 0.8])
    witness, _ = _witness_from_points(np.arange(1.0, 8.0), p, np.zeros(7))
    assert (witness.a1, witness.a2, witness.a3) == (1.0, 4.0, 6.0)


def _reference_find_witness(c):
    """find_witness with its coarse scan evaluated point by point, kept as
    the bit-level reference for the batched scan."""
    from gammatail.certify import (_GOLDEN, _WITNESS_SCAN_N, _eval_point)

    scan_lo, scan_hi = -c * (1.0 + 1e-3), max(8.0 * -c, 4.0)
    while True:
        grid = np.geomspace(scan_lo, scan_hi, _WITNESS_SCAN_N)
        vals = [_eval_point(float(a), c)[0] for a in grid]
        j = min(range(len(vals)), key=lambda k: (vals[k], k))
        if j < len(vals) - 1:
            break
        scan_hi *= 8.0
    lo = float(grid[j - 1]) if j > 0 else float(grid[0])
    hi = float(grid[j + 1])
    x1, x2 = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
    f1, f2 = _eval_point(x1, c)[0], _eval_point(x2, c)[0]
    while hi - lo > 1e-10 * hi:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = _eval_point(x1, c)[0]
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = _eval_point(x2, c)[0]
    a2 = 0.5 * (lo + hi)
    p2, e2 = _eval_point(a2, c)
    a3 = max(2.0 * a2, a2 + 1.0)
    while True:
        p3, e3 = _eval_point(a3, c)
        if p3 - p2 > 8.0 * (e3 + e2):
            break
        a3 *= 2.0
    return Witness(a1=-c, a2=a2, a3=a3, p1=_eval_point(-c, c)[0], p2=p2,
                   p3=p3)


@pytest.mark.parametrize("c", [-0.3332, -0.3, -0.2, -0.05, -0.001])
def test_find_witness_equals_point_by_point_scan(c):
    assert repr(find_witness(c)) == repr(_reference_find_witness(c))


# ----------------------------------------------------------------------
# threshold-ratio chain
# ----------------------------------------------------------------------


def test_threshold_chain_certifies_wide_grid():
    ys = 1.0 + np.geomspace(1e-6, 1e4, 60)
    rep = check_threshold_chain(ys)
    assert rep.certified
    assert rep.stage_names == ("ratio", "reduction1", "reduction2", "rational")
    assert rep.n_points == 60
    assert all(rep.monotone)
    assert all(r > 8.0 for r in rep.min_margin_ratios)
    # every stage shares the limit -1/3 at y -> 1+
    assert all(abs(e) <= 1e-12 for e in rep.limit_excesses)
    assert rep.derivative_min > 0.0
    assert rep.derivative_fd_agreement <= 1e-6


def test_threshold_chain_grid_validation():
    for bad in ([], [2.0], [1.0, 2.0], [2.0, 1.5], [2.0, math.inf]):
        with pytest.raises(DomainError):
            check_threshold_chain(bad)


def test_threshold_chain_reversal_and_undecided_stage(monkeypatch):
    # A stage whose values fall by more than STRICT_MARGIN times their
    # bounds contradicts the lemma and raises; one whose differences stay
    # inside their bounds leaves the report uncertified.
    import gammatail.certify as certify

    stages = certify._CHAIN_STAGES
    ys = [2.0, 3.0, 4.0]
    falling = ("falling", lambda y, s: (-y, 1e-16 * y))
    monkeypatch.setattr(certify, "_CHAIN_STAGES", stages + (falling,))
    with pytest.raises(CertificationError,
                       match="'falling' certifiably decreases"):
        check_threshold_chain(ys)
    flat = ("flat", lambda y, s: (1.0, 1e-16))
    monkeypatch.setattr(certify, "_CHAIN_STAGES", stages + (flat,))
    rep = check_threshold_chain(ys)
    assert rep.monotone == (True, True, True, True, False)
    assert rep.min_margin_ratios[-1] == math.inf
    assert not rep.certified


def test_rational_stage_exact_values():
    # r3(y) = -2y/(1 + 4y + y^2): r3(1) = -1/3 exactly in floats, and
    # the excess over -1/3 is s^2/(3(6+6s+s^2)) with s = y - 1.
    assert rational_stage(1.0) == -1.0 / 3.0
    assert math.isclose(rational_stage(3.0), -3.0 / 11.0, rel_tol=4 * ULP)
    excess = rational_stage(3.0) + 1.0 / 3.0  # s = 2: 4/(3*(6+12+4)) = 2/33
    assert math.isclose(excess, 2.0 / 33.0, rel_tol=1e-12)
    # r3'(y) = 2(y^2-1)/(1+4y+y^2)^2: at y = 2 this is exactly 6/169
    assert rational_stage_deriv(2.0) == 6.0 / 169.0
    assert rational_stage_deriv(1.0) == 0.0
    assert rational_stage_deriv(10.0) > 0.0


def test_rational_stage_and_its_derivative_match_mpmath_up_to_1e75():
    # Taken as its excess minus 1/3, the stage cancelled: 17% off at 1e16,
    # positive at 1e17 and 0 at 1e20.  The derivative's (1 + 4y + y^2)^2
    # overflows from about 1e77.
    mpmath = pytest.importorskip("mpmath")
    ys = (math.nextafter(1.0, 2.0), 1.5, 1e16, 1e17, 1e20, 1e50, 1e75)
    with mpmath.workdps(40):
        for y in ys:
            den = 1 + 4 * mpmath.mpf(y) + mpmath.mpf(y) ** 2
            stage = float(-2 * mpmath.mpf(y) / den)
            deriv = float(2 * (mpmath.mpf(y) ** 2 - 1) / den ** 2)
            assert math.isclose(rational_stage(y), stage, rel_tol=4 * ULP), y
            assert rational_stage(y) >= -1.0 / 3.0
            assert math.isclose(rational_stage_deriv(y), deriv,
                                rel_tol=1e-15), y


def test_threshold_chain_functions_reject_y_past_1e75():
    for y in (0.5, math.nextafter(1e75, math.inf), 1.3e154, math.inf,
              math.nan):
        for fn in (rational_stage, rational_stage_deriv):
            with pytest.raises(DomainError, match="1 <= y <= 1e"):
                fn(y)
    # Past 1e77 the grid's stages came out NaN and the report uncertified.
    with pytest.raises(DomainError, match=r"\(1, 1e75\]"):
        check_threshold_chain([2.0, 1e200, 1e300])


# ----------------------------------------------------------------------
# mean chain
# ----------------------------------------------------------------------


def test_mean_chain_certifies_mixed_pairs():
    pairs = [
        (1.0, 4.0),
        (0.01, 99.0),
        (5.0, 5.05),          # spread 1% -> extended-precision route
        (1.0, 1.0 + 1e-6),    # deepest certifiable near-diagonal spread
        (100.0, 100.5),
    ]
    rep = check_mean_chain(pairs)
    assert rep.certified
    assert rep.min_margin_ratio > 8.0
    assert len(rep.entries) == len(pairs)
    for entry in rep.entries:
        assert entry.chain_ok
        assert entry.gap_log_vs_geo > 0.0
        assert entry.gap_refined_vs_log > 0.0
        assert entry.gap_arith_vs_refined > 0.0
        spread = (entry.y - entry.x) / entry.x
        assert entry.extended == (spread <= 0.02)
        assert entry.geometric < entry.logarithmic < entry.arithmetic


def _in_mean_units(g, geo, lm, ref, ari):
    """A pair's extended-precision gaps, which are of squared means, and
    their bounds in the unit of the means: each divided by its sum of
    means, with 8 eps of the quotient and of the bound charged."""
    sums = (lm + geo, ref + lm, ari + ref)
    gaps = [float(v) / s for v, s in zip(
        (g.log_vs_geo, g.refined_vs_log, g.arith_vs_refined), sums)]
    errs = [e / s * (1.0 + 8.0 * ULP) + 8.0 * ULP * abs(v)
            for e, s, v in zip(g.err_bounds.ravel().tolist(), sums, gaps)]
    return (*gaps, *errs)


def _reference_mean_entry(x, y, strict_margin=8.0):
    """One pair's entry built on its own, as check_mean_chain did before it
    batched the extended-precision gaps."""
    geo = math.sqrt(x * y)
    lm = log_mean(x, y)
    ref = refined_mean(x, y)
    ari = 0.5 * (x + y)
    extended = (y - x) / x <= 0.02
    if extended:
        g1, g2, g3, *errs = _in_mean_units(mean_gaps(x, y), geo, lm, ref, ari)
    else:
        g1, g2, g3 = lm - geo, ref - lm, ari - ref
        errs = [32.0 * ULP * ari] * 3
    return MeanChainEntry(
        x=x, y=y, geometric=geo, logarithmic=lm, refined=ref, arithmetic=ari,
        gap_log_vs_geo=g1, gap_refined_vs_log=g2, gap_arith_vs_refined=g3,
        err_bound=max(errs), extended=extended,
        chain_ok=all(gap > strict_margin * err
                     for gap, err in zip((g1, g2, g3), errs)))


def test_mean_chain_entries_match_per_pair_reference():
    rng = np.random.default_rng(5)
    x = 10.0 ** rng.uniform(-8.0, 8.0, 300)
    y = x * (1.0 + 10.0 ** rng.uniform(-9.0, 1.0, 300))
    pairs = [(a, b) for a, b in zip(x.tolist(), y.tolist()) if a < b]
    pairs += [(1.0, 4.0), (5.0, 5.05), (1.0, 1.0 + 1e-7), (3, 3.03)]
    rep = check_mean_chain(pairs)
    expected = tuple(_reference_mean_entry(float(a), float(b))
                     for a, b in pairs)
    assert repr(rep.entries) == repr(expected)     # bitwise, -0.0 included
    assert all(type(v) is float for v in (
        rep.entries[0].gap_log_vs_geo, rep.entries[0].err_bound))
    assert 0 < sum(e.extended for e in rep.entries) < len(pairs)
    with pytest.raises(DomainError):
        check_mean_chain([(1.0, 1.01), (2.0, 2.0)])


def _reference_mean_entry_from_gaps(x, y, gaps, strict_margin):
    """One pair's entry as check_mean_chain built it pair by pair before it
    kept columns, and the three gaps' error bounds; gaps holds the pair's
    extended-precision gaps and their error bounds, or is None to take the
    gaps in double precision."""
    geo = math.sqrt(x * y)
    lm = log_mean(x, y)
    ref = math.sqrt(x * y + (lm - x) * (y - lm) / 3.0)
    ari = 0.5 * (x + y)
    if gaps is not None:
        g1, g2, g3, *errs = _in_mean_units(gaps, geo, lm, ref, ari)
    else:
        g1, g2, g3 = lm - geo, ref - lm, ari - ref
        errs = [32.0 * ULP * ari] * 3
    return MeanChainEntry(
        x=x, y=y, geometric=geo, logarithmic=lm, refined=ref, arithmetic=ari,
        gap_log_vs_geo=g1, gap_refined_vs_log=g2, gap_arith_vs_refined=g3,
        err_bound=max(errs), extended=gaps is not None,
        chain_ok=all(gap > strict_margin * err
                     for gap, err in zip((g1, g2, g3), errs))), errs


def test_mean_chain_columns_match_the_per_pair_loop_on_c10_pairs(
        monkeypatch):
    import gammatail.certify as certify

    # Acceptance criterion C10's seeded pairs, plus pairs at, just below and
    # just above the extended-precision switch at relative spread 0.02.
    n = 10_000
    draws = _seeded_uniforms(110, 2 * n)
    xs = 10.0 ** (-2.0 + 4.0 * draws[:n])
    spreads = 10.0 ** (-6.0 + (math.log10(1e6 - 1.0) + 6.0) * draws[n:])
    pairs = [(float(x), float(x) * (1.0 + float(t)))
             for x, t in zip(xs, spreads)]
    for x in (1.0, 3.0, 0.5, 50.0, 7.25, 1e-3, 1e4, 0.3):
        y = x + 0.02 * x
        pairs += [(x, float(np.nextafter(y, 0.0))), (x, y),
                  (x, float(np.nextafter(y, 2.0 * y)))]
    edge = [(y - x) / x for x, y in pairs[n:]]
    assert 0.02 in edge and min(edge) < 0.02 < max(edge)
    extended = [(y - x) / x <= 0.02 for x, y in pairs]
    g = mean_gaps(np.array([p[0] for p, e in zip(pairs, extended) if e]),
                  np.array([p[1] for p, e in zip(pairs, extended) if e]))
    ext_gaps = [type(g)(*fields, err_bounds=np.array(errs))
                for *fields, errs in zip(
                    g.log_vs_geo.tolist(), g.refined_vs_log.tolist(),
                    g.arith_vs_refined.tolist(), g.err_bounds.T.tolist())]
    for margin in (8.0, 1e14):
        gaps = iter(ext_gaps)
        expected, errs = zip(*(
            _reference_mean_entry_from_gaps(x, y, next(gaps) if e else None,
                                            margin)
            for (x, y), e in zip(pairs, extended)))
        ratio = math.inf
        for entry, entry_errs in zip(expected, errs):
            for gap, err in zip((entry.gap_log_vs_geo,
                                 entry.gap_refined_vs_log,
                                 entry.gap_arith_vs_refined), entry_errs):
                ratio = min(ratio, gap / max(err, 5e-324))
        monkeypatch.setattr(certify, "STRICT_MARGIN", margin)
        rep = check_mean_chain(pairs)
        assert len(rep.entries) == len(expected)
        # bitwise, -0.0 included; name the first mismatch, not all 10,000
        bad = next((i for i, (got, ref) in enumerate(zip(rep.entries,
                                                         expected))
                    if got != ref or repr(got) != repr(ref)), None)
        assert bad is None, (rep.entries[bad], expected[bad])
        assert rep.min_margin_ratio.hex() == ratio.hex()
        assert rep.certified == (all(e.chain_ok for e in expected)
                                 and rep.probe_violation_found)
    assert rep.entries is rep.entries         # built once, on first access
    assert not rep.certified and 0 < sum(e.chain_ok for e in expected) < n
    # Reports compare by their summary fields and entries.
    few = pairs[:100]
    assert check_mean_chain(few) == check_mean_chain(few)
    assert check_mean_chain(few) != check_mean_chain(few[:-1])


def test_mean_chain_centres_pairs_near_the_ends_of_the_double_range():
    # x*y, x + y or (L - x)(y - L) leaves the normal range at these pairs,
    # whose gaps used to come out NaN, or certifiably negative at 1e-160.
    # Each is evaluated centred on 1 by a power of two 2^k: its means, gaps
    # and bounds are the centred pair's scaled back by 2^-k.  The minimum
    # ratio keeps the first of the zero ratios at spread 2^-52.
    far = [(1e308, 1.7e308, -1023), (1e-200, 1.03e-200, 664),
           (1e-160, 1.03e-160, 531), (1e160, 1.03e160, -532),
           (1e-100, 1.01e-100, 332)]
    pairs = [(x, y) for x, y, _ in far] + [(1.0, 1.0 + 2.0 ** -52),
                                           (2.0, 3.0)]
    rep = check_mean_chain(pairs)
    for entry, (x, y, k) in zip(rep.entries, far):
        centred = check_mean_chain([(math.ldexp(x, k), math.ldexp(y, k))])
        c = centred.entries[0]
        means = (c.geometric, c.logarithmic, c.refined, c.arithmetic)
        gaps = (c.gap_log_vs_geo, c.gap_refined_vs_log,
                c.gap_arith_vs_refined, c.err_bound)
        assert (entry.geometric, entry.logarithmic, entry.refined,
                entry.arithmetic) == tuple(math.ldexp(v, -k) for v in means)
        assert (entry.gap_log_vs_geo, entry.gap_refined_vs_log,
                entry.gap_arith_vs_refined, entry.err_bound) == tuple(
                    math.ldexp(v, -k) for v in gaps)
        assert entry.chain_ok and x < entry.geometric < entry.logarithmic
    assert rep.entries[4].extended
    ratios = [gap / e.err_bound for e in rep.entries
              for gap in (e.gap_log_vs_geo, e.gap_refined_vs_log,
                          e.gap_arith_vs_refined)]
    assert all(math.isfinite(r) for r in ratios) and 0.0 in ratios
    ratio = math.inf
    for r in ratios:
        ratio = min(ratio, r)
    assert rep.min_margin_ratio.hex() == ratio.hex()


def test_mean_chain_rejects_pairs_it_cannot_bound():
    # Centring keeps the products normal only while y/x < 2^1000, and
    # scaled back, a bound must stay a normal double.
    for pair in ((1e-300, 1e300), (5e-324, 1e-323)):
        with pytest.raises(DomainError):
            check_mean_chain([(1.0, 4.0), pair])


def test_mean_chain_certifies_extended_pairs_far_from_one():
    # An extended pair's gaps and bounds are in the unit of the means, as
    # every other pair's are, so scaled back by 2^-k they stay normal at
    # 1e+-200 (as gaps of squared means they left the double range there).
    pairs = [(1e-200, 1.01e-200), (1e200, 1.01e200)]
    rep = check_mean_chain(pairs)
    assert rep.certified and all(e.extended and e.chain_ok
                                 for e in rep.entries)
    for entry, (x, y) in zip(rep.entries, pairs):
        k = -round(math.log2(x))
        alone = check_mean_chain([(math.ldexp(x, k), math.ldexp(y, k))])
        c = alone.entries[0]
        assert (entry.gap_log_vs_geo, entry.gap_refined_vs_log,
                entry.gap_arith_vs_refined, entry.err_bound) == tuple(
                    math.ldexp(v, -k) for v in (
                        c.gap_log_vs_geo, c.gap_refined_vs_log,
                        c.gap_arith_vs_refined, c.err_bound))


def test_mean_chain_declines_to_certify_below_dd_resolution():
    # At spread 1e-7 the refined-vs-log gap (~ x^2 t^4/180 ~ 6e-31) sinks
    # below even the double-double error bound; the report must refuse to
    # certify rather than trust a noise-level sign.
    rep = check_mean_chain([(1.0, 1.0 + 1e-7)])
    assert not rep.certified
    assert not rep.entries[0].chain_ok
    assert rep.min_margin_ratio < 8.0
    assert abs(rep.entries[0].gap_refined_vs_log) <= rep.entries[0].err_bound


def test_mean_chain_probe_finds_weakened_constant_violation():
    # Replacing the 1/3 in the refined mean by anything smaller must
    # produce a certified violation of the lower inequality somewhere.
    rep = check_mean_chain([(1.0, 2.0)])
    assert rep.probe_violation_found
    assert rep.probe_gap > 0.0
    assert 0.0 < rep.probe_spread < 0.1


def test_mean_chain_validation():
    with pytest.raises(DomainError):
        check_mean_chain([])
    with pytest.raises(DomainError):
        check_mean_chain([(2.0, 1.0)])
    for pairs in ([1.0, 2.0], [(1.0, 2.0, 3.0)], [[(1.0, 2.0)]]):
        with pytest.raises(DomainError, match=r"^check_mean_chain takes a "
                                              r"sequence of \(x, y\) pairs$"):
            check_mean_chain(pairs)


# ----------------------------------------------------------------------
# integrated defect and its slope
# ----------------------------------------------------------------------


def test_integrated_defect_pinned_value():
    # frozen from this quadrature at first derivation; the leading-order
    # claim T(eps) ~ (c + 1/3) eps is checked independently below
    value, err = integrated_defect(-0.2, 0.01)
    assert math.isclose(value, 0.0013393472915211348, rel_tol=1e-10)
    assert err < 1e-12
    slope_target = -0.2 + 1.0 / 3.0
    assert abs(value / 0.01 - slope_target) <= 0.02 * slope_target


def test_integrated_defect_integrand_endpoint_identity():
    # At z = 0 the integrand reduces to 1 - (1 - b eps) = b eps exactly.
    c, eps = -0.2, 0.01
    b = c + 1.0
    endpoint = -math.expm1(math.log1p(-b * eps))
    assert math.isclose(endpoint, b * eps, rel_tol=4 * ULP)


def test_integrated_defect_validation():
    for c, eps in ((-0.2, 0.0), (-0.2, 2.0), (-0.2, -0.01), (0.5, 0.01), (-1.5, 0.01)):
        with pytest.raises(DomainError):
            integrated_defect(c, eps)


def test_asymptotic_slope_report():
    rep = check_asymptotic_slope(-0.2)
    assert rep.certified
    assert rep.positive_ok and rep.slope_ok and rep.residual_bound_ok
    assert math.isclose(rep.slope_target, -0.2 + 1.0 / 3.0, rel_tol=1e-12)
    assert math.isclose(rep.slope, rep.slope_target, rel_tol=0.02)
    assert rep.curvature > 0.0
    assert len(rep.totals) == len(rep.eps) == len(rep.quad_errs)
    assert all(t > 0.0 for t in rep.totals)


def test_asymptotic_slope_other_thresholds():
    for c in (-0.05, -0.3):
        rep = check_asymptotic_slope(c)
        assert rep.certified, c
        assert math.isclose(rep.slope, c + 1.0 / 3.0, rel_tol=0.02), c


def test_asymptotic_slope_domain():
    for c in (0.0, -1.0 / 3.0, -0.5, 0.2):
        with pytest.raises(DomainError):
            check_asymptotic_slope(c)
