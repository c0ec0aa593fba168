"""Tests for the certification toolkit.

A verdict here is never "the difference looked positive": a sign is
certified only when the difference exceeds STRICT_MARGIN times the sum
of the evaluation error bounds, and anything weaker is reported as
inconclusive.  These tests pin the three monotonicity regimes, the witness
formula, the threshold-ratio chain, the mean chain, and the integrated-defect
slope, re-verifying every frozen witness through the independent oracle.
"""

from __future__ import annotations

import math
import random
import sys
import warnings

import numpy as np
import pytest

from gammatail import (
    CertificationError,
    DomainError,
    MonotoneVerdict,
    ScanSpec,
    TailQuery,
    TailValue,
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
    tail_prob_detail,
    tail_prob_many,
)
from gammatail._dd import mean_gaps
from gammatail.acceptance import _seeded_uniforms
from gammatail.certify import MeanChainEntry
from gammatail.oracle import oracle_tail_prob
from gammatail import specfun
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


def test_scan_spec_rejects_a_range_too_narrow_for_its_points():
    # Each point is rounded on its own, so a few ulps per step repeat
    # shapes or step back; such a grid is refused, not scanned.  So is one
    # whose interior would pass the largest double.
    for scan in (ScanSpec(2.0, 2.0000000000000178, 50),
                 ScanSpec(1.0, 1.0 + 40 * ULP, 400),
                 ScanSpec(1.0, 1.0 + 2 * ULP, 4, "linear"),
                 ScanSpec(1e300, 1e300 * (1.0 + 8 * ULP), 30),
                 ScanSpec(sys.float_info.max * (1.0 - 32 * ULP),
                          sys.float_info.max, 3)):
        with pytest.raises(DomainError, match="too narrow"):
            scan.grid()
        with pytest.raises(DomainError, match="too narrow"):
            certify_monotone(0.5, scan)
    # A normal range takes one libm power per interior point, with the end
    # points exact.
    scan = ScanSpec(0.01, 200.0, 400)
    l0, l1 = math.log10(0.01), math.log10(200.0)
    assert scan.grid() == (0.01, *(10.0 ** (l0 + (l1 - l0) * i / 399)
                                   for i in range(1, 399)), 200.0)


def test_a_log_grid_ending_at_the_largest_double_warns_nothing():
    # A power taken at the end point would overflow; the ends are kept.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = ScanSpec(1.0, sys.float_info.max, 5).grid()
    assert grid[0] == 1.0 and grid[-1] == sys.float_info.max
    assert all(a < b for a, b in zip(grid, grid[1:]))


def _seeded_specs(scale):
    """3,000 seeded specs: a_min from 1e-5 to 1e5, spans up to 1e8 and n
    from 3 to 600."""
    rng = random.Random(37)
    for _ in range(3000):
        a_min = 10.0 ** rng.uniform(-5.0, 5.0)
        yield ScanSpec(a_min, a_min * 10.0 ** rng.uniform(1e-3, 8.0),
                       rng.randint(3, 600), scale)


def test_log_grid_is_one_libm_power_per_interior_point():
    for scan in _seeded_specs("log"):
        l0, l1 = math.log10(scan.a_min), math.log10(scan.a_max)
        last = scan.n - 1
        grid = scan.grid()
        assert all(type(a) is float for a in grid)
        assert grid == (scan.a_min,
                        *(10.0 ** (l0 + (l1 - l0) * i / last)
                          for i in range(1, last)),
                        scan.a_max), scan


def test_linear_grid_equals_numpy_linspace_bit_for_bit():
    # Point i is a_min + i * step, the last one a_max itself: numpy's
    # evenly spaced grid, to the last bit, from floats alone.
    for scan in _seeded_specs("linear"):
        grid = scan.grid()
        assert all(type(a) is float for a in grid)
        assert np.array_equal(np.array(grid),
                              np.linspace(scan.a_min, scan.a_max, scan.n)), scan


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


def test_replace_and_make_run_each_records_checks():
    # NamedTuple's _replace builds through _make, which each validating
    # record sends through its own __new__: a record its constructor
    # rejects cannot be made either way.
    from gammatail.median import MedianResult
    from gammatail.specfun import branch_roots

    scan = ScanSpec(1.0, 2.0, 4)
    witness = Witness(a1=1.0, a2=2.0, a3=3.0, p1=0.9, p2=0.5, p3=0.7)
    verdict = MonotoneVerdict(direction="non_monotone", c=-0.2, scan=scan,
                              witness=witness, margin_ratio=10.0,
                              interval=None, detail="")
    for record, bad, error in (
            (scan, {"n": 2}, DomainError),
            (scan, {"a_min": -1.0}, DomainError),
            (TailQuery(1.0, 0.0), {"a": -1.0}, DomainError),
            (witness, {"p2": 0.95}, DomainError),
            (verdict, {"witness": None}, DomainError),
            (branch_roots(0.5), {"x1": 2.0}, DomainError),
            (MedianResult(1.0, 0.69, -0.31, 0.0), {"offset": 0.5},
             CertificationError)):
        with pytest.raises(error):
            record._replace(**bad)
        with pytest.raises(error):
            type(record)._make({**record._asdict(), **bad}.values())
    # ScanSpec's n is normalised on every path.
    assert type(scan._replace(n=np.int64(5)).n) is int
    assert scan._replace(a_max=3.0) == ScanSpec(1.0, 3.0, 4)


def test_certify_increasing_for_zero_threshold():
    v = certify_monotone(0.0, ScanSpec(0.01, 200.0, 80))
    assert v.direction == "increasing"
    assert v.witness is None
    assert v.interval is None
    assert v.margin_ratio > 8.0
    assert v.detail == "all 79 consecutive differences certified positive"


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
    # the scan start, the valley (8/135)/(c + 1/3) and 8 times it
    assert (w.a1, w.a2, w.a3) == (0.21, 0.4444444444444446, 3.5555555555555567)
    assert v.detail == (
        "certified dip at three points a=(0.21, 0.4444444444444446, "
        "3.5555555555555567), placed by the valley formula (8/135)/(c + 1/3)")
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
    monkeypatch.setattr(specfun, "STRICT_MARGIN", 1e15)
    scan = ScanSpec(1.0, 2.0, 12)
    v = certify_monotone(0.0, scan)
    assert v.direction == "inconclusive"
    assert v.witness is None
    # the first grid interval, which no sign certified
    assert v.interval == scan.grid()[:2]
    lo, hi = v.interval
    assert v.detail.startswith("difference ")
    assert v.detail.endswith(
        f" on [{lo!r}, {hi!r}] is below the certification margin")


# ----------------------------------------------------------------------
# witness formula
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
    # frozen formula triple: the valley (8/135)/(c + 1/3) and 8 times it
    assert w.a2 == 0.4444444444444446
    assert w.a3 == 3.5555555555555567
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


@pytest.mark.parametrize("c", [-0.333333, -0.3333, -0.3, -0.2, -0.05,
                               -0.001, -1e-300])
def test_find_witness_is_the_formula_triple_under_the_scan_rule(c):
    # The witness is the one certify_monotone's rule takes from the three
    # formula shapes: the plateau edge, the valley and 8 times the valley.
    from gammatail.certify import _witness_from_points

    a2 = (8.0 / 135.0) / (c + 1.0 / 3.0)
    a = (-c, a2, 8.0 * a2)
    points = [tail_prob_detail(TailQuery(x, c)) for x in a]
    expected, _ = _witness_from_points(
        a, [t.value for t in points], [t.err_bound for t in points])
    assert expected is not None
    assert find_witness(c) == expected


@pytest.mark.parametrize("c", [-0.2, -0.333333])
def test_find_witness_makes_three_scalar_calls_and_no_lane_call(
        c, monkeypatch):
    import gammatail.certify as certify

    lanes, scalar = [], []

    def many(*args):
        lanes.append(args)
        return tail_prob_many(*args)

    def detail(query):
        scalar.append(query)
        return tail_prob_detail(query)

    monkeypatch.setattr(certify, "tail_prob_many", many)
    monkeypatch.setattr(certify, "tail_prob_detail", detail)
    w = find_witness(c)
    assert [(q.a, q.c) for q in scalar] == [(w.a1, c), (w.a2, c), (w.a3, c)]
    assert lanes == []


def _dip_inside_the_margin(query):
    # A dip at the valley, between the plateau edge and 3, far smaller than
    # the bounds.
    return TailValue(0.9 - 1e-4 * (0.3 < query.a < 3.0), 1e-3, "cf")


def _no_certified_recovery(query):
    # 1 at the plateau edge and flat beyond it: nothing rises above the dip.
    return TailValue(1.0 if query.a + query.c <= 0.0 else 0.5, 0.0, "cf")


@pytest.mark.parametrize("detail", [_dip_inside_the_margin,
                                    _no_certified_recovery],
                         ids=["dip-inside-margin", "no-recovery"])
def test_find_witness_gives_up_when_the_margins_fail(detail, monkeypatch):
    import gammatail.certify as certify

    monkeypatch.setattr(certify, "tail_prob_detail", detail)
    with pytest.raises(WitnessSearchError) as info:
        find_witness(-0.2)
    assert str(info.value) == (
        "no certified dip of the tail probability at "
        "a=(0.2, 0.4444444444444446, 3.5555555555555567) for c=-0.2")


# ----------------------------------------------------------------------
# batched scans against the point-by-point scans they replaced
# ----------------------------------------------------------------------


def _value_and_bound(a, c):
    d = tail_prob_detail(TailQuery(a, c))
    return d.value, d.err_bound


def _reference_certify_monotone(c, scan, strict_margin):
    """certify_monotone with one tail_prob_detail call per point and each
    grid interval classified on its own, kept as the bit-level reference
    for the batched scan.  In the band, the formula triple comes first."""
    from gammatail.certify import _witness_from_points

    def verdict(direction, ratio, interval, detail, witness=None):
        return MonotoneVerdict(direction=direction, c=c, scan=scan,
                               witness=witness, margin_ratio=ratio,
                               interval=interval, detail=detail)

    grid = scan.grid()
    if -1.0 / 3.0 < c < 0.0:
        a2 = (8.0 / 135.0) / (c + 1.0 / 3.0)
        if scan.a_min < a2 < scan.a_max:
            a = (scan.a_min, a2, min(8.0 * a2, scan.a_max))
            witness, ratio = _witness_from_points(
                a, *zip(*(_value_and_bound(x, c) for x in a)))
            if witness is not None:
                return verdict("non_monotone", ratio, None,
                               f"certified dip at three points a={a!r}, "
                               "placed by the valley formula "
                               "(8/135)/(c + 1/3)", witness)
    points = [_value_and_bound(a, c) for a in grid]
    ratios = {}
    unresolved = []
    for k in range(len(grid) - 1):
        (p_lo, e_lo), (p_hi, e_hi) = points[k], points[k + 1]
        d = p_hi - p_lo
        err_sum = e_lo + e_hi
        margin = strict_margin * err_sum
        sign = 1 if d > margin else -1 if d < -margin else 0
        ratio = abs(d) / max(err_sum, 5e-324)
        if sign:
            ratios[sign] = min(ratios.get(sign, math.inf), ratio)
        else:
            unresolved.append((grid[k], grid[k + 1], d, ratio))

    if len(ratios) == 2:
        witness, ratio = _witness_from_points(grid, *zip(*points))
        if witness is None:
            lo, hi = (unresolved[0][:2] if unresolved
                      else (grid[0], grid[-1]))
            return verdict("inconclusive", 0.0, (lo, hi),
                           "opposite certified signs found but no witness "
                           "triple met the margin discipline")
        return verdict("non_monotone", ratio, None,
                       f"certified decrease and increase on the scan "
                       f"({len(grid)} grid points)", witness)
    if unresolved:
        lo, hi, d, ratio = unresolved[0]
        return verdict("inconclusive", ratio, (lo, hi),
                       f"difference {d!r} on [{lo!r}, {hi!r}] is below the "
                       "certification margin")
    (sign, ratio), = ratios.items()
    word, name = (("positive", "increasing") if sign == 1
                  else ("negative", "decreasing"))
    return verdict(name, ratio, None,
                   f"all {len(grid) - 1} consecutive differences certified "
                   f"{word}")


@pytest.mark.parametrize("c, scan, margin", [
    (0.0, ScanSpec(0.01, 200.0, 400), 8.0),
    (2.5, ScanSpec(0.01, 200.0, 400), 8.0),
    (-1.2, ScanSpec(1.2, 200.0, 400), 8.0),
    (-0.1, ScanSpec(0.1, 200.0, 400), 8.0),
    (-0.2, ScanSpec(0.2, 30.0, 200, scale="linear"), 1e9),    # some open
    (0.0, ScanSpec(0.01, 200.0, 400), 1e10),                  # inconclusive
    (-0.3, ScanSpec(0.3, 50.0, 50, scale="linear"), 1e11),    # inconclusive
    (0.0, ScanSpec(1.0, 2.0, 12), 1e15),                      # no signs
    (-0.2, ScanSpec(0.23738424190495053, 16648.89558963054, 3, "linear"),
     8.0),                                   # the valley inside one interval
    (0.0, ScanSpec(1.0, 1.0 + 4.440892098500626e-16, 3, "linear"),
     8.0),                                           # intervals one ulp wide
], ids=["increasing", "cf", "decreasing", "non-monotone", "refined",
        "inconclusive", "inconclusive-dip", "no-signs", "refined-certified",
        "rounded-midpoints"])
def test_certify_monotone_equals_point_by_point_scan(c, scan, margin,
                                                     monkeypatch):
    monkeypatch.setattr(specfun, "STRICT_MARGIN", margin)
    got = certify_monotone(c, scan)
    assert repr(got) == repr(_reference_certify_monotone(c, scan, margin))
    if got.direction == "inconclusive":
        # an interval of the grid, never a zero-width one
        grid = scan.grid()
        lo, hi = got.interval
        assert lo < hi
        assert grid.index(hi) == grid.index(lo) + 1


@pytest.mark.parametrize("c, a_min", [(1000.0, 0.01), (-100.0, 100.0),
                                      (1e308, 0.01)])
def test_certify_monotone_evaluates_its_grid_once(c, a_min, monkeypatch):
    # Past the double range of Q (and on the plateau's far side) no sign
    # certifies anywhere; the scan still costs its 400 grid lanes alone.
    import gammatail.certify as certify

    lanes = []

    def counted(a, c):
        lanes.append(len(a))
        return tail_prob_many(a, c)

    monkeypatch.setattr(certify, "tail_prob_many", counted)
    v = certify_monotone(c, ScanSpec(a_min, 200.0, 400))
    assert v.direction == "inconclusive"
    assert lanes == [400]


def test_a_valley_inside_one_grid_interval_is_settled_by_the_formula_triple():
    # Three linear points put the whole valley of c = -0.2 inside the first
    # interval: its difference is one rounding, no certified sign.
    scan = ScanSpec(0.23738424190495053, 16648.89558963054, 3, "linear")
    p, e = tail_prob_many(np.array(scan.grid()), -0.2)
    assert abs(p[1] - p[0]) <= 8.0 * (e[0] + e[1])
    # The formula triple from the scan start certifies the dip.
    v = certify_monotone(-0.2, scan)
    assert v.direction == "non_monotone" and v.interval is None
    w = v.witness
    assert (w.a1, w.a2, w.a3) == (scan.a_min, 0.4444444444444446,
                                  3.5555555555555567)
    (p1, e1), (p2, e2), (p3, e3) = (_value_and_bound(a, -0.2)
                                    for a in (w.a1, w.a2, w.a3))
    assert (p1, p2, p3) == (w.p1, w.p2, w.p3)
    assert p1 - p2 > 8.0 * (e1 + e2) and p3 - p2 > 8.0 * (e3 + e2)
    assert v.margin_ratio == min((p1 - p2) / (e1 + e2),
                                 (p3 - p2) / (e3 + e2))


def _count_evaluations(monkeypatch):
    """Lists that fill with the lane count of each tail_prob_many call and
    the shape of each tail_prob_detail call certify makes."""
    import gammatail.certify as certify

    lanes, scalar = [], []

    def many(a, c):
        lanes.append(len(a))
        return tail_prob_many(a, c)

    def detail(query):
        scalar.append(query.a)
        return tail_prob_detail(query)

    monkeypatch.setattr(certify, "tail_prob_many", many)
    monkeypatch.setattr(certify, "tail_prob_detail", detail)
    return lanes, scalar


def test_certify_settles_a_band_scan_from_three_points(monkeypatch):
    # Scans as the bench's: from the plateau edge, 400 log points up to 200.
    # The triple settles each before any grid is built.
    grids = []
    monkeypatch.setattr(ScanSpec, "grid", lambda scan: grids.append(scan))
    rng = random.Random(1)
    for _ in range(12):
        c = rng.uniform(-1.0 / 3.0 + 1e-3, -1e-3)
        lanes, scalar = _count_evaluations(monkeypatch)
        v = certify_monotone(c, ScanSpec(-c, 200.0, 400))
        a2 = (8.0 / 135.0) / (c + 1.0 / 3.0)
        assert scalar == [-c, a2, min(8.0 * a2, 200.0)]
        assert lanes == []
        assert v.direction == "non_monotone"
        assert (v.witness.a1, v.witness.a2, v.witness.a3) == tuple(scalar)
    assert grids == []


@pytest.mark.parametrize("c, scan, triple_calls, direction, detail", [
    # p(a_min) < p(a*): the dip lies left of the valley, on the grid
    (-0.05, ScanSpec(0.06, 200.0, 400), 3, "non_monotone",
     "certified decrease and increase on the scan (400 grid points)"),
    # a* below the range
    (-0.2, ScanSpec(5.0, 200.0, 400), 0, "increasing",
     "all 399 consecutive differences certified positive"),
    # a* about 1,779, past a_max
    (-0.3333, ScanSpec(0.3334, 200.0, 400), 0, "decreasing",
     "all 399 consecutive differences certified negative"),
], ids=["triple-fails", "valley-below", "valley-above"])
def test_certify_falls_back_to_one_grid_call_in_the_band(
        c, scan, triple_calls, direction, detail, monkeypatch):
    lanes, scalar = _count_evaluations(monkeypatch)
    v = certify_monotone(c, scan)
    assert lanes == [400]
    assert len(scalar) == triple_calls
    assert (v.direction, v.detail) == (direction, detail)
    assert repr(v) == repr(_reference_certify_monotone(c, scan, 8.0))


def test_certify_band_verdicts_agree_with_the_grid_alone(monkeypatch):
    # The triple only ever turns the grid's inconclusive into non_monotone.
    import gammatail.certify as certify

    rng = random.Random(2)
    scans = []
    for a_max in (30.0, 200.0, 1e4):
        for start in (0.0, 0.01):
            for _ in range(9):
                c = rng.uniform(-1.0 / 3.0 + 1e-4, -1e-4)
                scans.append((c, ScanSpec(-c + start, a_max, 400)))
    got = [certify_monotone(c, scan).direction for c, scan in scans]
    monkeypatch.setattr(certify, "_formula_dip",
                        lambda *args: ((), None, 0.0))
    grid = [certify_monotone(c, scan).direction for c, scan in scans]
    assert len(scans) == 54
    for g, alone in zip(got, grid):
        assert g == alone or (alone, g) == ("inconclusive", "non_monotone")


def test_certify_validates_a_band_scan_before_its_triple(monkeypatch):
    lanes, scalar = _count_evaluations(monkeypatch)
    for c, scan, message in (
            (-0.2, ScanSpec(0.1, 200.0, 400), "plateau interior"),
            (math.nan, ScanSpec(0.2, 200.0, 400), "^c must be finite$")):
        with pytest.raises(DomainError, match=message):
            certify_monotone(c, scan)
    assert lanes == [] and scalar == []


def test_certify_rejects_a_band_range_too_narrow_after_its_triple(
        monkeypatch):
    # The valley lies strictly inside a range 40 ulps wide: its three
    # points differ far less than their margins, so the triple leaves the
    # verdict open and the grid's own check refuses the range.
    a2 = (8.0 / 135.0) / (-0.2 + 1.0 / 3.0)
    scan = ScanSpec(a2 * (1.0 - 20 * ULP), a2 * (1.0 + 20 * ULP), 400)
    assert scan.a_min < a2 < scan.a_max
    lanes, scalar = _count_evaluations(monkeypatch)
    with pytest.raises(DomainError, match="too narrow"):
        certify_monotone(-0.2, scan)
    assert lanes == [] and scalar == [scan.a_min, a2, scan.a_max]


def test_witness_from_points_takes_the_leftmost_of_tied_points():
    from gammatail.certify import _witness_from_points

    p = [0.9, 0.9, 0.5, 0.1, 0.1, 0.8, 0.8]
    witness, _ = _witness_from_points(range(1, 8), p, [0.0] * 7)
    assert (witness.a1, witness.a2, witness.a3) == (1.0, 4.0, 6.0)


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
    assert rep.min_margin_ratios[-1] == 0.0
    assert not rep.certified


@pytest.mark.parametrize("ys", [[2.0, 2.0 + 4e-16, 3.0], [2.0, 2.0 + 4e-16]],
                         ids=["one-ulp-then-wide", "one-ulp"])
def test_threshold_chain_ratios_cover_uncertified_intervals(ys):
    # A stage that fails reports its smallest ratio over every interval,
    # the uncertified ones included, as the mean chain and the median
    # bracket do: not the ratio of its certified intervals alone, nor inf
    # when none certified.
    from gammatail.certify import _CHAIN_STAGES

    rep = check_threshold_chain(ys)
    assert rep.monotone == (False,) * 4 and not rep.certified
    for (_, stage), ratio in zip(_CHAIN_STAGES, rep.min_margin_ratios):
        points = [stage(y, y - 1.0) for y in ys]
        expected = min(abs(v1 - v0) / (e0 + e1)
                       for (v0, e0), (v1, e1) in zip(points, points[1:]))
        assert ratio == expected < 8.0


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


def test_rational_stage_deriv_keeps_its_precision_near_1():
    # Written as 2(y*y - 1)/den^2, the numerator cancelled: 5.0e-9 off at
    # y = 1 + 1e-8.  (y - 1)(y + 1) is exact but for one rounding.
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(4015)
    ys = ([1.0 + 10.0 ** -k for k in range(1, 16)]
          + [math.nextafter(1.0, 2.0)]
          + [1.0 + 1e-3 * rng.random() for _ in range(2000)]
          + [10.0 ** (75.0 * i / 1999) for i in range(1, 2000)])
    worst = 0.0
    with mpmath.workdps(40):
        for y in ys:
            m = mpmath.mpf(y)
            deriv = 2 * (m * m - 1) / (1 + 4 * m + m * m) ** 2
            worst = max(worst, abs(float((rational_stage_deriv(y) - deriv)
                                         / deriv)))
    assert worst <= 4 * ULP


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
        monkeypatch.setattr(specfun, "STRICT_MARGIN", margin)
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
    # ratio is the zero |gap| / bound at spread 2^-52.
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
    ratios = [abs(gap) / e.err_bound for e in rep.entries
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
    # Below eps = 1e-100 the exponent's -eps z^2/2 heads for underflow and
    # T/eps would lose the 1/3 of its limit, so such eps are rejected.
    for c, eps in ((-0.2, 0.0), (-0.2, 2.0), (-0.2, -0.01), (0.5, 0.01),
                   (-1.5, 0.01), (-0.2, math.nextafter(1e-100, 0.0)),
                   (-0.2, 1e-300)):
        with pytest.raises(DomainError):
            integrated_defect(c, eps)
    integrated_defect(-0.2, 1e-100)


@pytest.mark.parametrize("c", [-0.3, -0.2, -0.1])
def test_integrated_defect_bound_holds_against_mpmath(c):
    # At the slope check's eps the error against a 40-digit quadrature of
    # the defect's own formula stays inside the returned bound, and down to
    # eps = 1e-100 T/eps stays within eps of its limit c + 1/3 (the next
    # term of T/eps is O(eps) with a coefficient below 1 here), give or
    # take the bound.
    mpmath = pytest.importorskip("mpmath")
    from gammatail.certify import _SLOPE_EPS

    b = c + 1.0
    with mpmath.workdps(40):
        for eps in _SLOPE_EPS:
            value, err = integrated_defect(c, eps)
            m_b, m_eps = mpmath.mpf(b), mpmath.mpf(eps)
            ref = 2 * mpmath.quad(
                lambda z: 1 - (1 - m_b * m_eps)
                * (1 - z * m_eps) ** (1 / m_eps - m_b - 1) * mpmath.exp(z),
                [0, 1])
            assert abs(value - ref) <= err, (c, eps)
    for eps in (1e-4, 1e-6, 1e-12, 1e-100):
        value, err = integrated_defect(c, eps)
        assert abs(value / eps - (c + 1.0 / 3.0)) <= eps + err / eps, eps


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
