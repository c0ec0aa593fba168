"""Tests for the gamma-distribution median solver and bracket check.

The bracket theorem pins median(a) strictly between a - 1/3 and a for
every shape a > 0; the solver exploits it directly for moderate shapes
and switches to log-space for small ones, where the median collapses
double-exponentially (median(0.01) ~ 4.5e-31).
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammatail import (
    CertificationError,
    ConvergenceError,
    DomainError,
    MedianResult,
    check_median_bracket,
    gamma_median,
    reg_gamma_q,
)
from gammatail.oracle import oracle_gamma_q
from gammatail.specfun import reg_gamma_q_detail
from gammatail.tailprob import TailValue


def test_median_of_unit_exponential_is_log_two():
    r = gamma_median(1.0)
    assert abs(r.median - math.log(2.0)) <= 4e-16
    assert abs(r.offset - (math.log(2.0) - 1.0)) <= 4e-16
    assert r.residual <= 1e-15


def test_median_oracle_pins():
    # both endpoints frozen from the double-double oracle root search
    r2 = gamma_median(2.0)
    assert math.isclose(r2.median, 1.6783469900166614, rel_tol=5e-15)
    tiny = gamma_median(0.01)
    assert math.isclose(tiny.median, 4.4655350189103635e-31, rel_tol=1e-12)
    # independent residual check through the slow kernel
    assert abs(oracle_gamma_q(0.01, tiny.median) - 0.5) <= 1e-12


def test_median_large_shape():
    r = gamma_median(1e4)
    assert math.isclose(r.median, 9999.666668642049, rel_tol=1e-13)
    # offset approaches -1/3 from above as a grows
    assert -1.0 / 3.0 < r.offset < -0.333
    assert r.residual <= 1e-12


def test_median_result_invariants_on_grid():
    a_values = [10.0 ** (-2.0 + 6.0 * i / 39.0) for i in range(40)]
    for a in a_values:
        r = gamma_median(a)
        assert r.a == a
        assert -1.0 / 3.0 < r.offset < 0.0, a
        assert r.residual <= 1e-12, a
        # defining property, re-evaluated through the public kernel
        assert abs(reg_gamma_q(a, r.median) - 0.5) <= 1e-10, a


def test_median_is_increasing_in_shape():
    meds = [gamma_median(a).median for a in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)]
    assert all(b > a for a, b in zip(meds, meds[1:]))


def test_median_domain_errors():
    for a in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            gamma_median(a)


def test_median_result_rejects_offset_outside_theorem_band():
    with pytest.raises(CertificationError):
        MedianResult(a=1.0, median=1.1, offset=0.1, residual=0.0)
    with pytest.raises(CertificationError):
        MedianResult(a=1.0, median=0.5, offset=-0.5, residual=0.0)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(a=st.floats(min_value=1e-2, max_value=1e4))
def test_median_bracket_property(a):
    r = gamma_median(a)
    assert max(0.0, a - 1.0 / 3.0) < r.median < a


def test_check_median_bracket_certifies_grid():
    grid = [0.05, 0.2, 1.0 / 3.0, 0.5, 1.0, 3.0, 10.0, 250.0, 1e4]
    report = check_median_bracket(grid)
    assert report.certified
    assert report.min_margin_ratio > 8.0
    assert len(report.entries) == len(grid)
    for entry in report.entries:
        # below = 1/2 - Q(a, a) > 0, above = Q(a, a - 1/3) - 1/2 > 0
        assert entry.below > 0.0
        assert entry.above > 0.0
        assert entry.below_err >= 0.0
        assert entry.above_err >= 0.0
    # for a <= 1/3 the upper comparison point a - 1/3 clamps to the
    # plateau where Q = 1 exactly, so its error vanishes
    plateau_entries = [e for e in report.entries if e.a <= 1.0 / 3.0]
    assert plateau_entries
    assert all(e.above_err == 0.0 for e in plateau_entries)
    assert all(e.above == 0.5 for e in plateau_entries)


def test_check_median_bracket_rejects_bad_grid():
    with pytest.raises(DomainError):
        check_median_bracket([])
    with pytest.raises(DomainError):
        check_median_bracket([1.0, -2.0])
    for grid in ([[1.0, 2.0]], [[1.0], [2.0]], 2.0):
        with pytest.raises(DomainError, match="1-D grid"):
            check_median_bracket(grid)


def _counted_kernel(monkeypatch):
    calls = []

    def counted(shape, x):
        calls.append(x)
        return reg_gamma_q(shape, x)

    monkeypatch.setattr("gammatail.median.reg_gamma_q", counted)
    return calls


_CALL_CAPS = [(1.0, 8), (10.0, 8), (1e3, 4), (1e5, 4), (1e7, 4),
              (0.002, 10), (0.01, 10), (0.1, 10),
              (0.3, 8), (0.349, 8), (0.35, 8), (0.5, 8)]


@pytest.mark.parametrize("a, max_calls", _CALL_CAPS,
                         ids=[str(a) for a, _ in _CALL_CAPS])
def test_median_solve_starts_at_the_asymptotic_median(monkeypatch, a,
                                                      max_calls):
    # Two endpoint sign checks, the guess (the large-shape expansion, or
    # below a = 0.35 the root of x^a / Gamma(a + 1) = 1/2 in ln x) and a few
    # Newton steps from it.  Bisecting took 14 to 17 calls at the large
    # shapes and 25 to 27 at the small ones.
    calls = _counted_kernel(monkeypatch)
    r = gamma_median(a)
    assert len(calls) <= max_calls, calls
    assert r.residual <= 1e-12


def test_median_invariants_from_the_linear_branch_to_1e6():
    a_values = [0.35 * (1e6 / 0.35) ** (i / 59.0) for i in range(60)]
    medians = []
    for a in a_values:
        r = gamma_median(a)
        assert -1.0 / 3.0 < r.offset < 0.0, a
        assert r.residual <= 1e-12, a
        medians.append(r.median)
    assert all(lo < hi for lo, hi in zip(medians, medians[1:]))


def test_median_grid_of_c06_stays_within_its_kernel_calls(monkeypatch):
    # C06's 200 log-spaced shapes in [1e-2, 1e4] took 1,218 kernel calls
    # (1,232 on numpy's geomspace grid) when each solve stepped outward from
    # its guess and then bisected and interpolated.
    from gammatail.acceptance import _MEDIAN_SHAPES

    calls = _counted_kernel(monkeypatch)
    for a in _MEDIAN_SHAPES.grid():
        gamma_median(a)
    assert len(calls) <= 1047


@pytest.mark.parametrize("a, cap", [(10.0, 1), (10.0, 2), (0.3, 3)])
def test_median_newton_loop_raises_at_its_cap(monkeypatch, a, cap):
    # Each solve needs more evaluations than the cap after its two endpoint
    # checks, which do not count toward it.
    monkeypatch.setattr("gammatail.median._MAX_EVALS", cap)
    with pytest.raises(ConvergenceError, match="Newton iteration") as info:
        gamma_median(a)
    assert info.value.n_iter == cap


@pytest.mark.parametrize("a", [0.002, 0.01, 0.1, 0.3, 0.349, 0.35, 0.5, 1.0,
                               7.5, 250.0, 12345.678, 1e6, 1e7])
def test_median_residual_against_mpmath(a):
    mpmath = pytest.importorskip("mpmath")
    r = gamma_median(a)
    with mpmath.workdps(40):
        # a and the median enter as the exact doubles.
        q_ref = mpmath.gammainc(mpmath.mpf(a), mpmath.mpf(r.median),
                                mpmath.inf, regularized=True)
        miss = float(abs(q_ref - mpmath.mpf(0.5)))
    assert miss <= 1e-12 + reg_gamma_q_detail(a, r.median).err_bound


def test_median_below_the_log_floor_is_a_domain_limit():
    # Below a ~ 1.0043e-3 the median lies under 1e-300: an implementation
    # limit, not a contradiction of the bracket theorem.
    with pytest.raises(DomainError, match="below the solver's floor"):
        gamma_median(1e-3)
    assert gamma_median(1.0045e-3).median > 1e-300


def test_median_bracket_sign_inside_its_bound_is_inconclusive():
    # At a = 3e7 the computed Q(a, a - 1/3) - 1/2 is -2.6e-14, well inside
    # its 9.4e-12 bound (the true value is +4.8e-14).
    with pytest.raises(ConvergenceError, match="inside the evaluation error"):
        gamma_median(3e7)


def test_median_bracket_violation_needs_a_margin_certified_sign(monkeypatch):
    # Raw endpoint signs alone never make a certified violation ...
    monkeypatch.setattr("gammatail.median.reg_gamma_q", lambda a, x: 0.25)
    with pytest.raises(ConvergenceError):
        gamma_median(2.0)
    # ... a margin wrong by more than 8 error bounds does.
    monkeypatch.setattr("gammatail.median.tail_prob_detail",
                        lambda q: TailValue(0.25, 1e-15, "cf"))
    with pytest.raises(CertificationError, match="contradicts the bracket"):
        gamma_median(2.0)


@pytest.mark.parametrize("at_mean, error, code", [
    (0.5 + 2.0 ** -52, ConvergenceError, 3),   # wrong only inside its bound
    (0.75, CertificationError, 1),             # a certified contradiction
], ids=["inside-bound", "certified"])
def test_median_log_branch_upper_end_failure(monkeypatch, capsys, at_mean,
                                             error, code):
    # Below a = 0.35 the solver checks the upper end m = exp(ln a) of
    # (0, a]; a wrong raw sign there is judged by the margins of the
    # bracket ends.
    from gammatail.cli import main

    q = reg_gamma_q
    monkeypatch.setattr(
        "gammatail.median.reg_gamma_q",
        lambda a, x: 0.75 if math.isclose(x, a) else q(a, x))
    monkeypatch.setattr(
        "gammatail.median.tail_prob_detail",
        lambda query: TailValue(at_mean if query.c == 0.0 else 1.0, 1e-15,
                                "series-complement"))
    with pytest.raises(error, match=r"\(0, a\]"):
        gamma_median(0.1)
    assert main(["median", "--a", "0.1"]) == code
    assert "(0, a]" in capsys.readouterr().err
