"""The package's acceptance suite as callable, machine-checkable criteria.

Each criterion re-states one quantitative claim the package certifies and
returns a CriterionResult with a deterministic detail string (no timings or
environment data in the detail, so serialized reports are byte-stable).

tol_scale exists for fault injection in tests: it multiplies the criterion's
primary tolerance (equivalently divides its required margin ratio), so a
tiny value forces failures without touching the code under test.  Criteria
that certify pure orderings (C04) or reproducibility (C13) have no scalar
tolerance and ignore it.
"""
from __future__ import annotations

import json
import math
import random
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from ._lanes import _ordered_extreme, branch_roots_many, reg_gamma_q_many
from .certify import (_PROBE_FACTOR, ScanSpec, certify_monotone,
                      check_asymptotic_slope, check_mean_chain,
                      check_threshold_chain, find_witness)
from .errors import (CertificationError, ConvergenceError, DomainError,
                     GammaTailError)
from .median import check_median_bracket, gamma_median
from .oracle import oracle_gamma_q_many, oracle_tail_prob_many
from .specfun import EPS, ONE_THIRD, STRICT_MARGIN
from .tailprob import (_default_scan, direction_form_detail, integrand_ratio,
                       ratio_parts_many, tail_prob_many)

_KERNEL_SHAPES = ScanSpec(1e-3, 1e4, 50)
_KERNEL_TOL = 1e-12
_MEDIAN_SHAPES = ScanSpec(1e-2, 1e4, 200)
_IDENTITY_TOL = 1e-8
_LIMIT_TOL = 1e-6
_SIGN_NOISE_FLOOR = 1e-6
_FD_LADDER = (1e-5, 1e-4, 1e-3)


class CriterionResult(NamedTuple):
    cid: str
    name: str
    passed: bool
    detail: str


def _seeded_uniforms(seed: int, n: int) -> np.ndarray:
    """The first n draws of random.Random(seed).random().  Python keeps this
    sequence for an integer seed fixed across versions, and MT19937 is
    integer arithmetic followed by one exact division, so the draws are the
    same on every platform too.  One call of 2n draws is the stream of two
    calls of n.
    """
    draw = random.Random(seed).random
    return np.fromiter((draw() for _ in range(n)), dtype=float, count=n)


def _result(cid: str, name: str, passed: bool, detail: str) -> CriterionResult:
    return CriterionResult(cid=cid, name=name, passed=bool(passed),
                           detail=detail)


def _kernel_grid() -> tuple[np.ndarray, np.ndarray]:
    """C01's (a, x) lanes: n x in [0, a + 40 sqrt(a) + 40] per shape a."""
    n = _KERNEL_SHAPES.n
    shapes = _KERNEL_SHAPES.grid()
    tops = np.array([s + 40.0 * math.sqrt(s) + 40.0 for s in shapes])
    # Evenly spaced from 0, the last x exact, as ScanSpec spaces a linear grid.
    x = np.arange(n) * (tops / (n - 1))[:, None]
    x[:, -1] = tops
    return np.repeat(shapes, n), x.ravel()


def c01_kernel_accuracy(tol_scale: float = 1.0,
                        _unused: object = None) -> CriterionResult:
    """Fast kernel vs oracle on a 50x50 (a, x) grid."""
    tol = _KERNEL_TOL * tol_scale
    worst = 0.0
    worst_at = (0.0, 0.0)
    a, x = _kernel_grid()
    # Both sides take the whole grid, one lane per (a, x), in one call.
    for a_i, x_i, slow, fast in zip(a.tolist(), x.tolist(),
                                    oracle_gamma_q_many(a, x),
                                    reg_gamma_q_many(a, x).tolist()):
        if slow == 0.0:
            rel = 0.0 if fast == 0.0 else math.inf
        else:
            rel = abs(fast - slow) / slow
        if rel > worst:
            worst = rel
            worst_at = (a_i, x_i)
    passed = worst <= tol
    return _result(
        "C01", "kernel-vs-oracle accuracy", passed,
        f"worst relative deviation {worst!r} at (a, x)={worst_at!r} on the "
        f"{_KERNEL_SHAPES.n}x{_KERNEL_SHAPES.n} grid (tolerance {tol!r})")


def _monotone_cases(cid: str, name: str, cases: Sequence[float],
                    expected: str, tol_scale: float) -> CriterionResult:
    required = STRICT_MARGIN / tol_scale
    lines = []
    ok = True
    for c in cases:
        verdict = certify_monotone(c, _default_scan(c))
        good = (verdict.direction == expected
                and verdict.margin_ratio >= required)
        ok = ok and good
        lines.append(f"c={c!r}: {verdict.direction} "
                     f"margin_ratio={verdict.margin_ratio:.3e}")
    return _result(cid, name, ok,
                   f"expected {expected} with margin_ratio >= {required:g}; "
                   + "; ".join(lines))


def c02_increasing_regime(tol_scale: float = 1.0,
                          _unused: object = None) -> CriterionResult:
    """Certified increasing tail probability for c >= 0."""
    return _monotone_cases(
        "C02", "increasing tail for c >= 0",
        (0.0, 0.1, ONE_THIRD, 1.0, 5.0), "increasing", tol_scale)


def c03_decreasing_regime(tol_scale: float = 1.0,
                          _unused: object = None) -> CriterionResult:
    """Certified decreasing tail probability for c <= -1/3."""
    return _monotone_cases(
        "C03", "decreasing tail for c <= -1/3",
        (-ONE_THIRD - 1e-3, -0.5, -1.0, -2.0), "decreasing", tol_scale)


def c04_witnesses(tol_scale: float = 1.0,
                  _unused: object = None) -> CriterionResult:
    """Witness triples exist for c in (-1/3, 0) and survive the oracle."""
    found = []
    for c in (-0.30, -0.2, -0.1, -0.05):
        try:
            found.append((c, find_witness(c)))
        except GammaTailError as exc:
            found.append((c, exc))
    # One oracle call for every witness point, each at its own offset.
    certified = [(c, w) for c, w in found if not isinstance(w, Exception)]
    probs = iter(oracle_tail_prob_many(
        [a for _, w in certified for a in (w.a1, w.a2, w.a3)],
        np.repeat([c for c, _ in certified], 3)))
    lines = []
    ok = True
    for c, w in found:
        if isinstance(w, GammaTailError):
            ok = False
            lines.append(f"c={c!r}: search failed ({w})")
            continue
        o1, o2, o3 = next(probs), next(probs), next(probs)
        good = o1 > o2 < o3
        ok = ok and good
        lines.append(f"c={c!r}: a=({w.a1!r}, {w.a2!r}, {w.a3!r}) "
                     f"oracle dip {'confirmed' if good else 'REFUTED'}")
    return _result("C04", "non-monotonicity witnesses in (-1/3, 0)", ok,
                   "; ".join(lines))


def c05_median_bracket(tol_scale: float = 1.0,
                       _unused: object = None) -> CriterionResult:
    """Both bracket inequalities strict with margins on the shape grid."""
    required = STRICT_MARGIN / tol_scale
    report = check_median_bracket(_MEDIAN_SHAPES.grid())
    passed = report.certified and report.min_margin_ratio >= required
    return _result(
        "C05", "median bracket inequalities", passed,
        f"{len(report.entries)} shapes, min margin ratio "
        f"{report.min_margin_ratio:.6e} (required {required:g})")


def c06_median_solver(tol_scale: float = 1.0,
                      _unused: object = None) -> CriterionResult:
    """Median offsets stay in (-1/3, 0) with residual <= 1e-12; spot a=1."""
    residual_tol = 1e-12 * tol_scale
    spot_tol = 1e-14 * tol_scale
    worst_residual = 0.0
    failures = 0
    for a in _MEDIAN_SHAPES.grid():
        try:
            r = gamma_median(a)
        except (CertificationError, ConvergenceError):
            failures += 1
            continue
        worst_residual = max(worst_residual, r.residual)
        if not (-ONE_THIRD < r.offset < 0.0 and r.residual <= residual_tol):
            failures += 1
    spot = gamma_median(1.0)
    spot_err = abs(spot.offset - (math.log(2.0) - 1.0))
    passed = failures == 0 and spot_err <= spot_tol
    return _result(
        "C06", "median offset and residual", passed,
        f"{_MEDIAN_SHAPES.n} shapes, {failures} failures, worst residual "
        f"{worst_residual!r} (tolerance {residual_tol!r}); offset(1) vs "
        f"ln(2)-1 differs by {spot_err!r} (tolerance {spot_tol!r})")


def c07_ratio_identity(tol_scale: float = 1.0,
                       _unused: object = None) -> CriterionResult:
    """tail_prob equals 1/(1 + head/tail integral ratio) at shifted shape."""
    tol = _IDENTITY_TOL * tol_scale
    draws = _seeded_uniforms(107, 40)
    a = 1.1 + 18.9 * draws[0::2]
    c = -0.9 + 2.9 * draws[1::2]
    direct = tail_prob_many(a, c)[0].tolist()
    worst = 0.0
    for d, parts in zip(direct, ratio_parts_many(a - 1.0, c)):
        worst = max(worst, abs(d - 1.0 / (1.0 + parts.ratio)))
    return _result(
        "C07", "tail probability integral-ratio identity", worst <= tol,
        f"20 seeded (a, c) pairs, worst |direct - via_ratio| = {worst!r} "
        f"(tolerance {tol!r})")


def c08_direction_form_signs(tol_scale: float = 1.0,
                             _unused: object = None) -> CriterionResult:
    """Direction form certified negative for c <= -1/3 on a z-grid, and
    certified positive somewhere for c > -1/3."""
    required = STRICT_MARGIN / tol_scale
    negative = (-ONE_THIRD, -0.4, -1.0, -3.0)
    positive = (-0.33, -0.2, 0.0, 1.0)
    # One row per offset, one column per grid point.
    m, err = direction_form_detail(
        branch_roots_many(ScanSpec(0.001, 0.999, 1000, "linear").grid()),
        np.array(negative + positive)[:, None])
    lines = []
    ok = True
    for c, m_c, err_c in zip(negative, m, err):
        # The builtin max over the grid, as a loop over the points takes it.
        worst = _ordered_extreme(max, -math.inf, m_c)
        certified = bool(np.all((m_c < 0.0) & (-m_c >= required * err_c)))
        ok = ok and certified
        lines.append(f"c={c!r}: max over grid {worst:.3e} "
                     f"({'all certified negative' if certified else 'NOT certified'})")
    for c, m_c, err_c in zip(positive, m[4:], err[4:]):
        found = bool(np.any((m_c > 0.0) & (m_c >= required * err_c)))
        ok = ok and found
        lines.append(f"c={c!r}: positive value "
                     f"{'found' if found else 'NOT found'}")
    return _result("C08", "direction form sign dichotomy", ok,
                   "; ".join(lines))


def c09_threshold_chain(tol_scale: float = 1.0,
                        _unused: object = None) -> CriterionResult:
    """All four reduction stages certified increasing with a common limit."""
    required = STRICT_MARGIN / tol_scale
    limit_tol = _LIMIT_TOL * tol_scale
    ys = [1.0 + t for t in ScanSpec(1e-8, 1e6 - 1.0, 400).grid()]
    report = check_threshold_chain(ys)
    worst_limit = max(abs(v) for v in report.limit_excesses)
    passed = (report.certified
              and min(report.min_margin_ratios) >= required
              and worst_limit <= limit_tol)
    return _result(
        "C09", "threshold ratio chain monotonicity", passed,
        f"stages {report.stage_names} monotone={report.monotone}, min margin "
        f"ratios {tuple(f'{r:.3e}' for r in report.min_margin_ratios)}, "
        f"worst limit excess {worst_limit!r} (tolerance {limit_tol!r})")


def c10_mean_chain(tol_scale: float = 1.0,
                   _unused: object = None) -> CriterionResult:
    """Mean chain on 1e4 seeded pairs plus the 0.332 optimality probe."""
    required = STRICT_MARGIN / tol_scale
    n = 10_000
    draws = _seeded_uniforms(110, 2 * n)
    xs = 10.0 ** (-2.0 + 4.0 * draws[:n])
    spreads = 10.0 ** (-6.0 + (math.log10(1e6 - 1.0) + 6.0) * draws[n:])
    pairs = np.stack((xs, xs * (1.0 + spreads)), axis=1)
    report = check_mean_chain(pairs)
    passed = (report.certified
              and report.min_margin_ratio >= required
              and report.probe_violation_found)
    return _result(
        "C10", "mean chain and factor optimality", passed,
        f"{n} pairs, min margin ratio {report.min_margin_ratio:.6e} "
        f"(required {required:g}); probe at factor {_PROBE_FACTOR!r} "
        f"violation {'found' if report.probe_violation_found else 'NOT found'}"
        f" at spread {report.probe_spread!r}")


def c11_asymptotic_slope(tol_scale: float = 1.0,
                         _unused: object = None) -> CriterionResult:
    """Fitted small-eps slope of the integrated defect matches c + 1/3."""
    slope_tol = 0.02 * tol_scale
    report = check_asymptotic_slope(-0.2)
    rel_err = (abs(report.slope - report.slope_target)
               / abs(report.slope_target))
    passed = (report.positive_ok and report.residual_bound_ok
              and rel_err <= slope_tol)
    return _result(
        "C11", "small-eps slope of integrated defect", passed,
        f"fitted slope {report.slope!r} vs target {report.slope_target!r}, "
        f"relative error {rel_err!r} (tolerance {slope_tol!r}); totals "
        f"positive: {report.positive_ok}, residual envelope: "
        f"{report.residual_bound_ok}")


def c12_ratio_sign_relation(tol_scale: float = 1.0,
                            _unused: object = None) -> CriterionResult:
    """Finite-difference slope sign of the integrand ratio is opposite to
    the direction form's sign at seeded (z, c) points."""
    n = 1000
    draws = _seeded_uniforms(112, 2 * n)
    z = 0.01 + 0.98 * draws[0::2]
    c = -2.0 + 4.0 * draws[1::2]
    m, m_err = direction_form_detail(branch_roots_many(z), c)
    # max(_SIGN_NOISE_FLOOR, STRICT_MARGIN * m_err), as the builtin takes it.
    floor = STRICT_MARGIN * m_err
    floor = np.where(_SIGN_NOISE_FLOOR > floor, _SIGN_NOISE_FLOOR, floor)
    below = np.abs(m) <= floor
    skipped_floor = int(below.sum())
    # Each rung of the ladder takes the points that no smaller step resolved,
    # both sides of each in one roots call.
    pending = np.flatnonzero(~below)
    checked = violations = 0
    for h_rel in _FD_LADDER:
        z_o, c_o = z[pending], c[pending]
        h = z_o * h_rel
        r = integrand_ratio(branch_roots_many(np.concatenate((z_o + h,
                                                              z_o - h))),
                            np.concatenate((c_o, c_o)))
        r_hi, r_lo = r[:pending.size], r[pending.size:]
        with np.errstate(invalid="ignore"):
            d = r_hi - r_lo
            noise = 64.0 * EPS * (np.abs(r_hi) + np.abs(r_lo))
            resolved = (np.isfinite(r_hi) & np.isfinite(r_lo)
                        & ~(np.abs(d) <= noise))
        checked += int(resolved.sum())
        violations += int(np.sum(resolved & ((d > 0.0) != (m[pending] < 0.0))))
        pending = pending[~resolved]
    unresolved = int(pending.size)
    passed = violations == 0 and checked >= (2 * n) // 3
    return _result(
        "C12", "ratio derivative sign relation", passed,
        f"{checked} points sign-checked, {violations} violations, "
        f"{skipped_floor} below the direction-form noise floor, "
        f"{unresolved} finite differences unresolved")


def c13_determinism(tol_scale: float = 1.0,
                    _unused: object = None) -> CriterionResult:
    """Verdicts and their serialized forms are identical across repeated
    runs (in-process check; the CLI-level byte comparison lives in the test
    suite)."""
    scan = ScanSpec(0.21, 500.0, 120, "log")
    first = certify_monotone(-0.2, scan)
    again = certify_monotone(-0.2, scan)
    same_bytes = json.dumps(first) == json.dumps(again)
    return _result(
        "C13", "deterministic verdicts", first == again and same_bytes,
        f"verdict equality across runs: {first == again}; serialized forms "
        f"{'identical' if same_bytes else 'DIFFER'}")


# Each criterion is called as fn(tol_scale) by verify_all; the ignored second
# positional slot stays because perfbench/worker.py calls fn(1.0, None).
CRITERIA: dict[str, Callable[[float, object], CriterionResult]] = {
    "C01": c01_kernel_accuracy,
    "C02": c02_increasing_regime,
    "C03": c03_decreasing_regime,
    "C04": c04_witnesses,
    "C05": c05_median_bracket,
    "C06": c06_median_solver,
    "C07": c07_ratio_identity,
    "C08": c08_direction_form_signs,
    "C09": c09_threshold_chain,
    "C10": c10_mean_chain,
    "C11": c11_asymptotic_slope,
    "C12": c12_ratio_sign_relation,
    "C13": c13_determinism,
}

_CORRUPT_TOL_SCALE = 1e-6


def verify_all(criteria: Optional[Sequence[str]] = None, *,
               corrupt: bool = False) -> tuple[CriterionResult, ...]:
    """Run the selected acceptance criteria (all by default), in id order.

    A selection that names no criterion is rejected rather than passed
    vacuously.  corrupt=True injects a 1e-6 tolerance scale so that healthy
    code fails: it exists to prove the harness can report failures honestly.
    """
    if criteria is None:
        cids = list(CRITERIA)
    else:
        cids = [c.upper() for c in criteria]
        unknown = [c for c in cids if c not in CRITERIA]
        if unknown:
            raise DomainError(f"unknown criteria: {', '.join(unknown)}")
        if not cids:
            raise DomainError("no criteria selected")
        cids = sorted(set(cids), key=list(CRITERIA).index)
    tol_scale = _CORRUPT_TOL_SCALE if corrupt else 1.0
    return tuple(CRITERIA[cid](tol_scale) for cid in cids)
