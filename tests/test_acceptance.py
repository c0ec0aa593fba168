"""Acceptance gate: one test per certification criterion.

Each test calls the corresponding criterion function from
``gammatail.acceptance`` and asserts that it passed, embedding the
criterion's detail string in the failure message.  Running ``pytest -v``
on this module therefore prints one pass/fail line per criterion.

The final tests exercise the reproducibility contract end to end through
the command line (`verify-all --json` must be byte-identical across runs)
and confirm that the fault-injection mode actually fails, i.e. that the
harness is capable of reporting red.  The seeded-draw tests pin the
criteria's own generator to numpy's ``default_rng`` stream, bit for bit.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from gammatail import (CertificationError, ConvergenceError,
                       WitnessSearchError, acceptance)


def _check(result) -> None:
    assert result.passed, f"{result.cid} {result.name}: {result.detail}"


def test_c01_kernel_accuracy_vs_oracle():
    _check(acceptance.c01_kernel_accuracy())


def test_c02_increasing_for_nonnegative_thresholds():
    _check(acceptance.c02_increasing_regime())


def test_c03_decreasing_at_or_below_minus_one_third():
    _check(acceptance.c03_decreasing_regime())


def test_c04_non_monotone_witnesses_in_middle_band():
    _check(acceptance.c04_witnesses())


def test_c04_fails_on_a_witness_search_that_gives_up(monkeypatch):
    # The search that gives up fails the criterion, and the oracle checks
    # the other offsets' witnesses, each at its own offset.
    real = acceptance.find_witness

    def find_witness(c):
        if c == -0.2:
            raise WitnessSearchError("no witness")
        return real(c)

    monkeypatch.setattr(acceptance, "find_witness", find_witness)
    result = acceptance.c04_witnesses()
    assert not result.passed
    parts = result.detail.split("; ")
    assert parts[1] == "c=-0.2: search failed (no witness)"
    others = parts[:1] + parts[2:]
    assert len(others) == 3
    assert all(p.startswith(f"c={c!r}: a=") and p.endswith("dip confirmed")
               for c, p in zip((-0.3, -0.1, -0.05), others))


def test_c05_median_bracket_inequalities():
    _check(acceptance.c05_median_bracket())


def test_c06_median_solver_residuals_and_offsets():
    _check(acceptance.c06_median_solver())


def test_c06_counts_failed_solves_and_offsets_outside_the_band(
        monkeypatch):
    # Two solves raise, one offset leaves (-1/3, 0) and one residual
    # misses its tolerance: four failures of 200.  The spot check at a = 1
    # is the last call.
    calls = iter(range(201))

    def gamma_median(a):
        i = next(calls)
        if i == 0:
            raise ConvergenceError("out of evaluations", n_iter=200)
        if i == 1:
            raise CertificationError("bracket sign")
        if i == 200:
            return SimpleNamespace(offset=math.log(2.0) - 1.0, residual=0.0)
        return SimpleNamespace(offset=0.1 if i == 2 else -0.3,
                               residual=1e-9 if i == 3 else 0.0)

    monkeypatch.setattr(acceptance, "gamma_median", gamma_median)
    result = acceptance.c06_median_solver()
    assert not result.passed
    assert result.detail == (
        "200 shapes, 4 failures, worst residual 1e-09 (tolerance 1e-12); "
        "offset(1) vs ln(2)-1 differs by 0.0 (tolerance 1e-14)")


def test_c07_tail_probability_ratio_identity():
    _check(acceptance.c07_ratio_identity())


def test_c08_direction_form_sign_pattern():
    _check(acceptance.c08_direction_form_signs())


def test_c09_threshold_chain_monotone_with_common_limit():
    _check(acceptance.c09_threshold_chain())


def test_c10_mean_chain_and_weakened_constant_probe():
    _check(acceptance.c10_mean_chain())


def test_c11_asymptotic_slope_of_integrated_defect():
    _check(acceptance.c11_asymptotic_slope())


def test_c12_ratio_derivative_sign_relation():
    _check(acceptance.c12_ratio_sign_relation())


def test_c13_deterministic_verdicts_across_runs():
    _check(acceptance.c13_determinism())


# C07, C10 and C12 draw (107, 40), (110, 20,000) and (112, 2,000).  Python
# promises random() under an integer seed the same sequence on every
# version, so the interpreter matrix in CI checks that promise here.
@pytest.mark.parametrize("seed, n, first, last", [
    (107, 40, "0x1.f8cb889eabcb8p-3", "0x1.31c7ce1523e66p-2"),
    (110, 20_000, "0x1.de57957f6bb11p-1", "0x1.21c41125fd6bep-1"),
    (112, 2_000, "0x1.eccbeaea9ea84p-2", "0x1.d733c9aaf2238p-2"),
], ids=["107-40", "110-20000", "112-2000"])
def test_seeded_uniforms_are_pinned(seed, n, first, last):
    draws = acceptance._seeded_uniforms(seed, n)
    assert draws.dtype == np.float64 and draws.shape == (n,)
    assert (draws[0].hex(), draws[-1].hex()) == (first, last)


def test_one_draw_of_2n_starts_with_the_draw_of_n():
    # C10 takes its x and spread draws in one call.
    n = 10_000
    both = acceptance._seeded_uniforms(110, 2 * n)
    assert both[:n].tolist() == acceptance._seeded_uniforms(110, n).tolist()


def test_verify_all_returns_every_criterion_once():
    results = acceptance.verify_all()
    assert [r.cid for r in results] == sorted(acceptance.CRITERIA)
    assert all(r.passed for r in results), "; ".join(
        f"{r.cid}: {r.detail}" for r in results if not r.passed
    )


def test_verify_all_quadrature_spend_is_pinned(monkeypatch):
    # Every quadrature starts from three panels: verify-all's 2,638 take
    # 389,430 integrand evaluations, C01's oracle 373,410 of them and C07's
    # 80 ratio_parts intervals (two per integral) 10,800.  From eight
    # panels, with one interval per integral, 2,598 took 940,200, C01's
    # 915,240.
    from gammatail import quadrature

    sweeps = quadrature._sweeps
    spent: dict[str, list[int]] = {}

    def spy(*args):          # files the results under the running criterion
        results = sweeps(*args)
        spent.setdefault(cid, []).extend(r.n_evals for r in results)
        return results

    monkeypatch.setattr(quadrature, "_sweeps", spy)
    for cid, fn in acceptance.CRITERIA.items():
        _check(fn(1.0, None))
    quadratures = sum(map(len, spent.values()))
    evals = sum(map(sum, spent.values()))
    # The CI log prints this line (pytest -s).
    print(f"verify-all quadrature: {quadratures} integrals, {evals} "
          f"integrand evaluations, C01 {sum(spent['C01'])}")
    assert quadratures == 2638
    assert evals <= 389_430
    assert sum(spent["C01"]) <= 373_410


def _run_cli(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "gammatail", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


# The exact bytes of verify-all --json.  Every detail string is
# deterministic, so a change that moves any verdict, margin or worst-case
# deviation shows here.  C01's worst deviation is printed to the last bit,
# so a numpy whose exp or log rounds differently moves it too.
_VERIFY_ALL_GOLDEN = Path(__file__).with_name("data") / "verify_all.json"


def test_verify_all_cli_output_is_byte_identical():
    first = _run_cli(["verify-all", "--json"])
    second = _run_cli(["verify-all", "--json"])
    assert first.returncode == 0, first.stdout + first.stderr
    assert first.stdout == second.stdout
    assert first.stdout == _VERIFY_ALL_GOLDEN.read_text(encoding="utf-8")
    payload = json.loads(first.stdout)
    assert payload["all_pass"] is True
    assert len(payload["criteria"]) == len(acceptance.CRITERIA)


def test_corrupt_mode_actually_fails():
    # Fault injection shrinks every tolerance by 1e9; every criterion with
    # a tolerance or a required margin must then report failure, proving
    # the harness is able to go red rather than passing vacuously.
    with_tolerance = [cid for cid in acceptance.CRITERIA
                      if cid not in ("C04", "C13")]
    results = acceptance.verify_all(with_tolerance, corrupt=True)
    assert [r.cid for r in results] == with_tolerance
    assert not any(r.passed for r in results)

    proc = _run_cli(["verify-all", "--criteria", "C01", "--corrupt"])
    assert proc.returncode == 1
    assert "FAIL" in proc.stdout


def test_corrupt_mode_spares_pure_ordering_criteria():
    # C04 (witness ordering) and C13 (reproducibility) assert exact
    # orderings and bitwise equality, not tolerances, so fault injection
    # leaves them green by design.
    results = acceptance.verify_all(["C04", "C13"], corrupt=True)
    assert all(r.passed for r in results)


def test_unknown_criterion_is_rejected():
    from gammatail import DomainError

    with pytest.raises(DomainError):
        acceptance.verify_all(["C99"])
    # An empty selection would pass vacuously.
    with pytest.raises(DomainError, match="no criteria selected"):
        acceptance.verify_all([])
