"""Acceptance gate: one test per certification criterion.

Each test calls the corresponding criterion function from
``gammatail.acceptance`` and asserts that it passed, embedding the
criterion's detail string in the failure message.  Running ``pytest -v``
on this module therefore prints one pass/fail line per criterion.

The final tests exercise the reproducibility contract end to end through
the command line (`verify-all --json` must be byte-identical across runs)
and confirm that the fault-injection mode actually fails, i.e. that the
harness is capable of reporting red.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from gammatail import acceptance


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


def test_c05_median_bracket_inequalities():
    _check(acceptance.c05_median_bracket())


def test_c06_median_solver_residuals_and_offsets():
    _check(acceptance.c06_median_solver())


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


def test_verify_all_returns_every_criterion_once():
    results = acceptance.verify_all()
    assert [r.cid for r in results] == sorted(acceptance.CRITERIA)
    assert all(r.passed for r in results), "; ".join(
        f"{r.cid}: {r.detail}" for r in results if not r.passed
    )


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
    # Fault injection shrinks every tolerance by 1e6; the accuracy and
    # margin criteria must then report failure, proving the harness is
    # able to go red rather than passing vacuously.
    results = acceptance.verify_all(["C01", "C05"], corrupt=True)
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
