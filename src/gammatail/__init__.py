"""Centered gamma tail probabilities with certified monotonicity verdicts.

The package evaluates p_c(a) = P(X_a - a > c) = Q(a, a + c) for a gamma
variable X_a with shape a, certifies its direction of monotonicity in a
(increasing for c >= 0, decreasing for c <= -1/3, non-monotone with an
explicit witness in between), solves for gamma medians inside the proven
(a - 1/3, a) bracket, and certifies the supporting mean inequalities and
derivative-ratio sign relations — every verdict backed by explicit error
bounds and strictness margins rather than bare floating-point comparisons.

The package loads lazily (PEP 562): importing it runs no submodule, and each
exported name imports its home module on first access, so a caller pays
only for the layers it uses.  numpy comes in with the batched scans,
quadrature and the acceptance criteria; the scalar kernels, tail
probabilities and medians need the standard library alone.
"""
from __future__ import annotations

import importlib

__version__ = "0.1.0"

# Home module -> the names it exports, in the order of __all__.
_HOMES = {
    "errors": (
        "GammaTailError", "DomainError", "QuadratureError", "ConvergenceError",
        "CertificationError", "WitnessSearchError"),
    "specfun": (
        "EvalDetail", "BranchRoots", "reg_gamma_q", "reg_gamma_q_detail",
        "lambert_w0", "lambert_wm1", "branch_roots", "branch_root_deriv",
        "log_mean", "refined_mean", "threshold_ratio"),
    "quadrature": ("QuadResult", "integrate"),
    "tailprob": (
        "TailQuery", "TailValue", "RatioParts", "ScanSpec", "tail_prob",
        "tail_prob_detail", "tail_prob_many", "ratio_parts",
        "ratio_parts_many", "direction_form", "direction_form_detail",
        "integrand_ratio"),
    "median": (
        "MedianResult", "MedianBracketCheck", "MedianBracketReport",
        "gamma_median", "check_median_bracket"),
    "certify": (
        "Witness", "MonotoneVerdict", "ThresholdChainReport",
        "MeanChainEntry", "MeanChainReport", "AsymptoticSlopeReport",
        "certify_monotone", "find_witness", "check_threshold_chain",
        "check_mean_chain", "check_asymptotic_slope", "integrated_defect",
        "rational_stage", "rational_stage_deriv"),
    "acceptance": ("CRITERIA", "CriterionResult", "verify_all"),
}
_HOME_OF = {name: home for home, names in _HOMES.items() for name in names}

__all__ = ["__version__", *_HOME_OF]


def __getattr__(name: str) -> object:
    home = _HOME_OF.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
