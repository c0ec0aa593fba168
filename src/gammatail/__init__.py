"""Centered gamma tail probabilities with certified monotonicity verdicts.

The package evaluates p_c(a) = P(X_a - a > c) = Q(a, a + c) for a gamma
variable X_a with shape a, certifies its direction of monotonicity in a
(increasing for c >= 0, decreasing for c <= -1/3, non-monotone with an
explicit witness in between), solves for gamma medians inside the proven
(a - 1/3, a) bracket, and certifies the supporting mean inequalities and
derivative-ratio sign relations — every verdict backed by explicit error
bounds and strictness margins rather than bare floating-point comparisons.
"""
from __future__ import annotations

from .acceptance import CRITERIA, CriterionResult, verify_all
from .certify import (AsymptoticSlopeReport, MeanChainEntry, MeanChainReport,
                      MonotoneVerdict, ScanSpec, ThresholdChainReport,
                      Witness, certify_monotone, check_asymptotic_slope,
                      check_mean_chain, check_threshold_chain, find_witness,
                      integrated_defect, rational_stage,
                      rational_stage_deriv)
from .errors import (CertificationError, ConvergenceError, DomainError,
                     GammaTailError, QuadratureError, WitnessSearchError)
from .median import (MedianBracketCheck, MedianBracketReport, MedianResult,
                     check_median_bracket, gamma_median)
from .quadrature import QuadResult, integrate
from .specfun import (BranchRoots, EvalDetail, branch_root_deriv,
                      branch_roots, lambert_w0, lambert_wm1, log_mean,
                      refined_mean, reg_gamma_q, reg_gamma_q_detail,
                      threshold_ratio)
from .tailprob import (RatioParts, TailQuery, TailValue, direction_form,
                       direction_form_detail, integrand_ratio, ratio_parts,
                       tail_prob, tail_prob_detail, tail_prob_many)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "GammaTailError", "DomainError", "QuadratureError", "ConvergenceError",
    "CertificationError", "WitnessSearchError",
    # special functions
    "EvalDetail", "BranchRoots", "reg_gamma_q", "reg_gamma_q_detail",
    "lambert_w0", "lambert_wm1", "branch_roots", "branch_root_deriv",
    "log_mean", "refined_mean", "threshold_ratio",
    # quadrature
    "QuadResult", "integrate",
    # tail probability
    "TailQuery", "TailValue", "RatioParts", "tail_prob", "tail_prob_detail",
    "tail_prob_many", "ratio_parts", "direction_form",
    "direction_form_detail", "integrand_ratio",
    # median
    "MedianResult", "MedianBracketCheck", "MedianBracketReport",
    "gamma_median", "check_median_bracket",
    # certification
    "ScanSpec", "Witness", "MonotoneVerdict", "ThresholdChainReport",
    "MeanChainEntry", "MeanChainReport", "AsymptoticSlopeReport",
    "certify_monotone", "find_witness", "check_threshold_chain",
    "check_mean_chain", "check_asymptotic_slope", "integrated_defect",
    "rational_stage", "rational_stage_deriv",
    # acceptance
    "CRITERIA", "CriterionResult", "verify_all",
]
