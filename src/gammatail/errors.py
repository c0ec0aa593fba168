"""Exception types shared across the package.

Every failure mode is explicit: invalid inputs raise DomainError, a quadrature
that cannot meet its target reports what it did achieve, a kernel loop that
runs out of iterations or a solver that misses its residual target raises
ConvergenceError instead of returning a partial result, and certification or
witness-search routines that run out of budget say so rather than guessing.
"""
from __future__ import annotations


class GammaTailError(Exception):
    """Base class for all package-specific errors."""


class DomainError(GammaTailError, ValueError):
    """An argument lies outside the documented domain of an operation."""


class QuadratureError(GammaTailError, RuntimeError):
    """Adaptive integration could not reach its error target.

    Carries the best available estimate so callers can report partial results
    honestly instead of silently using them.
    """

    def __init__(self, message: str, *, value: float, err_bound: float,
                 n_panels: int) -> None:
        super().__init__(message)
        self.value = value
        self.err_bound = err_bound
        self.n_panels = n_panels


class ConvergenceError(GammaTailError, RuntimeError):
    """An iteration stopped before it met its target: a kernel at its cap,
    or the median solver short of its residual tolerance."""

    def __init__(self, message: str, *, n_iter: int) -> None:
        super().__init__(message)
        self.n_iter = n_iter


class CertificationError(GammaTailError, RuntimeError):
    """A certified numerical fact failed to hold (e.g. a guaranteed bracket).

    This is reserved for situations that would contradict a proven statement;
    it is never raised for ordinary convergence trouble.
    """


class WitnessSearchError(GammaTailError, RuntimeError):
    """Non-monotonicity witness search exhausted its parameter budget."""

    def __init__(self, message: str, *, budget: float) -> None:
        super().__init__(message)
        self.budget = budget
