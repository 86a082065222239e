"""Exception types shared across the package.

Validation problems (bad parameters, regime-gate violations, grids that do
not cover the requested evolution) subclass ``ValueError`` so they map to
CLI exit code 2; numerical failures subclass ``RuntimeError`` and map to 3.
"""

from __future__ import annotations


class ValidationError(ValueError):
    """A parameter, configuration, or regime precondition was violated."""


class GridCoverageError(ValidationError):
    """The bath grid does not cover the requested time span under the chirp."""


class SolverError(RuntimeError):
    """A numerical routine failed to meet its accuracy contract."""


class StepSizeUnderflowError(SolverError):
    """The adaptive integrator could not make progress."""

    def __init__(self, t: float):
        self.t = t
        super().__init__(f"step size underflow at t = {t:.6g}")
