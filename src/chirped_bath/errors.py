"""Exception types shared across the package.

Validation problems (bad parameters, regime-gate violations, horizons past
the discrete bath's recurrence limit) raise a ``ValueError`` subclass, which
maps to CLI exit code 2; numerical failures raise a ``RuntimeError``
subclass, which maps to 3.
"""

from __future__ import annotations


class ValidationError(ValueError):
    """A parameter, configuration, or regime precondition was violated."""


class SolverError(RuntimeError):
    """A numerical routine failed to meet its accuracy contract."""
