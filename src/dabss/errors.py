"""Exception types shared across the package.

The CLI maps these onto process exit codes, so the distinctions matter:
configuration problems, near-singular solves, iteration budgets, and
injection amplitude violations must stay separable.
"""

from __future__ import annotations


class DimensionError(ValueError):
    """A matrix or vector has an incompatible shape."""


class NumericInputError(ValueError):
    """An input carries NaN or infinite entries where finite values are required."""


class ParameterError(ValueError):
    """A converter parameter violates its physical validity range."""


class ConfigError(Exception):
    """The configuration document is missing, malformed, or carries unknown keys."""


class MarginalSystemError(ArithmeticError):
    """A solve is too ill conditioned to trust, or an iteration cannot contract.

    The solve is a fixed point or a similarity transform. Carries the eigenvalues of
    the map (when available) so callers can report why its fixed point is marginal.
    """

    def __init__(self, message: str, eigenvalues=None):
        super().__init__(message)
        self.eigenvalues = eigenvalues


class ResolventSingularityError(ArithmeticError):
    """A transfer function was evaluated at (or within 1e-12 of) a pole."""


class ConvergenceError(RuntimeError):
    """The simulator exhausted its period budget before reaching steady state.

    Carries the last period-to-period residual and the spectral radius of the
    per-period map when it was computed.
    """

    def __init__(self, message: str, residual: float | None = None,
                 spectral_radius: float | None = None):
        super().__init__(message)
        self.residual = residual
        self.spectral_radius = spectral_radius


class AmplitudeError(ValueError):
    """An injection amplitude pushes a switching duration negative."""
