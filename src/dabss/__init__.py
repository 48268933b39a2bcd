"""Exact discrete-time steady-state and sampled small-signal models of dual active bridge converters.

The top level holds what a typical analysis needs; every other public name
imports from its module: `dabss.pwlti`, `dabss.dab`, `dabss.smallsignal`,
`dabss.oracle`, `dabss.config` and `dabss.errors`.
"""

from .config import Injection, SimConfig
from .dab import DabParams, build_dab
from .errors import ResolventSingularityError
from .pwlti import relative_residual, solve_periodic_fixed_point
from .smallsignal import (P_MINUS, P_PLUS, S_MINUS, S_PLUS, SURFACES, Surface,
                          difference_envelope, half_cycle_model, sweep_frequencies,
                          transfer_difference, transfer_difference_residual,
                          transfer_fixed_freq, transfer_same_cycle)

__version__ = "0.1.0"

__all__ = [
    "DabParams", "Injection", "P_MINUS", "P_PLUS", "ResolventSingularityError",
    "S_MINUS", "S_PLUS", "SURFACES", "SimConfig", "Surface", "build_dab",
    "difference_envelope", "half_cycle_model", "relative_residual",
    "solve_periodic_fixed_point", "sweep_frequencies", "transfer_difference",
    "transfer_difference_residual", "transfer_fixed_freq", "transfer_same_cycle",
]
