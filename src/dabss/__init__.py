"""Exact discrete-time steady-state and sampled small-signal models of dual active bridge converters.

The top level holds what a typical analysis needs, each name imported from its module when
first used (PEP 562), so `import dabss` loads no numpy. Every other public name imports from its
module: `dabss.core`, `dabss.pwlti`, `dabss.dab`, `dabss.smallsignal`, `dabss.oracle`,
`dabss.config` and `dabss.errors`.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {name: module for module, names in (  # each top-level name, by its module
    ("config", "Injection SimConfig"), ("core", "relative_residual"),
    ("dab", "DabParams P_MINUS P_PLUS S_MINUS S_PLUS SURFACES Surface build_dab"),
    ("errors", "ResolventSingularityError"), ("pwlti", "solve_periodic_fixed_point"),
    ("smallsignal", "difference_envelope half_cycle_model sweep_frequencies transfer_difference "
                    "transfer_difference_residual transfer_fixed_freq transfer_same_cycle"))
    for name in names.split()}
__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
