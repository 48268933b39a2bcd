"""Configuration document: JSON, SI base units, strict key checking.

Each section is read into the class it configures, a NamedTuple (SimConfig
aside), whose fields give its keys, types and defaults. Unknown keys are
rejected at every level so a typo like "Dphase" fails loudly instead of
silently running on a default.
Numeric fields reject booleans (a JSON `true` is not a number here). The
two `unsafe_*` keys exist only to drive the negative verification paths and
default to inert.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from .core import validated
from .dab import SURFACES, DabParams
from .errors import ConfigError, ParameterError


@validated
class Injection(NamedTuple):
    """Sinusoidal control-voltage perturbation for response measurement.

    `amplitude` of None means: start at oracle.DEFAULT_AMPLITUDE_RATIO * Vr and
    halve automatically while the perturbation would push a duration
    negative. An explicit amplitude that violates a duration raises instead.
    """

    f: float | None = None
    amplitude: float | None = None
    settle_periods: int = 800
    measure_periods: int = 1000

    def _check(self):
        if self.f is not None and not (math.isfinite(self.f) and self.f > 0.0):
            raise ConfigError(f"injection frequency must be finite and > 0, got {self.f!r}")
        if self.amplitude is not None and not (
                math.isfinite(self.amplitude) and self.amplitude >= 0.0):
            raise ConfigError(f"injection amplitude must be finite and >= 0, got {self.amplitude!r}")
        # The caps bound the per-half-cycle control sequence of a measurement.
        if not (isinstance(self.settle_periods, int) and 0 <= self.settle_periods <= 10**6):
            raise ConfigError(
                f"settle_periods must be an integer in [0, 10**6], got {self.settle_periods!r}")
        if not (isinstance(self.measure_periods, int) and 1 <= self.measure_periods <= 10**6):
            raise ConfigError(
                f"measure_periods must be an integer in [1, 10**6], got {self.measure_periods!r}")


# A frozen dataclass, not a NamedTuple: callers copy it with `dataclasses.replace`.
@dataclass(frozen=True)
class SimConfig:
    """Iteration budget and sampling density of the simulator."""

    periods: int = 4000
    substeps_per_interval: int = 32
    convergence_tol: float = 1e-9
    injection: Injection = Injection()

    def __post_init__(self):
        if not (isinstance(self.periods, int) and self.periods >= 1):
            raise ConfigError(f"periods must be an integer >= 1, got {self.periods!r}")
        # The cap bounds the sampled waveform, one Python sample per substep.
        if not (isinstance(self.substeps_per_interval, int)
                and 1 <= self.substeps_per_interval <= 10**4):
            raise ConfigError("sim.substeps_per_interval must be an integer in [1, 10**4], "
                              f"got {self.substeps_per_interval!r}")
        if not (math.isfinite(self.convergence_tol) and self.convergence_tol > 0.0):
            raise ConfigError(f"convergence_tol must be > 0, got {self.convergence_tol!r}")


# `_section` reads a section's keys as a NamedTuple gives them.
SimConfig._fields = tuple(SimConfig.__dataclass_fields__)
SimConfig._field_defaults = {k: f.default for k, f in SimConfig.__dataclass_fields__.items()}


def require_coherent(injection: Injection, period: float) -> int:
    """Validate coherent sampling: f * measure_periods * period must be an integer >= 1.

    Returns that integer cycle count. Coherence makes the rectangular-window
    DFT bin exact, so no leakage correction is ever applied downstream.
    """
    if injection.f is None:
        raise ConfigError("injection frequency is not set")
    cycles = injection.f * injection.measure_periods * period
    nearest = round(cycles)
    if nearest < 1 or abs(cycles - nearest) > 1e-9 * max(1.0, cycles):
        raise ConfigError(
            f"non-coherent measurement window: f*measure_periods*Ts = {cycles!r} "
            "must be a positive integer")
    return int(nearest)


@validated
class SweepSpec(NamedTuple):
    f_min: float
    f_max: float
    points: int = 25
    spacing: str = "log"

    def _check(self):
        if not (math.isfinite(self.f_min) and math.isfinite(self.f_max)
                and 0.0 < self.f_min < self.f_max):
            raise ConfigError(f"sweep needs 0 < f_min < f_max, got {self.f_min!r}, {self.f_max!r}")
        # The cap bounds the memory of the per-point arrays of a sweep.
        if not (isinstance(self.points, int) and 2 <= self.points <= 10**6):
            raise ConfigError(f"sweep.points must be an integer in [2, 10**6], got {self.points!r}")
        if self.spacing not in ("log", "linear"):
            raise ConfigError(f"sweep spacing must be 'log' or 'linear', got {self.spacing!r}")


@validated
class Tolerances(NamedTuple):
    """Identity-suite tolerances; every field is overridable from the config."""

    half_wave_symmetry: float = 1e-12
    half_cycle: float = 1e-10
    resolvent_identity: float = 1e-12
    similarity: float = 1e-12
    surface_equivalence: float = 1e-10
    transfer_difference: float = 1e-12

    def _check(self):
        for name, value in zip(self._fields, self):
            if not (isinstance(value, float) and math.isfinite(value) and value > 0.0):
                raise ConfigError(f"tolerance {name} must be a finite float > 0, got {value!r}")


class AppConfig(NamedTuple):
    converter: DabParams
    sim: SimConfig
    sweep: SweepSpec
    tolerances: Tolerances
    t3_skew: float
    surfaces: dict  # label -> Surface: SURFACES with `unsafe_polarity_override` applied


def _require_table(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"section '{name}' must be an object, got {type(value).__name__}")
    return value


# Annotation text of a section field (its module postpones annotations) -> its type.
_TYPES = {"float": float, "int": int, "str": str, "Injection": Injection}
_KINDS = {float: "a number", int: "an integer", str: "a string"}


def _convert(annotation: str, value, name: str):
    """`value` checked against a field's annotation text; `name` is the dotted key."""
    if value is None and annotation.endswith(" | None"):
        return None
    kind = _TYPES[annotation.removesuffix(" | None")]
    if kind not in _KINDS:  # a nested section
        return _section(kind, value, name)
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise ConfigError(f"'{name}' must be {_KINDS[kind]}, got {value!r}")
    try:
        return float(value) if kind is float else value
    except OverflowError:
        raise ConfigError(f"'{name}' is an integer too large for a double") from None


def _section(cls, raw, name: str, defaults=None):
    """Build the section class `cls` from the JSON table `raw` of config section `name`.

    A null section reads as empty. Present keys are type-checked from the text of the field
    annotations (a NamedTuple keeps each as a `typing.ForwardRef` of its text), absent ones take
    `defaults`, then the field default. Range checks stay in the class (`_check`,
    `SimConfig.__post_init__`).
    """
    table = dict(_require_table({} if raw is None else raw, name))
    values = {}
    for key in cls._fields:
        if key in table:
            annotation = cls.__annotations__[key]
            values[key] = _convert(getattr(annotation, "__forward_arg__", annotation),
                                   table.pop(key), f"{name}.{key}")
        elif defaults and key in defaults:
            values[key] = defaults[key]
        elif key not in cls._field_defaults:
            raise ConfigError(f"missing required key '{name}.{key}'")
    if table:
        raise ConfigError(f"unknown key(s) in '{name}': {', '.join(sorted(table))}")
    return cls(**values)


def _surfaces(raw) -> dict:
    """SURFACES with the polarities of the `unsafe_polarity_override` table `raw` applied."""
    table = _require_table({} if raw is None else raw, "unsafe_polarity_override")
    surfaces = dict(SURFACES)
    for label, value in table.items():
        if label not in SURFACES:
            raise ConfigError(f"unsafe_polarity_override: unknown surface {label!r}")
        if value not in (-1, 1) or isinstance(value, bool):
            raise ConfigError(f"unsafe_polarity_override[{label!r}] must be -1 or 1, got {value!r}")
        surfaces[label] = SURFACES[label]._replace(polarity=int(value))
    return surfaces


def load_config(path) -> AppConfig:
    """Parse and validate a configuration file; every problem raises ConfigError."""
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        document = json.loads(text)
    except ValueError as exc:  # also an integer literal past Python's digit limit
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc

    root = _require_table(document, "<root>")
    unknown = sorted(root.keys() - {"converter", "sim", "sweep", "tolerances",
                                    "unsafe_t3_skew", "unsafe_polarity_override"})
    if unknown:
        raise ConfigError(f"unknown key(s) in '<root>': {', '.join(unknown)}")
    if root.get("converter") is None:
        raise ConfigError("missing required key '<root>.converter'")
    try:
        converter = _section(DabParams, root["converter"], "converter")
    except ParameterError as exc:
        raise ConfigError(f"converter: {exc}") from exc
    sim = _section(SimConfig, root.get("sim"), "sim")
    if sim.injection.f is not None:
        if sim.injection.f >= converter.fs:
            raise ConfigError(f"sim.injection.f {sim.injection.f!r} is at or above the surface "
                              f"Nyquist frequency fs = {converter.fs!r}")
        require_coherent(sim.injection, converter.period)
    sweep = _section(SweepSpec, root.get("sweep"), "sweep",
                     defaults={"f_min": converter.fs / 1000.0, "f_max": converter.fs / 10.0})
    # sweep_frequencies' own bound: 0.5 / t_half can sit one ulp below fs.
    if sweep.f_max > (0.5 / converter.t_half) * (1.0 + 1e-12):
        raise ConfigError(
            f"sweep.f_max {sweep.f_max!r} exceeds the Nyquist frequency fs = {converter.fs!r}")
    return AppConfig(
        converter, sim, sweep, _section(Tolerances, root.get("tolerances"), "tolerances"),
        t3_skew=_convert("float", root.get("unsafe_t3_skew", 0.0), "unsafe_t3_skew"),
        surfaces=_surfaces(root.get("unsafe_polarity_override")))
