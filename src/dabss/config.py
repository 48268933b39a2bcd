"""Configuration document: JSON, SI base units, strict key checking.

Unknown keys are rejected at every level so a typo like "Dphase" fails
loudly instead of silently running on a default. Numeric fields reject
booleans (a JSON `true` is not a number here). The two `unsafe_*` keys
exist only to drive the negative verification paths and default to inert.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .dab import DabParams
from .errors import ConfigError, ParameterError
from .oracle import Injection, SimConfig, require_coherent
from .smallsignal import SURFACES


@dataclass(frozen=True)
class SweepSpec:
    f_min: float
    f_max: float
    points: int
    spacing: str

    def __post_init__(self):
        if not (math.isfinite(self.f_min) and math.isfinite(self.f_max)
                and 0.0 < self.f_min < self.f_max):
            raise ConfigError(f"sweep needs 0 < f_min < f_max, got {self.f_min!r}, {self.f_max!r}")
        if not (isinstance(self.points, int) and self.points >= 2):
            raise ConfigError(f"sweep points must be an integer >= 2, got {self.points!r}")
        if self.spacing not in ("log", "linear"):
            raise ConfigError(f"sweep spacing must be 'log' or 'linear', got {self.spacing!r}")


@dataclass(frozen=True)
class Tolerances:
    """Identity-suite tolerances; every field is overridable from the config."""

    half_wave_symmetry: float = 1e-12
    half_cycle: float = 1e-10
    resolvent_identity: float = 1e-12
    similarity: float = 1e-12
    surface_equivalence: float = 1e-10
    transfer_difference: float = 1e-12

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if not (isinstance(value, float) and math.isfinite(value) and value > 0.0):
                raise ConfigError(f"tolerance {name} must be a finite float > 0, got {value!r}")


@dataclass(frozen=True)
class AppConfig:
    converter: DabParams
    sim: SimConfig
    sweep: SweepSpec
    tolerances: Tolerances
    t3_skew: float = 0.0
    polarity_override: dict = field(default_factory=dict)


def _require_table(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"section '{name}' must be an object, got {type(value).__name__}")
    return value


def _take(table: dict, section: str, key: str, required: bool = False, default=None):
    if key in table:
        return table.pop(key)
    if required:
        raise ConfigError(f"missing required key '{section}.{key}'")
    return default


def _reject_leftovers(table: dict, section: str):
    if table:
        unknown = ", ".join(sorted(table))
        raise ConfigError(f"unknown key(s) in '{section}': {unknown}")


def _as_number(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"'{name}' must be a number, got {value!r}")
    return float(value)


def _as_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"'{name}' must be an integer, got {value!r}")
    return value


_CONVERTER_FIELDS = ("n_turns", "L", "Co", "Rt", "Rc", "Ro", "Vin", "fs", "D_phase", "Vr")


def _parse_converter(raw) -> DabParams:
    table = dict(_require_table(raw, "converter"))
    values = {name: _as_number(_take(table, "converter", name, required=True),
                               f"converter.{name}") for name in _CONVERTER_FIELDS}
    _reject_leftovers(table, "converter")
    try:
        return DabParams(**values)
    except ParameterError as exc:
        raise ConfigError(f"converter: {exc}") from exc


def _parse_injection(raw) -> Injection:
    table = dict(_require_table(raw, "sim.injection"))
    f = _take(table, "sim.injection", "f")
    amplitude = _take(table, "sim.injection", "amplitude")
    settle = _take(table, "sim.injection", "settle_periods", default=Injection.settle_periods)
    measure = _take(table, "sim.injection", "measure_periods", default=Injection.measure_periods)
    _reject_leftovers(table, "sim.injection")
    return Injection(
        f=None if f is None else _as_number(f, "sim.injection.f"),
        amplitude=None if amplitude is None else _as_number(amplitude, "sim.injection.amplitude"),
        settle_periods=_as_int(settle, "sim.injection.settle_periods"),
        measure_periods=_as_int(measure, "sim.injection.measure_periods"))


def _parse_sim(raw) -> SimConfig:
    table = dict(_require_table({} if raw is None else raw, "sim"))
    periods = _take(table, "sim", "periods", default=SimConfig.periods)
    substeps = _take(table, "sim", "substeps_per_interval", default=SimConfig.substeps_per_interval)
    tol = _take(table, "sim", "convergence_tol", default=SimConfig.convergence_tol)
    injection_raw = _take(table, "sim", "injection")
    _reject_leftovers(table, "sim")
    return SimConfig(
        periods=_as_int(periods, "sim.periods"),
        substeps_per_interval=_as_int(substeps, "sim.substeps_per_interval"),
        convergence_tol=_as_number(tol, "sim.convergence_tol"),
        injection=None if injection_raw is None else _parse_injection(injection_raw))


def _parse_sweep(raw, params: DabParams) -> SweepSpec:
    table = dict(_require_table({} if raw is None else raw, "sweep"))
    f_min = _take(table, "sweep", "f_min", default=params.fs / 1000.0)
    f_max = _take(table, "sweep", "f_max", default=params.fs / 10.0)
    points = _take(table, "sweep", "points", default=25)
    spacing = _take(table, "sweep", "spacing", default="log")
    _reject_leftovers(table, "sweep")
    if not isinstance(spacing, str):
        raise ConfigError(f"'sweep.spacing' must be a string, got {spacing!r}")
    f_max = _as_number(f_max, "sweep.f_max")
    if f_max > params.fs * (1.0 + 1e-12):
        raise ConfigError(f"sweep.f_max {f_max!r} exceeds the Nyquist frequency fs = {params.fs!r}")
    return SweepSpec(f_min=_as_number(f_min, "sweep.f_min"), f_max=f_max,
                     points=_as_int(points, "sweep.points"), spacing=spacing)


def _parse_tolerances(raw) -> Tolerances:
    table = dict(_require_table({} if raw is None else raw, "tolerances"))
    values = {}
    for name in Tolerances.__dataclass_fields__:
        if name in table:
            values[name] = _as_number(table.pop(name), f"tolerances.{name}")
    _reject_leftovers(table, "tolerances")
    return Tolerances(**values)


def _parse_polarity_override(raw) -> dict:
    table = _require_table({} if raw is None else raw, "unsafe_polarity_override")
    override = {}
    for label, value in table.items():
        if label not in SURFACES:
            raise ConfigError(f"unsafe_polarity_override: unknown surface {label!r}")
        if value not in (-1, 1) or isinstance(value, bool):
            raise ConfigError(f"unsafe_polarity_override[{label!r}] must be -1 or 1, got {value!r}")
        override[label] = int(value)
    return override


def load_config(path) -> AppConfig:
    """Parse and validate a configuration file; every problem raises ConfigError."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc

    table = dict(_require_table(document, "<root>"))
    converter_raw = _take(table, "<root>", "converter", required=True)
    sim_raw = _take(table, "<root>", "sim")
    sweep_raw = _take(table, "<root>", "sweep")
    tolerances_raw = _take(table, "<root>", "tolerances")
    t3_skew_raw = _take(table, "<root>", "unsafe_t3_skew", default=0.0)
    polarity_raw = _take(table, "<root>", "unsafe_polarity_override")
    _reject_leftovers(table, "<root>")

    converter = _parse_converter(converter_raw)
    sim = _parse_sim(sim_raw)
    if sim.injection is not None and sim.injection.f is not None:
        if sim.injection.f >= converter.fs:
            raise ConfigError(f"sim.injection.f {sim.injection.f!r} is at or above the surface "
                              f"Nyquist frequency fs = {converter.fs!r}")
        require_coherent(sim.injection, converter.period)
    return AppConfig(
        converter=converter,
        sim=sim,
        sweep=_parse_sweep(sweep_raw, converter),
        tolerances=_parse_tolerances(tolerances_raw),
        t3_skew=_as_number(t3_skew_raw, "unsafe_t3_skew"),
        polarity_override=_parse_polarity_override(polarity_raw))
