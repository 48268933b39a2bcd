"""Unit tests for JSON config parsing and validation."""

from __future__ import annotations

import dataclasses
import inspect
import json
import math
import re
from pathlib import Path

import pytest

from dabss import dab, smallsignal
from dabss.config import Injection, SimConfig, SweepSpec, Tolerances, load_config
from dabss.dab import P_MINUS, P_PLUS, S_PLUS, SURFACES, DabParams, Surface
from dabss.errors import ConfigError, ParameterError
from tests.conftest import REFERENCE_KWARGS

README = Path(__file__).resolve().parents[1] / "README.md"


def write(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestDefaults:
    def test_minimal_config_fills_every_default(self, tmp_path):
        cfg = load_config(write(tmp_path, {"converter": dict(REFERENCE_KWARGS)}))
        assert cfg.converter.fs == 100e3
        assert cfg.sim.periods == 4000
        assert cfg.sim.substeps_per_interval == 32
        assert cfg.sim.convergence_tol == 1e-9
        assert cfg.sim.injection == Injection()
        # sweep defaults derive from the switching frequency
        assert cfg.sweep.f_min == pytest.approx(100.0)
        assert cfg.sweep.f_max == pytest.approx(10e3)
        assert (cfg.sweep.points, cfg.sweep.spacing) == (25, "log")
        assert cfg.tolerances.half_wave_symmetry == 1e-12
        assert cfg.tolerances.surface_equivalence == 1e-10
        assert cfg.t3_skew == 0.0
        assert cfg.surfaces == SURFACES

    def test_readme_config_block_is_the_defaults(self, tmp_path):
        block = re.search(r"### Config file\s+```json\n(.*?)```", README.read_text(), re.S)
        readme = tmp_path / "readme.json"
        readme.write_text(block.group(1))
        converter = json.loads(block.group(1))["converter"]
        minimal = load_config(write(tmp_path, {"converter": converter}))
        # README spells out the injection table, whose absence means Injection().
        expected = minimal._replace(
            sim=dataclasses.replace(minimal.sim, injection=Injection()))
        assert load_config(readme) == expected

    @pytest.mark.parametrize("doc", [
        {"sim": None}, {"sweep": None}, {"tolerances": None},
        {"sim": {"injection": None}}, {"unsafe_polarity_override": None},
    ], ids=["sim", "sweep", "tolerances", "sim.injection", "unsafe_polarity_override"])
    def test_null_section_reads_as_absent(self, tmp_path, doc):
        converter = {"converter": dict(REFERENCE_KWARGS)}
        minimal = load_config(write(tmp_path, converter, "minimal.json"))
        assert load_config(write(tmp_path, {**converter, **doc})) == minimal

    @pytest.mark.parametrize("function, parameter, field", [
        (dab.verify_symmetry, "rtol", "half_wave_symmetry"),
        (smallsignal.verify_surface_equivalence, "rtol", "surface_equivalence"),
        (smallsignal.verify_surface_equivalence, "similarity_rtol", "similarity"),
        (smallsignal.transfer_difference, "rtol", "transfer_difference")],
        ids=["half_wave_symmetry", "surface_equivalence", "similarity", "transfer_difference"])
    def test_tolerance_defaults_are_those_of_the_checks(self, function, parameter, field):
        # A keyword default of a check and the Tolerances field that sets it cannot drift.
        default = inspect.signature(function).parameters[parameter].default
        assert default == getattr(Tolerances(), field)

    def test_false_section_is_not_absent(self, tmp_path):
        with pytest.raises(ConfigError, match="sweep"):
            load_config(write(tmp_path, {"converter": dict(REFERENCE_KWARGS), "sweep": False}))

    def test_sections_override_field_by_field(self, tmp_path):
        doc = {
            "converter": dict(REFERENCE_KWARGS),
            "sim": {"periods": 500, "injection": {"f": 2000.0, "amplitude": 1e-4}},
            "sweep": {"points": 7},
            "tolerances": {"half_cycle": 1e-8},
        }
        cfg = load_config(write(tmp_path, doc))
        assert cfg.sim.periods == 500
        assert cfg.sim.injection.f == 2000.0
        assert cfg.sim.injection.settle_periods == 800
        assert cfg.sweep.points == 7
        assert cfg.sweep.f_min == pytest.approx(100.0)
        assert cfg.tolerances.half_cycle == 1e-8
        assert cfg.tolerances.similarity == 1e-12


class TestUnsafeKeys:
    def test_t3_skew_parsed(self, tmp_path):
        doc = {"converter": dict(REFERENCE_KWARGS), "unsafe_t3_skew": 5e-8}
        assert load_config(write(tmp_path, doc)).t3_skew == 5e-8

    def test_polarity_override_parsed(self, tmp_path):
        doc = {"converter": dict(REFERENCE_KWARGS),
               "unsafe_polarity_override": {"S+": -1, "P-": 1}}
        cfg = load_config(write(tmp_path, doc))
        assert cfg.surfaces == {**SURFACES, "S+": S_PLUS._replace(polarity=-1),
                                "P-": P_MINUS._replace(polarity=1)}

    def test_unknown_surface_label_rejected(self, tmp_path):
        doc = {"converter": dict(REFERENCE_KWARGS),
               "unsafe_polarity_override": {"Q+": -1}}
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, doc))

    def test_non_sign_polarity_rejected(self, tmp_path):
        doc = {"converter": dict(REFERENCE_KWARGS),
               "unsafe_polarity_override": {"S+": 2}}
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, doc))


class TestRejection:
    def test_missing_converter_section(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, {"sim": {}}))

    def test_missing_converter_field(self, tmp_path):
        conv = dict(REFERENCE_KWARGS)
        del conv["Vr"]
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, {"converter": conv}))

    @pytest.mark.parametrize("section,key", [
        ("<root>", "extra"), ("converter", "esr"), ("sim", "budget"),
        ("sweep", "n"), ("tolerances", "slack"),
    ])
    def test_unknown_keys_rejected_everywhere(self, tmp_path, section, key):
        doc = {"converter": dict(REFERENCE_KWARGS)}
        if section == "<root>":
            doc[key] = 1
        elif section == "converter":
            doc["converter"][key] = 1
        else:
            doc[section] = {key: 1}
        with pytest.raises(ConfigError) as err:
            load_config(write(tmp_path, doc))
        assert key in str(err.value)

    def test_non_numeric_field_rejected(self, tmp_path):
        conv = dict(REFERENCE_KWARGS)
        conv["L"] = "10u"
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, {"converter": conv}))

    def test_non_integer_periods_rejected(self, tmp_path):
        doc = {"converter": dict(REFERENCE_KWARGS), "sim": {"periods": 2.5}}
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, doc))

    def test_boolean_is_not_a_number(self, tmp_path):
        conv = dict(REFERENCE_KWARGS)
        conv["Ro"] = True
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, {"converter": conv}))

    def test_scalar_document_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("42")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_out_of_range_physical_value_is_a_config_error(self, tmp_path):
        # ParameterError from DabParams must surface as ConfigError through
        # the loader so the CLI maps it to exit code 2.
        conv = dict(REFERENCE_KWARGS)
        conv["D_phase"] = 1.5
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, {"converter": conv}))


# A valid instance of each validated record class, one field set to a bad value, and the error
# its check raises with the exact message.
VALID = {DabParams: DabParams(**REFERENCE_KWARGS), Surface: P_PLUS, Injection: Injection(f=1e3),
         SweepSpec: SweepSpec(1.0, 10.0), Tolerances: Tolerances()}
INVALID = [
    (DabParams, "Vr", -1.0, ParameterError, "Vr must be finite and > 0, got -1.0"),
    (DabParams, "Rt", -0.01, ParameterError, "Rt must be finite and >= 0, got -0.01"),
    (DabParams, "Vin", 0.0, ParameterError, "Vin must be finite and nonzero, got 0.0"),
    (DabParams, "D_phase", 1.0, ParameterError, "D_phase must lie in (0, 1), got 1.0"),
    (Surface, "b", 3, ValueError, "surface intervals must be consecutive, got (1, 3)"),
    (Surface, "polarity", 0, ValueError, "surface polarity must be +-1, got 0"),
    (Surface, "label", "", ValueError, "surface label must be non-empty"),
    (Injection, "f", -1.0, ConfigError, "injection frequency must be finite and > 0, got -1.0"),
    (Injection, "amplitude", math.nan, ConfigError,
     "injection amplitude must be finite and >= 0, got nan"),
    (Injection, "settle_periods", -1, ConfigError,
     "settle_periods must be an integer in [0, 10**6], got -1"),
    (Injection, "measure_periods", 0, ConfigError,
     "measure_periods must be an integer in [1, 10**6], got 0"),
    (SweepSpec, "f_min", 20.0, ConfigError, "sweep needs 0 < f_min < f_max, got 20.0, 10.0"),
    (SweepSpec, "points", 1, ConfigError, "sweep.points must be an integer in [2, 10**6], got 1"),
    (SweepSpec, "spacing", "cubic", ConfigError,
     "sweep spacing must be 'log' or 'linear', got 'cubic'"),
    (Tolerances, "half_cycle", 0.0, ConfigError,
     "tolerance half_cycle must be a finite float > 0, got 0.0"),
    (Tolerances, "similarity", 1, ConfigError,
     "tolerance similarity must be a finite float > 0, got 1"),
]


@pytest.mark.parametrize("cls,key,value,error,message", INVALID,
                         ids=[f"{cls.__name__}.{key}" for cls, key, *_ in INVALID])
@pytest.mark.parametrize("path", ["positional", "keyword", "_replace"])
def test_every_construction_path_validates(cls, key, value, error, message, path):
    valid = VALID[cls]
    values = {**valid._asdict(), key: value}
    build = {"positional": lambda: cls(*values.values()), "keyword": lambda: cls(**values),
             "_replace": lambda: valid._replace(**{key: value})}[path]
    with pytest.raises(error) as err:
        build()
    assert str(err.value) == message
    assert type(valid._replace(**{key: getattr(valid, key)})) is cls  # a valid copy still builds


def _with_value(section: str, key: str, value) -> dict:
    """The reference config with `section.key` set to `value`."""
    doc = {"converter": dict(REFERENCE_KWARGS)}
    if section == "converter":
        doc["converter"][key] = value
    elif section == "sim.injection":
        doc["sim"] = {"injection": {key: value}}
    else:
        doc[section] = {key: value}
    return doc


SECTIONS = (("converter", DabParams), ("sim", SimConfig), ("sim.injection", Injection),
            ("sweep", SweepSpec), ("tolerances", Tolerances))
WRONG_TYPES = {"bool": True, "string": "1.0", "list": [1.0], "object": {"value": 1.0}}


@pytest.mark.parametrize("section,key,value", [
    pytest.param(section, key, value, id=f"{section}.{key}-{kind}")
    for section, cls in SECTIONS for key in cls._fields
    for kind, value in WRONG_TYPES.items()
    # A string is the right type for the spacing, an object for the injection table.
    if (f"{section}.{key}", kind) not in {("sweep.spacing", "string"),
                                             ("sim.injection", "object")}
])
def test_every_field_rejects_a_wrong_type(tmp_path, section, key, value):
    with pytest.raises(ConfigError, match=re.escape(f"{section}.{key}")):
        load_config(write(tmp_path, _with_value(section, key, value)))


class TestSizeCaps:
    @pytest.mark.parametrize("section,key", [
        ("sweep", "points"), ("sim.injection", "settle_periods"),
        ("sim.injection", "measure_periods")])
    def test_sizes_above_a_million_rejected(self, tmp_path, section, key):
        cfg = load_config(write(tmp_path, _with_value(section, key, 10**6)))
        table = cfg.sweep if section == "sweep" else cfg.sim.injection
        assert getattr(table, key) == 10**6
        with pytest.raises(ConfigError, match=key):
            load_config(write(tmp_path, _with_value(section, key, 10**6 + 1)))


    def test_substeps_above_ten_thousand_rejected(self, tmp_path):
        cfg = load_config(write(tmp_path, _with_value("sim", "substeps_per_interval", 10**4)))
        assert cfg.sim.substeps_per_interval == 10**4
        with pytest.raises(ConfigError, match="sim.substeps_per_interval"):
            load_config(write(tmp_path, _with_value("sim", "substeps_per_interval", 10**4 + 1)))


class TestUnreadableValues:
    @pytest.mark.parametrize("section,key", [("converter", "L"), ("sim", "convergence_tol"),
                                             ("tolerances", "half_cycle")])
    def test_integer_too_large_for_a_double_rejected(self, tmp_path, section, key):
        with pytest.raises(ConfigError, match=f"{section}.{key}"):
            load_config(write(tmp_path, _with_value(section, key, 10**400)))

    def test_t3_skew_too_large_for_a_double_rejected(self, tmp_path):
        doc = {"converter": dict(REFERENCE_KWARGS), "unsafe_t3_skew": 10**400}
        with pytest.raises(ConfigError, match="unsafe_t3_skew"):
            load_config(write(tmp_path, doc))

    def test_integer_literal_past_the_digit_limit_rejected(self, tmp_path):
        # Python refuses to parse an integer literal of more than 4300 digits.
        path = tmp_path / "cfg.json"
        path.write_text('{"converter": 1' + "0" * 5000 + "}")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(path)


class TestSweepBand:
    def test_f_max_above_the_surface_nyquist_frequency_rejected(self, tmp_path):
        doc = {"converter": dict(REFERENCE_KWARGS), "sweep": {"f_max": 500000.0}}
        with pytest.raises(ConfigError, match="sweep.f_max"):
            load_config(write(tmp_path, doc))

    def test_f_max_at_the_surface_nyquist_frequency_accepted(self, tmp_path):
        doc = {"converter": dict(REFERENCE_KWARGS), "sweep": {"f_max": REFERENCE_KWARGS["fs"]}}
        assert load_config(write(tmp_path, doc)).sweep.f_max == REFERENCE_KWARGS["fs"]
