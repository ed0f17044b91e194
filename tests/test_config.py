"""Run-configuration parsing and validation."""

import configparser
import io
import re

import numpy as np
import pytest

import sdcontrol as sd
from sdcontrol.config import CASE_STUDY_INI
from sdcontrol.errors import ConfigError


def ini_with(**overrides):
    """Case-study INI text with per-section key edits.

    Pass section=None to drop a section, key=None inside a section dict to
    drop a key.
    """
    cp = configparser.ConfigParser()
    cp.read_string(CASE_STUDY_INI)
    for section, kv in overrides.items():
        if kv is None:
            cp.remove_section(section)
            continue
        if not cp.has_section(section):
            cp.add_section(section)
        for key, value in kv.items():
            if value is None:
                cp.remove_option(section, key)
            else:
                cp.set(section, key, str(value))
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


class TestCaseStudyDefaults:
    def test_full_parse(self):
        cfg = sd.loads_config(CASE_STUDY_INI)
        assert cfg.plant.a == 5.0
        assert cfg.plant.c == 2.5
        assert cfg.plant.L == pytest.approx(2 * np.pi, rel=1e-15)
        assert cfg.plant.n_max == 10
        assert cfg.truncation.n0 == 2
        assert cfg.control.delay == 0.1
        assert cfg.control.t0 == 0.2
        assert cfg.control.poles == (-3 + 0j, -3 + 0j)
        assert cfg.certificate.optimize is True
        assert cfg.certificate.beta is None
        assert cfg.coupling.a1 == 1.5
        assert cfg.coupling.b1 == 0.5
        assert cfg.coupling.c1 == 0.2
        assert cfg.coupling.a2 == 0.7
        assert cfg.coupling.b2 == 0.55
        assert cfg.coupling.c2 == 10.0
        assert cfg.coupling.d2 == 0.45
        assert cfg.coupling.disturbance == "case-study"
        assert cfg.simulation.dt == 1e-3
        assert cfg.simulation.t_end == 10.0
        assert cfg.simulation.n_modes == 10
        assert cfg.simulation.record_stride == 1
        assert cfg.simulation.output == "trajectory.csv"
        assert cfg.initial.x0 == -2.0
        assert cfg.initial.pde_profile == "cubic"
        assert cfg.initial.coeffs == ()

    def test_builtin_equals_parsed_text(self):
        assert sd.case_study_run_config() == sd.loads_config(CASE_STUDY_INI)

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(CASE_STUDY_INI)
        assert sd.load_config(path) == sd.loads_config(CASE_STUDY_INI)

    def test_undecodable_file(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_bytes(b"[plant]\na = \xff\n")  # not UTF-8
        with pytest.raises(ConfigError):
            sd.load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            sd.load_config(tmp_path / "absent.ini")

    def test_malformed_text(self):
        with pytest.raises(ConfigError, match="malformed"):
            sd.loads_config("key without a section = 3\n")


class TestPlantSection:
    def test_missing_section(self):
        with pytest.raises(ConfigError, match=r"\[plant\]"):
            sd.loads_config(ini_with(plant=None))

    def test_missing_key_names_section_and_key(self):
        with pytest.raises(ConfigError, match=r"'L' in section \[plant\]"):
            sd.loads_config(ini_with(plant={"L": None}))

    def test_non_numeric_value(self):
        with pytest.raises(ConfigError, match="not a valid number"):
            sd.loads_config(ini_with(plant={"a": "five"}))

    def test_sign_constraints(self):
        with pytest.raises(ConfigError, match="plant a"):
            sd.loads_config(ini_with(plant={"a": -1.0}))
        with pytest.raises(ConfigError, match="plant L"):
            sd.loads_config(ini_with(plant={"L": 0.0}))
        with pytest.raises(ConfigError, match="N_max"):
            sd.loads_config(ini_with(plant={"N_max": 0}))


class TestTruncationAndControl:
    def test_n0_bounds(self):
        with pytest.raises(ConfigError, match="N0"):
            sd.loads_config(ini_with(truncation={"N0": -1}))
        with pytest.raises(ConfigError, match="below N_max"):
            sd.loads_config(ini_with(truncation={"N0": 10}))

    def test_n0_zero_is_allowed(self):
        cfg = sd.loads_config(ini_with(truncation={"N0": 0}))
        assert cfg.truncation.n0 == 0

    def test_pole_count_must_match_n0(self):
        with pytest.raises(ConfigError, match="poles"):
            sd.loads_config(ini_with(control={"poles": "-3"}))

    def test_complex_pole_parsing(self):
        cfg = sd.loads_config(ini_with(control={"poles": "-2+1j, -2-1j"}))
        assert cfg.control.poles == (-2 + 1j, -2 - 1j)

    def test_bad_pole_string(self):
        with pytest.raises(ConfigError, match="complex"):
            sd.loads_config(ini_with(control={"poles": "-3, fast"}))

    def test_delay_and_ramp_must_be_positive(self):
        with pytest.raises(ConfigError, match="control D"):
            sd.loads_config(ini_with(control={"D": 0.0},
                                     simulation={"dt": 1e-4}))
        with pytest.raises(ConfigError, match="control t0"):
            sd.loads_config(ini_with(control={"t0": -0.1}))


class TestCertificateSection:
    def test_manual_weights_require_all_three(self):
        with pytest.raises(ConfigError, match="requires beta"):
            sd.loads_config(ini_with(certificate={"optimize": "false"}))

    def test_partial_overrides_rejected(self):
        with pytest.raises(ConfigError, match="all of beta"):
            sd.loads_config(ini_with(certificate={"beta": 0.4}))

    def test_full_overrides(self):
        cfg = sd.loads_config(ini_with(certificate={
            "optimize": "false", "beta": 0.4131,
            "gamma1": 106.3290, "gamma2": 337.1938}))
        assert cfg.certificate.optimize is False
        assert cfg.certificate.beta == 0.4131
        assert cfg.certificate.gamma1 == 106.3290
        assert cfg.certificate.gamma2 == 337.1938

    @pytest.mark.parametrize("key,value", [
        ("beta", -1.0), ("beta", 0.0), ("beta", 1.0), ("gamma1", 0.0),
        ("gamma2", -5.0)])
    def test_weight_out_of_range_rejected(self, key, value):
        rule = "lie in (0, 1)" if key == "beta" else "be positive"
        weights = {"beta": 0.4, "gamma1": 100.0, "gamma2": 400.0, key: value}
        with pytest.raises(ConfigError, match=re.escape(
                f"certificate {key} must {rule}, got {value!r}")):
            sd.loads_config(ini_with(certificate={"optimize": "false",
                                                  **weights}))

    def test_weights_with_optimize_true_rejected(self):
        # all three weights with optimize = true would skip the optimizer
        with pytest.raises(ConfigError, match="all of beta"):
            sd.loads_config(ini_with(certificate={
                "optimize": "true", "beta": 0.4131, "gamma1": 106.3290,
                "gamma2": 337.1938}))

    def test_boolean_spellings(self):
        weights = {"beta": 0.4, "gamma1": 100.0, "gamma2": 400.0}
        for raw, expected in (("yes", True), ("on", True), ("1", True),
                              ("No", False), ("off", False), ("0", False)):
            # weights are read only with optimize = false
            text = ini_with(certificate={
                "optimize": raw, **({} if expected else weights)})
            assert sd.loads_config(text).certificate.optimize is expected

    def test_bad_boolean(self):
        with pytest.raises(ConfigError, match="boolean"):
            sd.loads_config(ini_with(certificate={"optimize": "maybe"}))


class TestCouplingSection:
    def test_defaults_when_section_absent(self):
        cfg = sd.loads_config(ini_with(coupling=None))
        assert cfg.coupling.a1 == 1.5
        assert cfg.coupling.c2 == 10.0
        assert cfg.coupling.disturbance == "case-study"

    def test_a1_positive(self):
        with pytest.raises(ConfigError, match="a1"):
            sd.loads_config(ini_with(coupling={"a1": -2.0}))

    def test_disturbance_selector(self):
        cfg = sd.loads_config(ini_with(coupling={"disturbance": "none"}))
        assert cfg.coupling.disturbance == "none"
        with pytest.raises(ConfigError, match="disturbance"):
            sd.loads_config(ini_with(coupling={"disturbance": "sine"}))


class TestSimulationSection:
    def test_dt_must_undercut_delay(self):
        with pytest.raises(ConfigError, match="smaller than the"):
            sd.loads_config(ini_with(simulation={"dt": 0.1}))

    def test_t_end_zero_is_allowed(self):
        cfg = sd.loads_config(ini_with(simulation={"T_end": 0.0}))
        assert cfg.simulation.t_end == 0.0

    def test_t_end_negative_rejected(self):
        with pytest.raises(ConfigError, match="T_end"):
            sd.loads_config(ini_with(simulation={"T_end": -1.0}))

    def test_mode_counts(self):
        with pytest.raises(ConfigError, match="cover"):
            sd.loads_config(ini_with(simulation={"N_modes": 1}))
        with pytest.raises(ConfigError, match="exceeds"):
            sd.loads_config(ini_with(simulation={"N_modes": 11}))

    def test_record_stride(self):
        with pytest.raises(ConfigError, match="record_stride"):
            sd.loads_config(ini_with(simulation={"record_stride": 0}))


class TestInitialSection:
    def test_zero_default(self):
        cfg = sd.loads_config(ini_with(initial=None))
        assert cfg.initial.x0 == 0.0
        assert cfg.initial.pde_profile == "zero"

    def test_profile_selector(self):
        with pytest.raises(ConfigError, match="pde_profile"):
            sd.loads_config(ini_with(initial={"pde_profile": "gaussian"}))

    def test_coeff_list(self):
        cfg = sd.loads_config(ini_with(initial={
            "pde_profile": "coeffs", "coeffs": "1.0, -2.5, 0.25"}))
        assert cfg.initial.coeffs == (1.0, -2.5, 0.25)

    def test_coeff_profile_needs_list(self):
        with pytest.raises(ConfigError, match="coeffs"):
            sd.loads_config(ini_with(initial={"pde_profile": "coeffs"}))

    def test_coeff_list_longer_than_modes_rejected(self):
        coeffs = ", ".join(["1"] * 11)
        with pytest.raises(ConfigError, match="longer than N_modes = 10"):
            sd.loads_config(ini_with(initial={"pde_profile": "coeffs",
                                              "coeffs": coeffs}))
        # a full-length list is accepted
        cfg = sd.loads_config(ini_with(initial={
            "pde_profile": "coeffs", "coeffs": ", ".join(["1"] * 10)}))
        assert len(cfg.initial.coeffs) == 10


class TestReader:
    def test_dataclass_defaults_are_the_case_study(self):
        # the defaults are the one copy of these numbers outside the INI
        # text
        text = ini_with(certificate=None, coupling=None, simulation=None)
        assert sd.loads_config(text) == sd.case_study_run_config()

    @pytest.mark.parametrize("section, key, value", [
        ("control", "D", "nan"), ("control", "t0", "inf"),
        ("simulation", "T_end", "inf"), ("simulation", "dt", "-inf"),
        ("coupling", "a2", "nan"), ("plant", "c", "nan"),
        ("initial", "coeffs", "1.0, nan"), ("control", "poles", "-3, nanj"),
    ])
    def test_non_finite_rejected(self, section, key, value):
        text = ini_with(**{section: {key: value}})
        with pytest.raises(ConfigError, match=rf"'{key}' in section "
                                              rf"\[{section}\] is not a finite"):
            sd.loads_config(text)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match=r"unknown key 't_ned' in "
                                              r"section \[simulation\]"):
            sd.loads_config(ini_with(simulation={"T_ned": 0.5}))

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match=r"unknown section \[intial\]"):
            sd.loads_config(ini_with(intial={"x0": -2.0}))

    def test_default_section_rejected(self):
        # configparser would copy its keys into every section, and the
        # error would blame [plant]
        with pytest.raises(ConfigError, match=r"unknown section \[DEFAULT\]"):
            sd.loads_config("[DEFAULT]\nfoo = 1\n" + CASE_STUDY_INI)

    def test_values_are_literal(self):
        text = CASE_STUDY_INI.replace("trajectory.csv", "run%1.csv")
        cfg = sd.loads_config(text)
        assert cfg.simulation.output == "run%1.csv"

    def test_inline_comments(self, tmp_path):
        text = CASE_STUDY_INI.replace("D = 0.1", "D = 0.1   ; input delay")
        path = tmp_path / "run.ini"
        path.write_text(text)
        assert sd.load_config(path) == sd.loads_config(text) == \
            sd.case_study_run_config()
