"""The public names, the README's examples and the input rule of the
public constructors and entry points."""

import copy
import dataclasses
import importlib
import math
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import sdcontrol as sd

from conftest import COUPLINGS

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
MODULES = ("config", "certificates", "errors", "predictor", "simulate",
           "spectral")


def readme_section(title):
    """Text under the markdown heading `title`, up to the next heading of
    the same or a higher level."""
    level, _, _ = title.partition(" ")
    start = README.index(title + "\n") + len(title) + 1
    end = re.compile(rf"^#{{1,{len(level)}}} ", re.M).search(README, start)
    return README[start:end.start() if end else len(README)]


def readme_api():
    """{module: names} from the bullets of README's Public API list."""
    api = {}
    for item in re.split(r"^\* ", readme_section("### Public API"),
                         flags=re.M)[1:]:
        module, _, names = item.partition(":")
        api[module.strip("` ")] = re.findall(r"`(\w+)`", names)
    return api


def test_all_is_the_union_of_the_modules():
    union = [name for m in MODULES
             for name in importlib.import_module(f"sdcontrol.{m}").__all__]
    assert len(set(union)) == len(union)  # no name exported twice
    assert sorted(sd.__all__) == sorted(union)


def test_every_listed_name_resolves():
    for m in MODULES:
        module = importlib.import_module(f"sdcontrol.{m}")
        for name in module.__all__:
            assert getattr(sd, name) is getattr(module, name), name


def test_readme_lists_exactly_the_public_names():
    api = readme_api()
    assert sorted(api) == sorted(f"sdcontrol.{m}" for m in MODULES)
    for m in MODULES:
        module = importlib.import_module(f"sdcontrol.{m}")
        assert sorted(api[f"sdcontrol.{m}"]) == sorted(module.__all__), m


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", readme_section("## Library"),
                        re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md (Library)", "exec"), {})


def test_readme_config_block_is_the_case_study():
    # the annotated file README presents as the case-study config, inline
    # comments included
    blocks = re.findall(r"```ini\n(.*?)```",
                        readme_section("## Configuration file"), re.S)
    assert len(blocks) == 1
    assert sd.loads_config(blocks[0]) == sd.case_study_run_config()


def spoiled(array, bad):
    """A writable copy of array with its first entry replaced by bad."""
    out = np.array(array)
    out.flat[0] = bad
    return out


def coupling_fields(**changes):
    """Three-mode interconnection data with the given fields replaced."""
    prof = np.ones(3)
    return sd.CouplingFields(**{
        **COUPLINGS, "domain_length": 1.0, "eta1": prof, "eta2": prof,
        "theta1": prof, "theta2": prof, "theta3": prof, **changes})


def heat_with(sys_, name, bad):
    """The case-study plant with one entry of one input array spoiled."""
    return dataclasses.replace(sys_, **{name: spoiled(getattr(sys_, name),
                                                      bad)})


def short_run(fx, x0):
    """A 0.1 s case-study run from the scalar state x0."""
    return sd.simulate(sd.SimConfig(dt=1e-3, t_end=0.1, n_modes=10), fx.sys,
                       fx.design, fx.fields, x0, np.zeros(10))


# (id, call(fixtures, bad value), expected error) for every argument the
# input rule checks for finiteness
NON_FINITE = [
    ("SimConfig.dt", lambda f, v: sd.SimConfig(dt=v)),
    ("SimConfig.t_end", lambda f, v: sd.SimConfig(t_end=v)),
    ("TransitionSignal.t0", lambda f, v: sd.TransitionSignal(v)),
    ("design_predictor.delay",
     lambda f, v: sd.design_predictor(f.sys, 2, v, [-3.0, -3.0], 0.2)),
    ("zero_gain_design.delay",
     lambda f, v: sd.zero_gain_design(f.sys, 2, v, 0.2)),
    ("build_heat_system.a", lambda f, v: sd.build_heat_system(v, 2.5, 1.0)),
    ("build_heat_system.c", lambda f, v: sd.build_heat_system(5.0, v, 1.0)),
    ("build_heat_system.L", lambda f, v: sd.build_heat_system(5.0, 2.5, v)),
] + [
    (f"SpectralSystem.{name}",
     lambda f, v, name=name: heat_with(f.sys, name, v))
    for name in ("eigenvalues", "input_coeffs", "lifting_coeffs",
                 "lifting_norm_B", "lifting_norm_AB", "lifting_gram")
] + [
    ("SpectralSystem.domain_length",
     lambda f, v: dataclasses.replace(f.sys, domain_length=v)),
    ("SpectralSystem.riesz_upper",
     lambda f, v: dataclasses.replace(f.sys, riesz_upper=v)),
    ("TruncationSpec.alpha", lambda f, v: sd.TruncationSpec(1, v)),
    ("PredictorDesign.eigenvalues", lambda f, v: sd.PredictorDesign(
        spoiled(f.sys.eigenvalues[:2], v), f.sys.input_coeffs[:2], 0.1,
        np.zeros((2, 2)), sd.TransitionSignal(0.2))),
    ("PredictorDesign.b_n0", lambda f, v: sd.PredictorDesign(
        f.sys.eigenvalues[:2], spoiled(f.sys.input_coeffs[:2], v), 0.1,
        np.zeros((2, 2)), sd.TransitionSignal(0.2))),
    ("CouplingFields.b2", lambda f, v: coupling_fields(b2=v)),
    ("CouplingFields.theta2",
     lambda f, v: coupling_fields(theta2=spoiled(np.ones(3), v))),
    ("coupling_constants.c2",
     lambda f, v: sd.coupling_constants(**{**COUPLINGS, "c2": v}, L=1.0)),
    ("place_poles.lam", lambda f, v: sd.place_poles(
        spoiled([1.0, -1.0], v), np.ones((2, 1)), [-3.0, -4.0])),
    ("place_poles.b", lambda f, v: sd.place_poles(
        [1.0, -1.0], spoiled(np.ones((2, 1)), v), [-3.0, -4.0])),
    ("solve_lyapunov", lambda f, v: sd.solve_lyapunov(spoiled(-np.eye(2), v))),
    ("pbh_controllable", lambda f, v: sd.pbh_controllable([1.0], [[v]])),
    ("pbh_controllable.eigenvalues",
     lambda f, v: sd.pbh_controllable([v], [[1.0]])),
    ("project_profile.values", lambda f, v: sd.project_profile(
        f.sys, lambda xi: np.where(xi > 1.0, v, 0.0), 3)),
    ("simulate.disturbance", lambda f, v: sd.simulate(
        sd.SimConfig(dt=1e-3, t_end=0.1, n_modes=10,
                     disturbance=lambda t: v if t > 0.05 else 0.0),
        f.sys, f.design, f.fields, 0.0, np.zeros(10))),
    ("simulate.x0", lambda f, v: short_run(f, v)),
    ("iss_envelope_check.d_sup",
     lambda f, v: sd.iss_envelope_check(f.traj, f.bundle, v)),
    ("compute_constants.gamma1", lambda f, v: sd.compute_constants(
        f.sys, f.design, 0.5, v, 1e3), sd.CertificateParameterError),
    ("compute_constants.gamma2", lambda f, v: sd.compute_constants(
        f.sys, f.design, 0.5, 1e3, v), sd.CertificateParameterError),
]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call, error", [
    pytest.param(row[1], row[2] if len(row) > 2 else sd.InvalidParameterError,
                 id=row[0]) for row in NON_FINITE])
def test_constructors_reject_non_finite(heat_sys, design, fields, bundle,
                                        disturbed_traj, call, error, bad):
    fx = SimpleNamespace(sys=heat_sys, design=design, fields=fields,
                         bundle=bundle, traj=disturbed_traj)
    with pytest.raises(error, match="finite"):
        call(fx, bad)


@pytest.mark.parametrize("call", [
    pytest.param(lambda f: short_run(f, "a"), id="simulate.x0-str"),
    pytest.param(lambda f: short_run(f, None), id="simulate.x0-None"),
    pytest.param(lambda f: short_run(f, [1.0, 2.0]), id="simulate.x0-list"),
    pytest.param(lambda f: sd.SimConfig(disturbance=3),
                 id="SimConfig.disturbance-3"),
    pytest.param(lambda f: sd.SimConfig(disturbance=None),
                 id="SimConfig.disturbance-None"),
    pytest.param(lambda f: sd.invert_artstein(
        f.design, np.arange(11) * 1e-3, np.zeros((11, 2)), phi=3),
                 id="invert_artstein.phi-3"),
])
def test_inputs_of_the_wrong_kind(heat_sys, design, fields, call):
    # numpy's and Python's own TypeError and ValueError must not escape,
    # and no input falls through to a default
    fx = SimpleNamespace(sys=heat_sys, design=design, fields=fields)
    with pytest.raises(sd.InvalidParameterError,
                       match="x0|disturbance|phi"):
        call(fx)


@pytest.mark.parametrize("call", [
    pytest.param(lambda s: sd.design_predictor(s, 1.5, 0.1, [-3.0], 0.2),
                 id="design_predictor.n0-1.5"),
    pytest.param(lambda s: sd.design_predictor(s, 2.0, 0.1, [-3.0, -3.0],
                                               0.2),
                 id="design_predictor.n0-2.0"),
    pytest.param(lambda s: sd.zero_gain_design(s, 2.0, 0.1, 0.2),
                 id="zero_gain_design.n0-2.0"),
    pytest.param(lambda s: sd.check_truncation(s, 2.0),
                 id="check_truncation.n0-2.0"),
    pytest.param(lambda s: sd.check_kalman(s, 2.0), id="check_kalman.n0-2.0"),
    pytest.param(lambda s: sd.TruncationSpec(1.5, 1.0),
                 id="TruncationSpec.n0-1.5"),
    pytest.param(lambda s: sd.SimConfig(n_modes=2.5), id="SimConfig.n_modes-2.5"),
    pytest.param(lambda s: sd.SimConfig(record_stride=1.5),
                 id="SimConfig.record_stride-1.5"),
    pytest.param(lambda s: sd.project_profile(s, np.sin, 2.5),
                 id="project_profile.n_modes-2.5"),
    pytest.param(lambda s: sd.build_heat_system(5.0, 2.5, 1.0, 2.5),
                 id="build_heat_system.n_max-2.5"),
])
def test_counts_must_be_integers(heat_sys, call):
    with pytest.raises(sd.InvalidParameterError, match="must be an integer"):
        call(heat_sys)


def test_numpy_integer_counts_pass(heat_sys):
    two = np.int64(2)
    des = sd.design_predictor(heat_sys, two, 0.1, [-3.0, -3.0], 0.2)
    assert des.n0 == 2 and sd.check_truncation(heat_sys, two).n0 == 2
    assert sd.SimConfig(n_modes=np.int32(10), record_stride=two).n_modes == 10


def test_array_dataclasses_compare_by_identity(heat_sys, design, fields,
                                               open_loop_traj):
    # field-wise == on their arrays used to raise "the truth value of an
    # array is ambiguous"
    for obj in (heat_sys, design, fields, open_loop_traj):
        twin = copy.copy(obj)
        assert obj == obj and obj != twin, type(obj).__name__
        assert len({obj, twin}) == 2
