"""The public names, the README's examples and the public constructors'
input checks."""

import copy
import importlib
import math
import re
from pathlib import Path

import pytest

import sdcontrol as sd

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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call", [
    lambda sys_, v: sd.SimConfig(dt=v),
    lambda sys_, v: sd.SimConfig(t_end=v),
    lambda sys_, v: sd.TransitionSignal(v),
    lambda sys_, v: sd.design_predictor(sys_, 2, v, [-3.0, -3.0], 0.2),
    lambda sys_, v: sd.zero_gain_design(sys_, 2, v, 0.2),
    lambda sys_, v: sd.build_heat_system(v, 2.5, 1.0),
    lambda sys_, v: sd.build_heat_system(5.0, v, 1.0),
    lambda sys_, v: sd.build_heat_system(5.0, 2.5, v),
], ids=["SimConfig.dt", "SimConfig.t_end", "TransitionSignal.t0",
        "design_predictor.delay", "zero_gain_design.delay",
        "build_heat_system.a", "build_heat_system.c", "build_heat_system.L"])
def test_constructors_reject_non_finite(heat_sys, call, bad):
    with pytest.raises(sd.InvalidParameterError, match="finite"):
        call(heat_sys, bad)


def test_array_dataclasses_compare_by_identity(heat_sys, design, fields,
                                               open_loop_traj):
    # field-wise == on their arrays used to raise "the truth value of an
    # array is ambiguous"
    for obj in (heat_sys, design, fields, open_loop_traj):
        twin = copy.copy(obj)
        assert obj == obj and obj != twin, type(obj).__name__
        assert len({obj, twin}) == 2
