"""Each check catches the error planted in an otherwise correct output.

    python3 -m pytest bench/test_checks.py

One real operation per workload is run once; the tests then plant one
error in a copy of its output and expect the matching check to fail.
"""

from __future__ import annotations

import dataclasses
import shutil
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import workloads  # noqa: E402

compute_constants = workloads.certificates.compute_constants


@pytest.fixture(scope="module")
def case_study(tmp_path_factory):
    wl = workloads.CaseStudy(1, tmp_path_factory.mktemp("case-study"))
    return wl.run(wl.round[0])


@pytest.fixture
def case_copy(case_study, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(case_study.out_dir, out)
    return dataclasses.replace(case_study, out_dir=out)


@pytest.fixture(scope="module")
def design(tmp_path_factory):
    wl = workloads.DesignSweep(1, tmp_path_factory.mktemp("design"))
    draw = next(d for d in wl.round if d.kind == "repeated")
    return wl.run(draw)


@pytest.fixture(scope="module")
def ensemble(tmp_path_factory):
    wl = workloads.Ensemble(1, tmp_path_factory.mktemp("ensemble"))
    return wl.run(wl.round[0])


def _replace_design(result, **changes):
    """A stand-in design with some fields changed (PredictorDesign itself
    rejects inconsistent fields)."""
    d = result.design
    fields = {f.name: getattr(d, f.name) for f in dataclasses.fields(d)}
    fields.update(changes)
    return dataclasses.replace(result, design=types.SimpleNamespace(**fields))


def test_unchanged_outputs_pass(case_study, design, ensemble):
    checks.check_case_study(case_study)
    checks.check_design(design, compute_constants)
    checks.check_ensemble(ensemble)


def test_case_study_scaled_gain_row(case_copy):
    path = case_copy.out_dir / "gain.csv"
    gain = np.loadtxt(path, delimiter=",", ndmin=2)
    gain[0] *= 1.001
    np.savetxt(path, gain, delimiter=",", fmt="%.17g")
    with pytest.raises(checks.CheckFailed, match="gain.csv closed loop"):
        checks.check_case_study(case_copy)


def test_case_study_changed_certificate_constant(case_copy):
    path = case_copy.out_dir / "certificate.txt"
    lines = path.read_text().splitlines()
    i = next(k for k, line in enumerate(lines) if line.startswith("C6 "))
    lines[i] = f"C6 = {float(lines[i].split(' = ')[1]) * 1.001!r}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckFailed, match="small-gain constant"):
        checks.check_case_study(case_copy)


def test_case_study_wrong_exit_code(case_copy):
    with pytest.raises(checks.CheckFailed, match="exit code"):
        checks.check_case_study(dataclasses.replace(case_copy, exit_code=0))


def test_case_study_truncated_trajectory(case_copy):
    path = case_copy.out_dir / "trajectory.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(checks.CheckFailed, match="trajectory shape"):
        checks.check_case_study(case_copy)


def test_design_scaled_gain_row(design):
    gain = design.design.gain.copy()
    gain[0] *= 1.001
    with pytest.raises(checks.CheckFailed, match="closed loop"):
        checks.check_design(_replace_design(design, gain=gain),
                            compute_constants)


def test_design_changed_certificate_constant(design):
    bundle = dataclasses.replace(design.bundle, C6=design.bundle.C6 * 1.001)
    with pytest.raises(checks.CheckFailed, match="C6"):
        checks.check_design(dataclasses.replace(design, bundle=bundle),
                            compute_constants)


def test_design_perturbed_lyapunov(design):
    lyap = design.design.lyap * (1.0 + 1e-6)
    with pytest.raises(checks.CheckFailed, match="Lyapunov"):
        checks.check_design(_replace_design(design, lyap=lyap),
                            compute_constants)


def test_design_worse_than_start_point(design):
    start = compute_constants(design.system, design.design, 0.9,
                              30.0 * design.bundle.gamma1,
                              30.0 * design.bundle.gamma2)
    product = checks._coupling_product(dict(workloads.COUPLING, L=workloads.L))
    worse = dataclasses.replace(
        design, bundle=start, margin=1.0 - product * start.small_gain_constant)
    with pytest.raises(checks.CheckFailed, match="worse than the start"):
        checks.check_design(worse, compute_constants)


def test_ensemble_perturbed_z_sample(ensemble):
    z = ensemble.traj.z.copy()
    z[len(z) // 2] *= 1.0 + 1e-3
    traj = dataclasses.replace(ensemble.traj, z=z)
    with pytest.raises(checks.CheckFailed, match="expm"):
        checks.check_ensemble(dataclasses.replace(ensemble, traj=traj))


def test_ensemble_shifted_u_sample(ensemble):
    u = ensemble.u_inv.copy()
    u[len(u) // 3] += 1e-5 * np.abs(u).max()
    with pytest.raises(checks.CheckFailed, match="invert_artstein"):
        checks.check_ensemble(dataclasses.replace(ensemble, u_inv=u))


def test_ensemble_growing_state(ensemble):
    norm_x = ensemble.traj.norm_x.copy()
    norm_x[-1] = norm_x.max()
    traj = dataclasses.replace(ensemble.traj, norm_x=norm_x)
    with pytest.raises(checks.CheckFailed, match="did not decay"):
        checks.check_ensemble(dataclasses.replace(ensemble, traj=traj))
