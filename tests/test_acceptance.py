"""Acceptance gate: one test per shipping criterion.

Each test prints a single pass/fail line with its measured figure so a
plain `pytest tests/test_acceptance.py -s` doubles as a release report.
The session-scoped trajectory fixtures are built inside the relevant
criterion, so the printed runtimes include the actual integration cost.
"""

import math
import time

import numpy as np
import pytest

import sdcontrol as sd
from sdcontrol.errors import CertificateParameterError

from conftest import COUPLINGS, closed_loop_ode, random_design, synthetic_system
from test_predictor import scalar_design

L = 2 * np.pi


def _emit(capsys, num, label, ok, detail):
    with capsys.disabled():
        print(f"[criterion {num:02d}] {label}: "
              f"{'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_01_spectrum(capsys):
    sd.build_heat_system(5.0, 2.5, L, 3)  # warm
    t_start = time.perf_counter()
    sys_ = sd.build_heat_system(5.0, 2.5, L, 3)
    elapsed = time.perf_counter() - t_start
    err = float(np.abs(sys_.eigenvalues - np.array([1.25, -2.5, -8.75])).max())
    ok = err <= 1e-12 and elapsed < 1e-3
    _emit(capsys, 1, "spectrum reproduction", ok,
          f"max err {err:.2e}, {elapsed * 1e3:.3f} ms")
    assert ok, (err, elapsed)


def test_criterion_02_controllability(capsys, heat_sys):
    zero_row = synthetic_system([2.0, 1.0], b=[[0.5], [0.0]])
    repeated = synthetic_system([-1.0, -1.0, -1.0],
                                b=[[1.0, 0.2], [0.3, 1.0], [0.4, 0.6]])
    sd.check_kalman(heat_sys, 2)  # warm
    t_start = time.perf_counter()
    verdicts = (sd.check_kalman(heat_sys, 2),
                sd.check_kalman(zero_row, 2),
                sd.check_kalman(repeated, 3))
    elapsed = time.perf_counter() - t_start
    ok = verdicts == (True, False, False) and elapsed < 1e-3
    _emit(capsys, 2, "controllability verdicts", ok,
          f"{verdicts}, {elapsed * 1e3:.3f} ms")
    assert ok, (verdicts, elapsed)


def test_criterion_03_pole_placement(capsys, heat_sys):
    sd.design_predictor(heat_sys, 2, 0.1, [-3.0, -3.0], 0.2)  # warm
    t_start = time.perf_counter()
    des = sd.design_predictor(heat_sys, 2, 0.1, [-3.0, -3.0], 0.2)
    elapsed = time.perf_counter() - t_start
    spec = np.linalg.eigvals(des.a_cl)
    pole_err = float(np.abs(np.sort(spec.real) - (-3.0)).max()
                     + np.abs(spec.imag).max())
    residual = float(np.abs(des.a_cl.conj().T @ des.lyap
                            + des.lyap @ des.a_cl + np.eye(2)).max())
    ok = pole_err < 1e-6 and residual < 1e-9 and elapsed < 10e-3
    _emit(capsys, 3, "pole placement", ok,
          f"pole err {pole_err:.2e}, lyap residual {residual:.2e}, "
          f"{elapsed * 1e3:.2f} ms")
    assert ok, (pole_err, residual, elapsed)


def test_criterion_04_artstein_round_trip(capsys):
    rng = np.random.default_rng(2024)
    t_start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        des, _ = random_design(rng)
        y0 = rng.uniform(-1.0, 1.0, des.n0)
        tt, ys, us = closed_loop_ode(des, y0, des.delay + 0.5, 1e-3)
        rec = sd.invert_artstein(des, tt, ys)
        worst = max(worst, float(np.abs(rec - us).max()))

    k, g, delay = 0.7, 1.3, 0.25
    scal = scalar_design(a=0.0, b=1.0, k=k, delay=delay)
    tt = np.arange(0.0, delay + 1e-12, 1e-3)
    u = sd.invert_artstein(scal, tt, np.full((tt.size, 1), g, dtype=complex),
                           phi=lambda t: np.ones_like(t))
    scalar_err = float(np.abs(u[:, 0] - k * g * np.exp(k * tt)).max())
    elapsed = time.perf_counter() - t_start
    ok = worst < 1e-3 and scalar_err < 1e-6 and elapsed < 5.0
    _emit(capsys, 4, "artstein round trip", ok,
          f"sup err {worst:.2e}, scalar err {scalar_err:.2e}, "
          f"{elapsed:.2f} s")
    assert ok, (worst, scalar_err, elapsed)


def test_criterion_05_certificate_formulas(capsys):
    sys_ = synthetic_system([-1.0, -3.0])
    des = sd.design_predictor(sys_, n0=1, delay=0.1, poles=[-2.0], t0=0.2)
    ksq = math.exp(-0.2)
    g1_min = 2.0 / 0.25
    g2_bk = ksq / 0.25
    g2_c5 = ((10.0 / 3.0) * ksq) / (1.0 - 0.5)

    t_start = time.perf_counter()
    checks = []

    def rejected(beta, g1, g2):
        try:
            sd.compute_constants(sys_, des, beta, g1, g2)
            return False
        except CertificateParameterError:
            return True

    checks.append(not rejected(0.5, g1_min + 1e-9, 8.0))
    checks.append(rejected(0.5, g1_min - 1e-9, 8.0))
    checks.append(not rejected(0.1, 10.0, g2_bk + 1e-9))
    checks.append(rejected(0.1, 10.0, g2_bk - 1e-9))
    checks.append(not rejected(0.5, 10.0, g2_c5 + 1e-9))
    checks.append(rejected(0.5, 10.0, g2_c5 - 1e-9))

    grid = (6.0, 8.0, 12.0, 30.0, 100.0)
    bundles = [sd.compute_constants(sys_, des, 0.5, 10.0, g2) for g2 in grid]
    c4s = [b.C4 for b in bundles]
    c6s = [b.C6 for b in bundles]
    kap = [b.kappa0 for b in bundles]
    checks.append(all(a > b for a, b in zip(c4s, c4s[1:])))
    checks.append(all(a < b for a, b in zip(c6s, c6s[1:])))
    checks.append(all(a <= b for a, b in zip(kap, kap[1:])))
    by_g1 = [sd.compute_constants(sys_, des, 0.5, g1, 8.0).C6
             for g1 in (9.0, 12.0, 20.0, 50.0)]
    checks.append(all(a < b for a, b in zip(by_g1, by_g1[1:])))
    elapsed = time.perf_counter() - t_start

    ok = all(checks) and elapsed < 0.1
    _emit(capsys, 5, "certificate formulas", ok,
          f"{sum(checks)}/{len(checks)} checks, {elapsed * 1e3:.1f} ms")
    assert ok, (checks, elapsed)


def test_criterion_06_small_gain_band(capsys, heat_sys, design):
    t_start = time.perf_counter()
    bundle = sd.optimize_parameters(heat_sys, design)
    elapsed = time.perf_counter() - t_start
    sgc = bundle.small_gain_constant
    in_band = 4.0 <= sgc <= 15.0
    try:
        ref = sd.compute_constants(heat_sys, design,
                                   0.4131, 106.3290, 337.1938)
        beats_ref = sgc <= ref.small_gain_constant + 1e-9
        ref_note = f"reference {ref.small_gain_constant:.4f}"
    except CertificateParameterError:
        beats_ref = True
        ref_note = "reference point infeasible for this gain"
    ok = in_band and beats_ref and elapsed < 30.0
    _emit(capsys, 6, "small-gain constant band", ok,
          f"sgc {sgc:.4f} in [4, 15], {ref_note}, {elapsed:.2f} s")
    assert ok, (sgc, ref_note, elapsed)


def test_criterion_07_lyapunov_decay(capsys, request, bundle):
    t_start = time.perf_counter()
    traj = request.getfixturevalue("dzero_traj")
    t_on = traj.delay + traj.t0
    mask = traj.t >= t_on - 1e-12
    v_on = float(np.interp(t_on, traj.t, traj.V))
    envelope = 1.05 * np.exp(-2.0 * bundle.kappa0 * (traj.t[mask] - t_on)) \
        * v_on
    decay_ok = bool(np.all(traj.V[mask] <= envelope))
    margin = float((traj.V[mask] / envelope).max())

    sqrt_v = np.sqrt(traj.V)
    norm_ok = bool(np.all(traj.norm_x <= 1.05 * bundle.C4 * sqrt_v))
    ratio = float((traj.norm_x / (bundle.C4 * sqrt_v)).max())
    elapsed = time.perf_counter() - t_start
    ok = decay_ok and norm_ok and elapsed < 60.0
    _emit(capsys, 7, "lyapunov decay envelope", ok,
          f"worst V ratio {margin:.3f}, worst norm ratio {ratio:.3f}, "
          f"{elapsed:.1f} s")
    assert ok, (margin, ratio, elapsed)


def test_criterion_08_iss_under_disturbance(capsys, request, bundle, design):
    t_start = time.perf_counter()
    traj = request.getfixturevalue("disturbed_traj")
    bounded = bool(np.all(np.isfinite(traj.norm_x)))
    d_sup = float(traj.norm_d.max())
    env_ok, worst = sd.iss_envelope_check(traj, bundle, d_sup)

    norm_k = float(np.linalg.svd(design.gain, compute_uv=False)[0])
    u_max = float(np.linalg.norm(np.abs(traj.u), axis=1).max())
    u_bound = norm_k / math.sqrt(bundle.C2g1) * float(np.sqrt(traj.V).max())
    u_ok = u_max <= u_bound
    elapsed = time.perf_counter() - t_start
    ok = bounded and env_ok and u_ok and elapsed < 60.0
    _emit(capsys, 8, "iss under disturbance", ok,
          f"envelope worst {worst:.4f}, max |u| {u_max:.2f} <= "
          f"{u_bound:.3g}, {elapsed:.1f} s")
    assert ok, (bounded, worst, u_max, u_bound, elapsed)


def test_criterion_09_open_loop_rate(capsys, request):
    t_start = time.perf_counter()
    traj = request.getfixturevalue("open_loop_traj")
    c1 = traj.coeffs[:, 0].real
    rate = float(np.polyfit(traj.t, np.log(np.abs(c1)), 1)[0])
    elapsed = time.perf_counter() - t_start
    ok = abs(rate - 1.25) <= 0.05 * 1.25 and elapsed < 10.0
    _emit(capsys, 9, "open-loop growth rate", ok,
          f"rate {rate:.4f} vs 1.25 +- 5%, {elapsed:.1f} s")
    assert ok, (rate, elapsed)


def test_criterion_10_interconnection_threshold(capsys):
    t_start = time.perf_counter()
    lhs = 2.0 * abs(COUPLINGS["b1"] * COUPLINGS["a2"]) / COUPLINGS["a1"] \
        + abs(COUPLINGS["b2"] * COUPLINGS["d2"])
    cc = sd.coupling_constants(**COUPLINGS, L=L)
    lhs_lib = (cc.d1 * cc.ct1 + cc.d2) * L
    threshold = L / 8.6260
    elapsed = time.perf_counter() - t_start
    ok = (abs(lhs - 0.71417) <= 1e-5 and abs(lhs_lib - lhs) < 1e-12
          and lhs < threshold and elapsed < 1e-3)
    _emit(capsys, 10, "interconnection threshold", ok,
          f"lhs {lhs:.6f} < {threshold:.6f}, {elapsed * 1e3:.3f} ms")
    assert ok, (lhs, lhs_lib, threshold, elapsed)


def test_criterion_11_numerical_robustness(capsys, heat_sys, design,
                                           x0_coeffs, request):
    t_start = time.perf_counter()
    des0 = sd.zero_gain_design(heat_sys, 2, 0.1, 0.2)
    errs = {}
    for dt in (0.02, 0.01):
        cfg = sd.SimConfig(dt=dt, t_end=1.0, n_modes=10, disturbance="none")
        traj = sd.simulate(cfg, heat_sys, des0, None, x0=0.0,
                           x0_coeffs=x0_coeffs)
        exact = x0_coeffs * np.exp(heat_sys.eigenvalues * 1.0)
        errs[dt] = float(np.abs(traj.coeffs[-1] - exact).max())
    ratio = errs[0.02] / errs[0.01]

    sys20 = sd.build_heat_system(5.0, 2.5, L, 20)
    fields20 = sd.case_study_fields(sys20, 20, **COUPLINGS)
    x0_20 = sd.project_profile(sys20, sd.case_study_initial_profile(L), 20)
    cfg20 = sd.SimConfig(dt=1e-3, t_end=10.0, n_modes=20,
                         disturbance="case-study")
    traj20 = sd.simulate(cfg20, sys20, design, fields20, x0=-2.0,
                         x0_coeffs=x0_20)
    traj10 = request.getfixturevalue("disturbed_traj")
    change = float(np.abs(traj20.norm_x - traj10.norm_x).max()
                   / traj10.norm_x.max())
    elapsed = time.perf_counter() - t_start
    ok = ratio >= 12.0 and change < 0.01
    _emit(capsys, 11, "numerical robustness", ok,
          f"rk4 error ratio {ratio:.1f}, 10->20 mode change "
          f"{change * 100:.3f}%, {elapsed:.1f} s")
    assert ok, (ratio, change, elapsed)
