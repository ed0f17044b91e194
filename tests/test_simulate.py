"""Coupled closed-loop integration, diagnostics, and trajectory output."""

import cmath
import dataclasses
import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import sdcontrol as sd
from sdcontrol import _csv
from sdcontrol.errors import (InsufficientDataError, InvalidParameterError,
                              SimulationDivergedError)
from sdcontrol._loop import (_coupling_terms, _RK4Step, _RowSolver,
                             _split_steps)
from sdcontrol.simulate import _assert_real, _half_step_v
from sdcontrol.spectral import _run_dtype

from conftest import (COUPLINGS, closed_loop_ode, synthetic_system,
                      zero_gain_fields)

L = 2 * np.pi

# frozen regression values for the session trajectories (dt = 1e-3)
FROZEN_X0_NORM = 107.2634474828105
FROZEN_QUIET_TAIL = 1.9363678688854573e-7
FROZEN_DZERO_WORST = 1.0000000000000004
FROZEN_DISTURBED_WORST = 0.9927432209250856
FROZEN_MAX_ABS_U = 7.2358520995278015
FROZEN_MAX_NORMD = 9.859557252560899


def make_traj(t, norm_x, V=None, x=None, coeffs=None, u=None, norm_d=None,
              delay=0.1, t0=0.2, n0=1):
    """Hand-built Trajectory for the pure-diagnostic unit tests."""
    t = np.asarray(t, dtype=float)
    n = t.size
    if coeffs is None:
        coeffs = np.zeros((n, 2), dtype=complex)
    if u is None:
        u = np.zeros((n, 1), dtype=complex)
    dt = float(t[1] - t[0]) if n > 1 else 1e-3
    return sd.Trajectory(
        t=t, x=np.zeros(n) if x is None else np.asarray(x, dtype=float),
        coeffs=np.asarray(coeffs, dtype=complex),
        norm_x=np.asarray(norm_x, dtype=float),
        u=np.asarray(u, dtype=complex),
        norm_d=np.zeros(n) if norm_d is None else np.asarray(norm_d),
        V=np.zeros(n) if V is None else np.asarray(V, dtype=float),
        z=np.zeros((n, 1), dtype=complex),
        dt=dt, delay=delay, t0=t0, n0=n0,
        has_certificate=V is not None)


def drift(fields, x, coeffs, v):
    """The scalar drift f1 and the modal disturbance f2 at one state, from
    the interconnection's terms as the library encodes them."""
    mat, e_row, t2, cv = _coupling_terms(fields)
    s = np.concatenate([[x], coeffs])
    f = mat @ s + np.arctan(e_row @ s) * t2 + v * cv
    return f[0], f[1:]


class TestCaseStudyData:
    def test_disturbance_signal(self):
        assert sd.case_study_disturbance(0.0) == 0.0
        assert sd.case_study_disturbance(0.7) == pytest.approx(
            math.sin(1.4) * math.sin(3.5), rel=1e-15)

    def test_initial_profile(self, heat_sys, x0_coeffs):
        fn = sd.case_study_initial_profile(L)
        assert fn(np.array([1.0]))[0] == pytest.approx(
            -5.0 * (np.pi - 1.0) * (2.0 * np.pi - 1.0), rel=1e-12)
        direct = sd.project_profile(heat_sys, fn, 10)
        np.testing.assert_allclose(direct, x0_coeffs, rtol=1e-12)

    def test_initial_coefficient_norm(self, x0_coeffs):
        assert np.linalg.norm(x0_coeffs) == pytest.approx(FROZEN_X0_NORM,
                                                          rel=1e-10)

    def test_field_profiles_are_near_unit_norm(self, fields):
        # the continuum profiles have unit L2 norm; ten retained modes keep
        # almost all of it
        for name in ("eta1", "theta1", "theta3"):
            nrm = float(np.linalg.norm(getattr(fields, name)))
            assert 0.97 < nrm <= 1.0 + 1e-12

    def test_zero_gain_fields_are_inert(self):
        fz = zero_gain_fields(4, a1=2.0, domain_length=3.0)
        assert fz.n_modes == 4
        f1, f2 = drift(fz, 1.5, np.ones(4), 2.0)
        assert f1 == pytest.approx(-3.0)
        assert np.all(f2 == 0.0)


class TestCouplings:
    """The drift f1 of the scalar subsystem and the modal disturbance f2."""

    def test_f1_pure_decay(self, fields):
        f1, _ = drift(fields, 1.0, np.zeros(10), 0.0)
        assert f1 == pytest.approx(-1.5, rel=1e-15)

    def test_f1_sensing_term(self, fields):
        # X = eta1 makes the inner product the squared profile norm ~ 1
        f1, _ = drift(fields, 0.0, fields.eta1, 0.0)
        assert f1 == pytest.approx(0.5 / L, rel=1e-2)

    def test_f1_exogenous_term(self, fields):
        f1, _ = drift(fields, 0.0, np.zeros(10), 1.0)
        assert f1 == pytest.approx(0.2, rel=1e-15)

    def test_f2_vanishes_at_origin(self, fields):
        _, f2 = drift(fields, 0.0, np.zeros(10), 0.0)
        assert np.all(f2 == 0.0)

    def test_f2_scalar_injection(self, fields):
        _, f2 = drift(fields, 1.3, np.zeros(10), 0.0)
        np.testing.assert_allclose(_assert_real(f2, "f2"),
                                   0.7 * 1.3 * fields.theta1, rtol=1e-14)

    def test_f2_growth_bound(self, fields):
        # ||d|| <= d1 |x| + d2 ||X|| + d3 |v| with the published constants
        cc = sd.coupling_constants(**COUPLINGS, L=L)
        rng = np.random.default_rng(7)
        for _ in range(1000):
            x = rng.uniform(-20.0, 20.0)
            coeffs = rng.uniform(-15.0, 15.0, size=10)
            v = rng.uniform(-4.0, 4.0)
            d = _assert_real(drift(fields, x, coeffs, v)[1], "f2")
            bound = (cc.d1 * abs(x) + cc.d2 * np.linalg.norm(coeffs)
                     + cc.d3 * abs(v))
            assert np.linalg.norm(d) <= bound + 1e-12

    def test_non_finite_fields_rejected(self, heat_sys):
        # an input error, not a divergence of the run
        for bad in ({"a1": math.nan}, {"b2": math.inf}, {"d2": -math.inf}):
            with pytest.raises(InvalidParameterError, match="finite"):
                sd.case_study_fields(heat_sys, 10, **{**COUPLINGS, **bad})
        prof = np.ones(3)
        for length, eta1 in ((math.inf, prof), (1.0, np.array([1, np.nan, 1]))):
            with pytest.raises(InvalidParameterError, match="finite"):
                sd.CouplingFields(**COUPLINGS, domain_length=length,
                                  eta1=eta1, eta2=prof, theta1=prof,
                                  theta2=prof, theta3=prof)

    def test_complex_output_rejected(self):
        fz = zero_gain_fields(2)
        f1, _ = drift(fz, 1.0 + 2.0j, np.zeros(2), 0.0)
        with pytest.raises(InvalidParameterError, match="imaginary"):
            _assert_real(f1, "f1")

    def test_batched_check_scales_each_row(self):
        # the recorded coupling terms are checked as one array, row by row:
        # a row of 1e6 must not hide an imaginary part of 1e-5 in a row of
        # 1e-3, which the one-row check rejects
        rows = np.array([[1e6, 0.0], [1e-3 + 1e-5j, 0.0]])
        with pytest.raises(InvalidParameterError, match="imaginary"):
            _assert_real(rows[1], "one row")
        with pytest.raises(InvalidParameterError, match="imaginary"):
            _assert_real(rows, "rows", axis=1)
        small = np.array([[1e6 + 1e-5j, 0.0], [1e-3, 0.0]])
        np.testing.assert_array_equal(_assert_real(small, "rows", axis=1),
                                      small.real)


def textbook_rk4(sys_, delay, fields, u_history, dt, x, coeffs, v_fn):
    """Four-stage RK4 over the interconnection plus the delayed B u,
    written out from the fields' gains and profiles.

    The delayed input is read from u_history (row j at time j dt, zero
    before t = 0) by its own linear interpolation at each stage time.
    """
    n = coeffs.size
    lam, b = sys_.eigenvalues[:n], sys_.input_coeffs[:n]
    t = (len(u_history) - 1) * dt

    def bu_at(s):
        k = s / dt
        if k < -1e-9:
            return np.zeros(n, dtype=complex)
        j = math.floor(k + 1e-9)
        f = k - j
        u = u_history[j] if f <= 1e-9 else \
            (1.0 - f) * u_history[j] + f * u_history[j + 1]
        return b @ u

    def deriv(tau, x_, c_):
        dc = lam * c_ + bu_at(tau - delay)
        if fields is None:
            return 0.0, dc
        f, ell, v = fields, fields.domain_length, v_fn(tau)
        f1 = -f.a1 * x_ + f.b1 / ell * (f.eta1 @ c_) + f.c1 * v
        bent = np.arctan(f.d2 / ell * (f.eta2 @ c_))
        f2 = f.a2 * x_ * f.theta1 + f.b2 * bent * f.theta2 \
            + f.c2 * v * f.theta3
        return f1, dc + f2

    kx1, kc1 = deriv(t, x, coeffs)
    kx2, kc2 = deriv(t + dt / 2, x + dt / 2 * kx1, coeffs + dt / 2 * kc1)
    kx3, kc3 = deriv(t + dt / 2, x + dt / 2 * kx2, coeffs + dt / 2 * kc2)
    kx4, kc4 = deriv(t + dt, x + dt * kx3, coeffs + dt * kc3)
    return (x + dt / 6 * (kx1 + 2 * kx2 + 2 * kx3 + kx4),
            coeffs + dt / 6 * (kc1 + 2 * kc2 + 2 * kc3 + kc4))


def rk4_step(sys_, design, fields, u_history, dt, x, coeffs, v_fn):
    """One _RK4Step step, a one-row block, from the time of the newest row
    of u_history (row 0 at t = 0), padded here as simulate pads its input
    history; v_half holds v at the step's three stage times.  The stepper
    takes the dtype a run from this state would (real for real plant rows
    and state), and the history and state follow it."""
    state = np.append(x, coeffs)
    n = state.size - 1
    rk4 = _RK4Step(sys_, design, fields, n, dt, _run_dtype(
        sys_.eigenvalues[:n], sys_.input_coeffs[:n], state))
    dtype = rk4.lag_w.dtype
    u = np.pad(np.asarray(u_history, dtype=dtype), ((rk4.pad, 0), (0, 0)))
    r = len(u_history) - 1
    t = r * dt
    s = np.zeros((2, n + 1), dtype=dtype)
    s[0] = state.real if dtype == float else state
    v_half = np.zeros(2 * r + 3)
    v_half[2 * r:] = v_fn(t), v_fn(t + dt / 2), v_fn(t + dt)
    rk4.advance(u, r, v_half, s)
    return s[1, 0], s[1, 1:]


def assert_step_matches_textbook(sys_, design, fields, u_history, x, coeffs):
    """_RK4Step agrees with textbook_rk4 to 1e-13 of the new state's size;
    returns the reference coefficients."""
    args = (fields, u_history, 1e-3, x, coeffs, sd.case_study_disturbance)
    x_ref, c_ref = textbook_rk4(sys_, design.delay, *args)
    x_new, c_new = rk4_step(sys_, design, *args)
    scale = max(abs(x_ref), np.abs(c_ref).max())
    assert abs(x_new - x_ref) <= 1e-13 * scale
    assert np.abs(c_new - c_ref).max() <= 1e-13 * scale
    return c_ref


class TestStep:
    @pytest.mark.parametrize("delay,coupled,rows", [
        (0.1, True, 301), (0.1, True, 51), (0.1237, True, 301),
        (0.1237, True, 90), (0.1, False, 301), (0.1237, False, 301)])
    def test_matches_textbook_rk4(self, heat_sys, fields, x0_coeffs, delay,
                                  coupled, rows):
        # the case-study state after a nonzero input history; rows = 51 and
        # 90 put the stage lags in the zero history before t = 0
        rng = np.random.default_rng(rows)
        des = sd.zero_gain_design(heat_sys, 2, delay, 0.2)
        hist = rng.normal(size=(rows, heat_sys.input_dim))
        coeffs = x0_coeffs + 0.1 * rng.normal(size=10)
        assert_step_matches_textbook(heat_sys, des, fields if coupled else None,
                                     hist, -1.7, coeffs)

    @pytest.mark.parametrize("coupled", [False, True])
    def test_complex_pair_matches_textbook_rk4(self, coupled):
        # a complex-conjugate eigenvalue pair; with random coupling profiles
        # the arctan arguments are complex
        rng = np.random.default_rng(7)
        sys_ = synthetic_system([0.5 + 2j, 0.5 - 2j, -3.0, -6.0])
        des = sd.zero_gain_design(sys_, 2, 0.1237, 0.2)
        prof = rng.normal(size=(5, 4))
        f = sd.CouplingFields(1.5, 0.5, 0.2, 0.7, 0.55, 10.0, 0.45, 1.0,
                              *prof) if coupled else None
        hist = rng.normal(size=(301, 1))
        coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
        c_ref = assert_step_matches_textbook(sys_, des, f, hist, 0.8, coeffs)
        assert np.abs(c_ref.imag).max() > 0.1

    def test_single_mode_exponential(self):
        sys_ = synthetic_system([-1.0])
        des = sd.zero_gain_design(sys_, n0=1, delay=0.1, t0=0.2)
        _, c = rk4_step(sys_, des, None, np.zeros((1, 1)), 1e-3,
                        0.0, np.array([1.0 + 0.0j]), lambda t: 0.0)
        assert c[0].real == pytest.approx(math.exp(-1e-3), abs=1e-12)

    def test_integrator_mode_accumulates_delayed_input(self):
        sys_ = synthetic_system([0.0])
        des = sd.zero_gain_design(sys_, n0=1, delay=0.1, t0=0.2)
        hist = np.ones((151, 1))  # the step starts at t = 0.15
        _, c = rk4_step(sys_, des, None, hist, 1e-3,
                        0.0, np.array([0.5 + 0.0j]), lambda t: 0.0)
        assert c[0].real == pytest.approx(0.5 + 1e-3, abs=1e-12)

    def test_scalar_subsystem_decay(self):
        sys_ = synthetic_system([-1.0])
        des = sd.zero_gain_design(sys_, n0=1, delay=0.1, t0=0.2)
        fz = zero_gain_fields(1, a1=1.5)
        x, _ = rk4_step(sys_, des, fz, np.zeros((1, 1)), 1e-3,
                        1.0, np.zeros(1, dtype=complex), lambda t: 0.0)
        assert x.real == pytest.approx(math.exp(-1.5e-3), abs=1e-12)
        assert x.imag == 0.0


def one_step_map(sys_, design, n, dt):
    """The plant-only step after the ramp as a matrix on X = (s, the last
    nu rows of u), built column by column from unit vectors with the run's
    stepper and row solver at row r = 3 pad.  nu is the number of rows one
    delay spans, D / dt + 1 when that is whole and pad + 1 otherwise, since
    a partial step's 2-point interpolation reaches one row further back.
    The u rows older than X are NaN, so a read outside X makes M
    non-finite.  M has the run's dtype, which simulate would choose from
    the plant rows and the row solver."""
    solve = _RowSolver(design, dt)
    dtype = solve.dtype if solve.dtype is complex else _run_dtype(
        sys_.eigenvalues[:n], sys_.input_coeffs[:n])
    rk4 = _RK4Step(sys_, design, None, n, dt, dtype)
    pad, m, dim = rk4.pad, sys_.input_dim, n + 1
    nu = pad + (_split_steps(design.delay / dt)[1] > 0)
    r = 3 * pad
    cols = []
    for e in np.eye(dim + nu * m, dtype=dtype):
        u = np.full((pad + r + 2, m), np.nan, dtype=dtype)
        u[pad + r + 1 - nu:pad + r + 1] = e[dim:].reshape(nu, m)
        s = np.array([e[:dim], np.zeros(dim)])
        rk4.advance(u, r, None, s)
        # past the ramp phi stays 1 from row r + 1 on
        u[pad + r + 1] = solve(u, r, s[1:, 1:design.n0 + 1], np.ones(1),
                               r + 1)[1][0]
        cols.append(np.concatenate([s[1], u[pad + r + 2 - nu:].ravel()]))
    mat = np.array(cols).T
    assert np.isfinite(mat).all()
    return mat


def placed_rates(sys_, design, n, dt, poles):
    """The continuous rates log(mu) / dt of the one-step map's roots nearest
    exp(p dt) for the placed poles p, after checking the rest of its
    spectrum: x's root 1, each tail mode at its RK4 amplification (to 1e-13
    relative), and every other root (the input history's) strictly inside
    the slowest placed or tail rate, so that the discretized predictor
    integral adds no unstable root."""
    lam = sys_.eigenvalues[:n]
    mu = list(np.linalg.eigvals(one_step_map(sys_, design, n, dt)))

    def take(target):
        return mu.pop(int(np.argmin(np.abs(np.array(mu) - target))))

    assert abs(take(1.0) - 1.0) <= 1e-13
    for z in dt * lam[design.n0:]:
        amp = 1 + z * (1 + z / 2 * (1 + z / 3 * (1 + z / 4)))
        assert abs(take(amp) - amp) <= 1e-13 * abs(amp)
    rates = np.log([take(cmath.exp(p * dt)) for p in poles]) / dt
    slowest = max(max(p.real for p in poles), lam[design.n0].real)
    assert np.abs(mu).max() < math.exp(dt * slowest)
    return rates


# -z at the RK4 stability limit on the negative real axis, the real root of
# 1 + z/2 + z^2/6 + z^3/24
RK4_LIMIT = 2.785293563405289

# a plant with a complex-conjugate pair, its design for poles -2 +- 1j and
# a complex initial state; it runs in complex
COMPLEX_EIGS = [0.5 + 2j, 0.5 - 2j, -3.0, -6.0]
COMPLEX_POLES = [-2 + 1j, -2 - 1j]
COMPLEX_Y0 = np.array([0.3 - 0.4j, 0.3 + 0.4j, 0.1j, 0.2])


class TestDiscreteSpectrum:
    def test_one_step_map_spectrum(self, heat_sys, design):
        # the case study's double pole -3 to second order in dt: its mean
        # rate falls 4x per halving, and it splits by O(dt)
        errors = []
        for dt in (2e-3, 1e-3):
            rates = placed_rates(heat_sys, design, 10, dt, [-3.0, -3.0])
            errors.append(abs(rates.mean() + 3.0))
            assert errors[-1] <= 1e-5, rates
            assert abs(rates[0] - rates[1]) <= 2 * dt, rates
        assert 3.5 <= errors[0] / errors[1] <= 4.5, errors

    @pytest.mark.parametrize("delay", [0.1, 0.1237])
    def test_complex_pair_spectrum(self, heat_sys, delay):
        # poles -3 +- 1j.  At D = 0.1 the errors (3.61e-6, 9.02e-7) fall 4x
        # per halving of dt; at D = 0.1237 they are 1.16 dt^2 and 0.82 dt^2,
        # with no clean ratio, since the fractional part of D / dt, and so
        # the partial panel and the 2-point taps, moves from 0.85 to 0.70.
        # Both input columns of B enter: swapping them in the row solver's
        # history table fails this test
        poles = [-3.0 + 1.0j, -3.0 - 1.0j]
        des = sd.design_predictor(heat_sys, 2, delay, poles, 0.2)
        errors = []
        for dt in (2e-3, 1e-3):
            rates = placed_rates(heat_sys, des, 10, dt, poles)
            errors.append(float(np.abs(rates - poles).max()))
            if delay == 0.1237:
                assert errors[-1] <= 1.5 * dt ** 2, errors
        if delay == 0.1:
            assert max(errors) <= 1e-5, errors
            assert 3.5 <= errors[0] / errors[1] <= 4.5, errors

    @pytest.mark.parametrize("plant", ["case-study", "complex"])
    def test_run_dtype_follows_the_data(self, heat_sys, design, x0_coeffs,
                                        plant):
        # the case-study rod's eigenvalues, B, gain and state are exactly
        # real, so its run is float64; a complex-conjugate pair makes the
        # run complex.  The one-step map at the run's dtype has the placed
        # poles as test_one_step_map_spectrum bounds them at dt = 1e-3: the
        # mean rate to 1e-5, a double pole split by at most 2 dt
        if plant == "case-study":
            sys_, des, poles, y0 = heat_sys, design, [-3.0, -3.0], x0_coeffs
        else:
            sys_ = synthetic_system(COMPLEX_EIGS)
            des = sd.design_predictor(sys_, 2, 0.1, COMPLEX_POLES, 0.2)
            poles, y0 = COMPLEX_POLES, COMPLEX_Y0
        dtype = float if plant == "case-study" else complex
        n = y0.size
        cfg = sd.SimConfig(dt=1e-3, t_end=0.3, n_modes=n, disturbance="none")
        traj = sd.simulate(cfg, sys_, des, None, 0.0, y0)
        # at stride 1 u, coeffs and z are views of the run's histories
        for hist in (traj.u, traj.coeffs, traj.z):
            assert hist.dtype == dtype and hist.base is not None
        assert one_step_map(sys_, des, n, 1e-3).dtype == dtype
        rates = placed_rates(sys_, des, n, 1e-3, poles)
        assert abs(rates.mean() - np.mean(poles)) <= 1e-5, rates
        assert float(np.abs(rates - poles).max()) <= 2e-3, rates

    def test_complex_design_on_a_real_plant(self, heat_sys, design,
                                            x0_coeffs):
        # a design whose eigenvalues are not real has a complex row solver
        # even though its K is exactly real, so the run is complex on the
        # real rod: a float history would drop its rows' imaginary parts
        # with a ComplexWarning
        des = dataclasses.replace(design,
                                  eigenvalues=design.eigenvalues + 1e-3j)
        assert not des.gain.imag.any()
        cfg = sd.SimConfig(dt=1e-3, t_end=0.2, n_modes=10, disturbance="none")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = sd.simulate(cfg, heat_sys, des, None, 0.0, x0_coeffs)
        for hist in (traj.u, traj.coeffs, traj.z):
            assert hist.dtype == complex
        assert np.abs(traj.u.imag).max() > 0

    def test_tiny_imaginary_parts_stay_complex(self):
        # real means exactly real: 1e-300j is no tolerance's zero
        for eigs in ([-1.0 + 1e-300j, -4.0], [-1.0, -4.0]):
            sys_ = synthetic_system(eigs)
            des = sd.zero_gain_design(sys_, 1, 0.1, 0.2)
            cfg = sd.SimConfig(dt=1e-3, t_end=0.05, n_modes=2,
                               disturbance="none")
            traj = sd.simulate(cfg, sys_, des, None, 0.0, np.ones(2))
            assert traj.coeffs.dtype == (complex if eigs[0].imag else float)
        assert _run_dtype(np.array([1.0 + 1e-300j])) is complex
        assert _run_dtype(np.array([1.0 + 0j]), np.ones(2)) is float


class TestSimulate:
    def test_zero_state_stays_zero(self, heat_sys, design, fields):
        cfg = sd.SimConfig(dt=1e-3, t_end=0.5, n_modes=10, disturbance="none")
        traj = sd.simulate(cfg, heat_sys, design, fields, x0=0.0,
                           x0_coeffs=np.zeros(10))
        assert np.all(traj.norm_x == 0.0)
        assert np.all(traj.x == 0.0)
        assert np.all(traj.u == 0.0)

    def test_input_starts_at_zero(self, disturbed_traj):
        assert disturbed_traj.t[0] == 0.0
        assert np.all(disturbed_traj.u[0] == 0.0)

    def test_quiet_run_contracts(self, quiet_traj):
        x0n = quiet_traj.norm_x[0]
        tail = quiet_traj.norm_x[quiet_traj.t >= 8.0] / x0n
        assert float(tail.max()) < 1e-2
        # regression band around the frozen run
        assert 0.0 < float(tail.max()) < 5e-7

    def test_quiet_run_regression(self, quiet_traj):
        x0n = quiet_traj.norm_x[0]
        worst = float((quiet_traj.norm_x[quiet_traj.t >= 8.0] / x0n).max())
        assert worst == pytest.approx(FROZEN_QUIET_TAIL, rel=1e-6)

    def test_disturbed_run_stays_bounded(self, disturbed_traj):
        assert np.all(np.isfinite(disturbed_traj.norm_x))
        assert float(np.abs(disturbed_traj.u).max()) == pytest.approx(
            FROZEN_MAX_ABS_U, rel=1e-6)
        assert float(disturbed_traj.norm_d.max()) == pytest.approx(
            FROZEN_MAX_NORMD, rel=1e-6)

    def test_recorded_disturbance_norm(self, heat_sys, design, fields,
                                       x0_coeffs, disturbed_traj):
        # ||d|| with d = a2 x theta1 + b2 arctan((d2/L) <eta2, X>) theta2
        # + c2 v theta3, written out per recorded row; also at a stride
        def norm_d(traj):
            f, v = fields, np.array([sd.case_study_disturbance(t)
                                     for t in traj.t])
            bent = np.arctan(f.d2 / L * (traj.coeffs @ f.eta2))
            d = (np.outer(f.a2 * traj.x, f.theta1)
                 + np.outer(f.b2 * bent, f.theta2)
                 + np.outer(f.c2 * v, f.theta3))
            return np.linalg.norm(d, axis=1)

        strided = sd.simulate(
            sd.SimConfig(dt=1e-3, t_end=2.0, n_modes=10, record_stride=7),
            heat_sys, design, fields, x0=-2.0, x0_coeffs=x0_coeffs)
        for traj in (disturbed_traj, strided):
            np.testing.assert_allclose(traj.norm_d, norm_d(traj),
                                       rtol=1e-13, atol=0.0)

    def test_open_loop_first_mode_grows(self, open_loop_traj):
        c1 = open_loop_traj.coeffs[:, 0].real
        assert np.all(c1 != 0.0)
        slope = np.polyfit(open_loop_traj.t, np.log(np.abs(c1)), 1)[0]
        assert slope == pytest.approx(1.25, rel=0.05)

    def test_certificate_column(self, disturbed_traj, quiet_traj):
        assert disturbed_traj.has_certificate
        assert np.all(disturbed_traj.V >= 0.0)
        assert quiet_traj.V[-1] < quiet_traj.V[len(quiet_traj) // 2]

    def test_no_certificate_records_zero(self, open_loop_traj):
        assert not open_loop_traj.has_certificate
        assert np.all(open_loop_traj.V == 0.0)

    def test_predictor_identity_on_record(self, heat_sys, design, fields,
                                          bundle, x0_coeffs):
        # Z(t) must equal X_{n0}(t) plus the input-window integral; rebuild
        # the integral from the recorded inputs with an independent rule
        cfg = sd.SimConfig(dt=1e-3, t_end=0.8, n_modes=10,
                           disturbance="case-study")
        traj = sd.simulate(cfg, heat_sys, design, fields, x0=-2.0,
                           x0_coeffs=x0_coeffs, bundle=bundle)
        lam = design.eigenvalues
        d = design.delay
        dt = traj.dt
        width = int(round(d / dt))
        worst = 0.0
        for i in range(width, len(traj), 50):
            s = traj.t[i - width:i + 1]
            uw = traj.u[i - width:i + 1]
            kern = np.exp(np.outer(traj.t[i] - d - s, lam))
            integral = np.trapezoid(kern * (uw @ design.b_n0.T), s, axis=0)
            resid = traj.z[i] - (traj.coeffs[i, :2] + integral)
            worst = max(worst, float(np.abs(resid).max()))
        assert worst < 1e-6

    def test_certificate_column_rebuilt_independently(self, heat_sys, design,
                                                      fields, bundle,
                                                      x0_coeffs):
        # V from the recorded Z, u and coefficients, with the window
        # integral taken by np.trapezoid over explicit nodes (cut at t = 0
        # for the rows before t = D), apart from the library's weights
        cfg = sd.SimConfig(dt=1e-3, t_end=0.5, n_modes=10,
                           disturbance="case-study")
        traj = sd.simulate(cfg, heat_sys, design, fields, x0=-2.0,
                           x0_coeffs=x0_coeffs, bundle=bundle)
        p, phi, n0 = design.lyap, design.transition.phi, design.n0
        width = int(round(design.delay / traj.dt))
        quad = np.array([np.vdot(z, p @ z).real for z in traj.z])
        lift = heat_sys.lifting_coeffs[n0:10]
        for i in (0, 1, 37, 99, 100, 101, 163, 250, 499, 500):
            nodes = np.arange(max(i - width, 0), i + 1)
            integral = np.trapezoid(phi(traj.t[nodes]) * quad[nodes],
                                    traj.t[nodes])
            j = i - width
            if j >= 0:
                delayed = float(phi(traj.t[i] - design.delay)) * quad[j]
                u_del = traj.u[j]
            else:
                delayed, u_del = 0.0, np.zeros(traj.u.shape[1])
            tail = traj.coeffs[i, n0:] - lift @ u_del
            expected = (bundle.gamma1 * (quad[i] + integral)
                        + bundle.gamma2 * delayed
                        + 0.5 * float(np.sum(np.abs(tail) ** 2)))
            assert traj.V[i] == pytest.approx(expected, rel=1e-9), i

        strided = sd.simulate(dataclasses.replace(cfg, record_stride=7),
                              heat_sys, design, fields, x0=-2.0,
                              x0_coeffs=x0_coeffs, bundle=bundle)
        shared = np.rint(strided.t / traj.dt).astype(int)
        assert shared[-1] == 500
        np.testing.assert_allclose(strided.V, traj.V[shared], rtol=1e-14,
                                   atol=0.0)

    @pytest.mark.parametrize("stride", [20, 7])
    def test_record_stride(self, heat_sys, design, fields, stride):
        cfg = sd.SimConfig(dt=1e-3, t_end=0.1, n_modes=10,
                           disturbance="none", record_stride=stride)
        traj = sd.simulate(cfg, heat_sys, design, fields, x0=1.0,
                           x0_coeffs=np.ones(10))
        # the recorded rows are those of the run that records every row:
        # every stride-th of the 100 steps, and the last one, which stride
        # 7 does not reach, appended
        full = sd.simulate(dataclasses.replace(cfg, record_stride=1),
                           heat_sys, design, fields, x0=1.0,
                           x0_coeffs=np.ones(10))
        rows = np.append(np.arange(0, 100, stride), 100)
        for name in ("t", "x", "coeffs", "u", "z", "norm_x"):
            np.testing.assert_array_equal(getattr(traj, name),
                                          getattr(full, name)[rows], name)

    def test_disturbance_evaluated_once_per_stage_time(self, heat_sys,
                                                        design, fields):
        # v at the 51 grid times and the 50 half steps, norm_d included
        times = []
        cfg = sd.SimConfig(dt=1e-3, t_end=0.05, n_modes=10,
                           disturbance=lambda t: times.append(t) or 0.5)
        sd.simulate(cfg, heat_sys, design, fields, x0=1.0,
                    x0_coeffs=np.ones(10))
        assert len(times) == 101
        np.testing.assert_allclose(sorted(times), np.arange(101) * 5e-4,
                                   rtol=0.0, atol=1e-15)

    def test_named_disturbance_matches_its_callable(self, heat_sys, design,
                                                     fields, x0_coeffs):
        # "case-study" calls case_study_disturbance once on the array of
        # half-step times, a callable once per time.  Both are np.sin of the
        # same doubles, on an array or on one value, so over the case
        # study's 20 001 times they agree to a few ulps (bitwise with numpy
        # 2.4 on x86-64 with AVX-512), and two runs that differ only in the
        # selector to 1e-13 of each array's largest entry
        dt, n_steps = 1e-3, 10000
        ref = [sd.case_study_disturbance(k // 2 * dt + k % 2 * (dt / 2))
               for k in range(2 * n_steps + 1)]
        np.testing.assert_array_max_ulp(
            _half_step_v(sd.SimConfig(dt=dt), n_steps), np.array(ref), 4)
        runs = [sd.simulate(sd.SimConfig(dt=dt, t_end=0.3, n_modes=10,
                                         disturbance=v), heat_sys, design,
                            fields, x0=-2.0, x0_coeffs=x0_coeffs)
                for v in ("case-study", sd.case_study_disturbance)]
        for name in ("x", "coeffs", "u", "z", "norm_x", "norm_d"):
            ref = getattr(runs[1], name)
            assert np.abs(getattr(runs[0], name) - ref).max() \
                <= 1e-13 * np.abs(ref).max(), name

    def test_empty_horizon(self, heat_sys, design, fields, tmp_path):
        cfg = sd.SimConfig(dt=1e-3, t_end=0.0, n_modes=10)
        traj = sd.simulate(cfg, heat_sys, design, fields, x0=1.0,
                           x0_coeffs=np.ones(10))
        assert len(traj) == 0
        sd.write_csv(traj, tmp_path / "empty.csv")
        assert (tmp_path / "empty.csv").read_text() == ",".join(
            ["t", "x", "normX", "V", "u1", "u2", "normd"]
            + [f"c{k}" for k in range(1, 11)]) + "\n"

    def test_parameter_validation(self, heat_sys, design, fields):
        with pytest.raises(InvalidParameterError, match="n_modes"):
            sd.simulate(sd.SimConfig(n_modes=1), heat_sys, design, fields,
                        x0=0.0, x0_coeffs=np.zeros(1))
        with pytest.raises(InvalidParameterError, match="dt"):
            sd.simulate(sd.SimConfig(dt=0.1, n_modes=10), heat_sys, design,
                        fields, x0=0.0, x0_coeffs=np.zeros(10))
        with pytest.raises(InvalidParameterError, match="fields cover"):
            sd.simulate(sd.SimConfig(n_modes=10), heat_sys, design,
                        zero_gain_fields(3, domain_length=L),
                        x0=0.0, x0_coeffs=np.zeros(10))
        with pytest.raises(InvalidParameterError, match="x0_coeffs"):
            sd.simulate(sd.SimConfig(n_modes=10), heat_sys, design, fields,
                        x0=0.0, x0_coeffs=np.zeros(4))
        # a non-finite initial state is an input error, not a divergence
        nan_coeff = np.zeros(10)
        nan_coeff[3] = np.nan
        for f, x0, c0 in ((fields, np.inf, np.zeros(10)),
                          (None, np.nan, np.zeros(10)),
                          (fields, 0.0, nan_coeff), (None, 0.0, nan_coeff)):
            with pytest.raises(InvalidParameterError, match="finite"):
                sd.simulate(sd.SimConfig(n_modes=10), heat_sys, design, f,
                            x0=x0, x0_coeffs=c0)

    def test_certificate_needs_lyapunov(self, heat_sys, fields, bundle):
        des0 = sd.zero_gain_design(heat_sys, n0=2, delay=0.1, t0=0.2)
        with pytest.raises(InvalidParameterError, match="Lyapunov"):
            sd.simulate(sd.SimConfig(n_modes=10), heat_sys, des0, fields,
                        x0=0.0, x0_coeffs=np.zeros(10), bundle=bundle)

    def test_coarse_step_diverges(self, heat_sys, design, fields, x0_coeffs):
        # dt = 0.09 puts the stiffest simulated mode far outside the RK4
        # stability region, which is rejected before the run starts
        cfg = sd.SimConfig(dt=0.09, t_end=40.0, n_modes=10,
                           disturbance="none")
        with pytest.raises(InvalidParameterError, match="RK4"):
            sd.simulate(cfg, heat_sys, design, fields, x0=-2.0,
                        x0_coeffs=x0_coeffs)

    @pytest.mark.parametrize("coupled,real", [
        (False, True), (True, True), (False, False), (True, False)],
        ids=["plant-only", "coupled", "plant-only-complex",
             "coupled-complex"])
    def test_one_step_calls(self, monkeypatch, heat_sys, design, fields,
                            x0_coeffs, coupled, real):
        # one stepper call per block of min(floor(D / dt), 64) = 64 rows on
        # both step kinds; a coupled step takes four scalar arctans, and a
        # plant-only block, one scan per mode, takes none.  The arctan is
        # the one the stepper picks for its dtype: math.atan on the real
        # case study, cmath.atan on a complex-conjugate pair
        if not real:
            heat_sys = synthetic_system(COMPLEX_EIGS)
            design = sd.design_predictor(heat_sys, 2, 0.1, COMPLEX_POLES, 0.2)
            # b1 = b2 = 0 keep x and the recorded coupling term real; the
            # arctan arguments are complex
            fields = sd.CouplingFields(
                **{**COUPLINGS, "b1": 0.0, "b2": 0.0}, domain_length=1.0,
                **dict.fromkeys(("eta1", "eta2", "theta1", "theta2",
                                 "theta3"), np.full(4, 0.5)))
            x0_coeffs = COMPLEX_Y0
        blocks, atans = [], []
        advance, init = _RK4Step.advance, _RK4Step.__init__

        def counted_advance(self, u, a, *args):
            blocks.append(a)
            return advance(self, u, a, *args)

        def counted_init(self, *args):
            init(self, *args)
            if self.coupled:
                atan = self.atan
                assert atan is (math.atan if real else cmath.atan)

                def counted_atan(z):
                    atans.append(z)
                    return atan(z)

                self.atan = counted_atan

        monkeypatch.setattr(_RK4Step, "advance", counted_advance)
        monkeypatch.setattr(_RK4Step, "__init__", counted_init)
        n_steps = 300
        cfg = sd.SimConfig(dt=1e-3, t_end=n_steps * 1e-3,
                           n_modes=x0_coeffs.size)
        traj = sd.simulate(cfg, heat_sys, design, fields if coupled else None,
                           x0=-2.0, x0_coeffs=x0_coeffs)
        assert traj.coeffs.dtype == (float if real else complex)
        assert blocks == list(range(0, n_steps, 64))
        assert len(atans) == (4 * n_steps if coupled else 0)
        assert all(isinstance(z, float if real else complex) for z in atans)

    def test_coupled_case_study_is_second_order(self, heat_sys, design,
                                                fields, x0_coeffs):
        # Richardson check against a dt = 1.25e-4 run on the common 4e-3
        # grid: the trapezoid window and the 2-point delayed-input
        # interpolation make the loop second order (observed 2.00, 2.02
        # and 2.07 at dt = 2e-3, 1e-3 and 5e-4)
        def run(dt):
            cfg = sd.SimConfig(dt=dt, t_end=2.0, n_modes=10)
            traj = sd.simulate(cfg, heat_sys, design, fields, x0=-2.0,
                               x0_coeffs=x0_coeffs)
            rows = slice(None, None, round(4e-3 / dt))
            return traj.x[rows], traj.coeffs[rows], traj.u[rows]

        ref = run(1.25e-4)
        errors = [max(float(np.abs(got - want).max())
                      for got, want in zip(run(dt), ref))
                  for dt in (4e-3, 2e-3, 1e-3, 5e-4)]
        orders = np.log2(np.array(errors[:-1]) / errors[1:])
        assert (orders >= 1.9).all(), (errors, orders)

    def test_rk4_limit_of_the_fastest_mode(self):
        # 48 modes at dt = 1e-3: dt |lam_48| = 2.8775 > 2.785; the run used
        # to return norm_x = inf without raising
        sys48 = sd.build_heat_system(5.0, 2.5, L, 48)
        des = sd.design_predictor(sys48, 2, 0.1, [-3.0, -3.0], 0.2)
        cfg = sd.SimConfig(dt=1e-3, t_end=5.0, n_modes=48,
                           disturbance="none")
        with pytest.raises(InvalidParameterError, match="RK4"):
            sd.simulate(cfg, sys48, des, None, x0=0.0,
                        x0_coeffs=np.ones(48) / np.arange(1, 49))
        # 47 modes (dt |lam_47| = 2.759) are inside the region
        sd.simulate(sd.SimConfig(dt=1e-3, t_end=0.01, n_modes=47,
                                 disturbance="none"),
                    sys48, des, None, x0=0.0, x0_coeffs=np.ones(47))

    def test_rk4_limit_of_the_scalar_rate(self, heat_sys, design, x0_coeffs):
        # dt a1 = 3 > 2.785: the scalar subsystem used to overflow and raise
        # SimulationDivergedError at t = 1.118
        cfg = sd.SimConfig(dt=1e-3, t_end=2.0, n_modes=10)
        fast = sd.case_study_fields(heat_sys, 10, **{**COUPLINGS, "a1": 3000.0})
        with pytest.raises(InvalidParameterError, match="RK4"):
            sd.simulate(cfg, heat_sys, design, fast, x0=-2.0,
                        x0_coeffs=x0_coeffs)
        # dt a1 = 2.7 is inside the region
        ok = sd.case_study_fields(heat_sys, 10, **{**COUPLINGS, "a1": 2700.0})
        traj = sd.simulate(cfg, heat_sys, design, ok, x0=-2.0,
                           x0_coeffs=x0_coeffs)
        assert np.isfinite(traj.x).all() and abs(traj.x[-1]) < 1.0

    @pytest.mark.parametrize("side", [-1.0, 1.0], ids=["inside", "outside"])
    @pytest.mark.parametrize("coupled", [False, True],
                             ids=["plant-only", "coupled"])
    def test_rk4_limit_boundary(self, heat_sys, design, fields, x0_coeffs,
                                coupled, side):
        # the fastest rate at dt |rate| = 2.7852936 +- 1e-4, the real root
        # of 1 + z/2 + z^2/6 + z^3/24: amplification 1 -+ 1.5e-4, which a
        # bound loosened to 1.001 would let through (at +- 1e-3 it is
        # 1 -+ 1.5e-3).  Plant-only, the fastest rate is lam_10; coupled,
        # it is -a1 at dt = 1e-3
        rate_dt = RK4_LIMIT + side * 1e-4
        if coupled:
            dt = 1e-3
            f = sd.case_study_fields(heat_sys, 10,
                                     **{**COUPLINGS, "a1": rate_dt / dt})
        else:
            dt, f = rate_dt / -heat_sys.eigenvalues[9].real, None
        cfg = sd.SimConfig(dt=dt, t_end=10 * dt, n_modes=10)
        if side > 0:
            with pytest.raises(InvalidParameterError, match="RK4"):
                sd.simulate(cfg, heat_sys, design, f, -2.0, x0_coeffs)
        else:
            traj = sd.simulate(cfg, heat_sys, design, f, -2.0, x0_coeffs)
            assert np.isfinite(traj.norm_x).all()

    def test_complex_plant_matches_closed_loop_ode(self):
        # plant eigenvalues 0.5 +- 2i, -3, -6; closed-loop poles -2 +- i
        sys_ = synthetic_system([0.5 + 2j, 0.5 - 2j, -3.0, -6.0])
        des = sd.design_predictor(sys_, 2, 0.1, [-2 + 1j, -2 - 1j], 0.2)
        y0 = np.array([0.3 - 0.4j, 0.3 + 0.4j])
        cfg = sd.SimConfig(dt=1e-3, t_end=3.0, n_modes=2, disturbance="none")
        traj = sd.simulate(cfg, sys_, des, None, x0=0.0, x0_coeffs=y0)
        tt, ys, us = closed_loop_ode(des, y0, 3.0, 1e-3)
        np.testing.assert_allclose(traj.t, tt, rtol=0.0, atol=1e-12)
        # criterion 04's tolerance
        assert np.abs(traj.coeffs - ys).max() < 1e-3
        assert np.abs(traj.u - us).max() < 1e-3
        assert np.abs(traj.coeffs.imag).max() > 0.1
        assert np.abs(traj.coeffs[-1]).max() < 1e-2 * np.abs(y0).max()

    def test_unstable_plant_diverges(self):
        # an open-loop mode growing like exp(1000 t) overflows within the
        # first second although dt lies inside the RK4 region; the error is
        # the one signal, numpy's overflow warnings stay quiet
        sys_ = synthetic_system([1000.0, -1.0])
        des = sd.zero_gain_design(sys_, n0=1, delay=0.1, t0=0.2)
        cfg = sd.SimConfig(dt=1e-3, t_end=2.0, n_modes=2, disturbance="none")
        with pytest.raises(SimulationDivergedError,
                           match=r"state became non-finite at t = 0\.713$"):
            sd.simulate(cfg, sys_, des, None, x0=0.0,
                        x0_coeffs=np.ones(2))

    def test_unstable_coupled_plant_diverges(self):
        # the same plant through the interconnection, with v and the arctan
        sys_ = synthetic_system([1000.0, -1.0])
        des = sd.zero_gain_design(sys_, n0=1, delay=0.1, t0=0.2)
        f = sd.CouplingFields(**COUPLINGS, domain_length=1.0,
                              eta1=np.ones(2), eta2=np.ones(2),
                              theta1=np.ones(2), theta2=np.ones(2),
                              theta3=np.ones(2))
        cfg = sd.SimConfig(dt=1e-3, t_end=2.0, n_modes=2)
        with pytest.raises(SimulationDivergedError,
                           match=r"state became non-finite at t = 0\.713$"):
            sd.simulate(cfg, sys_, des, f, x0=0.0, x0_coeffs=np.ones(2))

    def test_divergence_names_its_first_row(self):
        # the tail mode (n0 = 1) grows like exp(1000 t) from 1e-100 while
        # the retained mode stays 0, so the first non-finite row lies in
        # the middle of a 64-row block and only in a tail column.  The one
        # check after the loop names it whether it is inside the run or
        # its last row.  A run that stops one row before passes that
        # check: it fails only later, on its recorded norm, which
        # overflows once |c| passes 1.3e154, hundreds of rows before c does
        sys_ = synthetic_system([1000.0, 1000.0])
        des = sd.zero_gain_design(sys_, n0=1, delay=0.1, t0=0.2)

        def run(n_steps):
            cfg = sd.SimConfig(dt=1e-3, t_end=n_steps * 1e-3, n_modes=2,
                               disturbance="none")
            return sd.simulate(cfg, sys_, des, None, x0=0.0,
                               x0_coeffs=np.array([0.0, 1e-100]))

        with pytest.raises(SimulationDivergedError) as err:
            run(2000)
        t_bad = float(str(err.value).rsplit("t = ", 1)[1])
        row = round(t_bad / 1e-3)
        assert row % 64 not in (0, 1)
        with pytest.raises(SimulationDivergedError,
                           match="recorded norms became non-finite") as err:
            run(row - 1)
        assert float(str(err.value).rsplit("t = ", 1)[1]) < t_bad
        with pytest.raises(SimulationDivergedError,
                           match=rf"state became non-finite at t = {t_bad}$"):
            run(row)

    def test_recorded_norm_divergence(self, heat_sys, design, fields, bundle,
                                      x0_coeffs):
        # the state stays finite; V overflows on the first recorded row
        huge = dataclasses.replace(bundle, gamma1=1e308)
        cfg = sd.SimConfig(dt=1e-3, t_end=0.5, n_modes=10,
                           disturbance="case-study")
        with pytest.raises(SimulationDivergedError,
                           match=r"recorded norms .* at t = 0$"):
            sd.simulate(cfg, heat_sys, design, fields, x0=-2.0,
                        x0_coeffs=x0_coeffs, bundle=huge)


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            sd.SimConfig(dt=0.0)
        with pytest.raises(InvalidParameterError):
            sd.SimConfig(t_end=-1.0)
        with pytest.raises(InvalidParameterError):
            sd.SimConfig(n_modes=0)
        with pytest.raises(InvalidParameterError):
            sd.SimConfig(record_stride=0)
        with pytest.raises(InvalidParameterError, match="disturbance"):
            sd.SimConfig(disturbance="sine")

    def test_v_function_selectors(self):
        assert sd.SimConfig(disturbance="none").v_function()(3.0) == 0.0
        v = sd.SimConfig(disturbance="case-study").v_function()
        assert v(0.7) == pytest.approx(math.sin(1.4) * math.sin(3.5))
        custom = sd.SimConfig(disturbance=lambda t: 2.0 * t).v_function()
        assert custom(1.5) == 3.0


class TestDecayFit:
    def test_pure_exponential(self):
        t = np.linspace(0.0, 5.0, 400)
        traj = make_traj(t, 3.0 * np.exp(-2.0 * t))
        rate, amp = sd.decay_fit(traj, t_start=0.0)
        assert rate == pytest.approx(2.0, abs=1e-6)
        assert amp == pytest.approx(3.0, abs=1e-6)

    def test_constant_signal(self):
        t = np.linspace(0.0, 5.0, 100)
        traj = make_traj(t, np.full(100, 4.0))
        rate, amp = sd.decay_fit(traj, t_start=0.0)
        assert abs(rate) <= 1e-9
        assert amp == pytest.approx(4.0, rel=1e-9)

    def test_start_filter(self):
        t = np.linspace(0.0, 5.0, 200)
        y = np.where(t < 2.0, 7.0, 3.0 * np.exp(-2.0 * t))
        rate, _ = sd.decay_fit(make_traj(t, y), t_start=2.0)
        assert rate == pytest.approx(2.0, abs=1e-6)

    def test_needs_ten_samples(self):
        t = np.linspace(0.0, 1.0, 50)
        traj = make_traj(t, np.exp(-t))
        with pytest.raises(InsufficientDataError, match="10"):
            sd.decay_fit(traj, t_start=0.9)

    @pytest.mark.parametrize("t_start", [math.nan, math.inf, "soon"])
    def test_start_must_be_finite(self, t_start):
        # an input error (exit 1), not too few samples
        traj = make_traj(np.linspace(0.0, 1.0, 50), np.ones(50))
        with pytest.raises(InvalidParameterError, match="t_start"):
            sd.decay_fit(traj, t_start=t_start)

    def test_zero_samples_excluded(self):
        t = np.linspace(0.0, 1.0, 50)
        y = np.exp(-t)
        y[::7] = 0.0
        rate, _ = sd.decay_fit(make_traj(t, y), t_start=0.0)
        assert rate == pytest.approx(1.0, abs=1e-9)

    def test_quiet_run_beats_certified_rate(self, quiet_traj, bundle):
        rate, _ = sd.decay_fit(quiet_traj, t_start=1.0)
        assert rate >= bundle.kappa0
        assert 1.5 < rate < 2.1


class TestIssEnvelope:
    def test_disturbance_free_run_inside_envelope(self, dzero_traj, bundle):
        ok, worst = sd.iss_envelope_check(dzero_traj, bundle, d_sup=0.0)
        assert ok
        assert worst <= 1.0 + 1e-9
        assert worst == pytest.approx(FROZEN_DZERO_WORST, rel=1e-6)

    def test_disturbed_run_inside_envelope(self, disturbed_traj, bundle):
        d_sup = float(disturbed_traj.norm_d.max())
        ok, worst = sd.iss_envelope_check(disturbed_traj, bundle, d_sup)
        assert ok
        assert worst == pytest.approx(FROZEN_DISTURBED_WORST, rel=1e-4)

    def test_requires_certificate(self, open_loop_traj, bundle):
        with pytest.raises(InvalidParameterError, match="V"):
            sd.iss_envelope_check(open_loop_traj, bundle, d_sup=0.0)

    def test_requires_post_ramp_samples(self, heat_sys, design, fields,
                                        bundle, x0_coeffs):
        cfg = sd.SimConfig(dt=1e-3, t_end=0.25, n_modes=10,
                           disturbance="none")
        short = sd.simulate(cfg, heat_sys, design, fields, x0=-2.0,
                            x0_coeffs=x0_coeffs, bundle=bundle)
        with pytest.raises(InsufficientDataError):
            sd.iss_envelope_check(short, bundle, d_sup=0.0)

    def test_flags_violation(self, bundle):
        # a flat V profile cannot track the decaying envelope with d = 0
        t = np.linspace(0.0, 4.0, 400)
        traj = make_traj(t, np.ones(400), V=np.ones(400))
        ok, worst = sd.iss_envelope_check(traj, bundle, d_sup=0.0)
        assert not ok
        assert worst > 1.05


def assert_rows_match_format(table):
    """The CSV kernel writes each row of the 2-D table as one format(v,
    ".12g") per value would."""
    fh = io.BytesIO()
    _csv.write_rows(fh, [table])
    assert fh.getvalue().decode().splitlines() == [
        ",".join(format(v, ".12g") for v in row) for row in table.tolist()]


class TestWriteCsv:
    def test_header_and_digits(self, tmp_path):
        t = np.array([0.0, 1e-3])
        traj = make_traj(
            t, [1.0 / 7.0, 1.0 / 7.0], V=[0.25, 0.25],
            x=[math.pi, math.pi],
            coeffs=np.array([[1 / 3, 2 / 3], [1 / 3, 2 / 3]], dtype=complex),
            u=np.full((2, 1), math.e, dtype=complex))
        path = tmp_path / "run.csv"
        sd.write_csv(traj, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x,normX,V,u1,normd,c1,c2"
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[1] == "3.14159265359"
        assert first[2] == "0.142857142857"
        assert first[4] == "2.71828182846"
        assert first[6] == "0.333333333333"
        assert first[7] == "0.666666666667"

    def test_bytes_match_per_value_format(self, tmp_path):
        # the block writer against one format() per value, over more rows
        # than one block, with signed zero, extreme exponents, values at
        # the 12-digit and %g-exponent boundaries, non-finite values, an
        # exact 12th-digit tie at every fixed-notation exponent (rounded
        # half to even, both ways) and integral floats
        # (an odd q times 2^(e - 12) in [10^e, 10^(e + 1)) has 13
        # significant digits, the last a 5)
        ties = [math.ldexp(q, e - 12) for e in range(-4, 12)
                for odd in [int(1.2345 * 10 ** e * 2 ** (12 - e)) | 1]
                for q in (odd, odd + 2)]
        edge = [0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, 5e-324,
                999999999999.0, 999999999999.5, 1e12, 123456789012.4,
                0.000123456789012345, 1e-4, 9.99999999999949e-5,
                -2.5e-5, 1.0 / 3.0, 0.1, 7.0, -123.456,
                math.nan, math.inf, -math.inf,
                # rounding across 1e-4 and across 1e12
                math.nextafter(1e-4, 0.0), 9.999999999999951e-05,
                -9.99999999999995e-05, math.nextafter(1e12, 0.0),
                math.nextafter(999999999999.5, 0.0),
                math.nextafter(999999999999.5, math.inf),
                1.0, -1.0, 10.0, 100.0, 1e11, -42.0, 123456789012.0,
                *ties]
        rng = np.random.default_rng(5)
        rows = 2500
        table = rng.normal(size=(rows, 10)) * 10.0 ** rng.integers(
            -30, 30, size=(rows, 10))
        for j in range(10):
            table[j * 40:j * 40 + len(edge), j] = edge
        table[-len(edge):, 3] = edge
        t = np.arange(rows) * 1e-3
        # values formatted apart also close and open the writer's blocks,
        # so that they are spliced in at a block's last and first offset
        block = _csv._BLOCK_VALUES // 11
        apart = [math.nan, -1e300, math.inf, 2.5e-5, 1e12]
        for k, a in enumerate(range(block, rows, block)):
            t[a] = table[a - 1, 9] = apart[k % len(apart)]
        traj = make_traj(t, table[:, 1], V=table[:, 2], x=table[:, 0],
                         u=table[:, 3:5].astype(complex),
                         norm_d=table[:, 5],
                         coeffs=table[:, 6:10].astype(complex))
        path = tmp_path / "edge.csv"
        sd.write_csv(traj, path)
        lines = ["t,x,normX,V,u1,u2,normd,c1,c2,c3,c4\n"]
        for i in range(rows):
            vals = ([t[i], table[i, 0], table[i, 1], table[i, 2]]
                    + list(table[i, 3:5]) + [table[i, 5]]
                    + list(table[i, 6:10]))
            lines.append(",".join(format(v, ".12g") for v in vals) + "\n")
        assert path.read_bytes() == "".join(lines).encode()

    # every binary exponent, subnormals, +-0, nan and inf; decimals with
    # few digits; and the doubles nearest to a 12th-digit rounding tie
    FLOATS = st.one_of(
        st.floats(width=64),
        st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1100, 1023)),
        st.builds(lambda m, e: m * 10.0 ** e, st.integers(-9999, 9999),
                  st.integers(-9, 13)),
        st.builds(lambda m, e: float(f"{m}5e{e}"),
                  st.integers(10 ** 11, 10 ** 12 - 1), st.integers(-17, 0)))

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(table=hnp.arrays(np.float64, st.tuples(st.integers(1, 30),
                                                  st.integers(1, 6)),
                            elements=FLOATS))
    def test_rows_match_per_value_format(self, table):
        assert_rows_match_format(table)

    def test_exact_when_log10_is_a_decade_off(self, monkeypatch):
        # the kernel takes its decade from log10 but checks the mantissa,
        # so a log10 that is off near a power of ten (by far more than
        # numpy's on any SIMD level) changes no byte
        log10 = np.log10
        for shift in (2e-12, -2e-12):
            monkeypatch.setattr(np, "log10", lambda a: log10(a) + shift)
            assert_rows_match_format(np.array(
                [[10.0 ** k * (1.0 + d) for d in
                  (-6e-12, -3e-12, -1e-16, 0.0, 3e-12, 6e-12)]
                 for k in range(-5, 13)]))

    def test_case_study_header(self, tmp_path, disturbed_traj):
        path = tmp_path / "traj.csv"
        sd.write_csv(disturbed_traj, path)
        with open(path) as fh:
            header = fh.readline().strip()
        assert header == ("t,x,normX,V,u1,u2,normd,"
                          + ",".join(f"c{k}" for k in range(1, 11)))

    def test_round_trip_values(self, tmp_path, heat_sys, design, fields,
                               x0_coeffs):
        cfg = sd.SimConfig(dt=1e-3, t_end=0.05, n_modes=10,
                           disturbance="case-study")
        traj = sd.simulate(cfg, heat_sys, design, fields, x0=-2.0,
                           x0_coeffs=x0_coeffs)
        path = tmp_path / "short.csv"
        sd.write_csv(traj, path)
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape == (len(traj), 4 + 2 + 1 + 10)
        np.testing.assert_allclose(data[:, 0], traj.t, rtol=1e-11)
        np.testing.assert_allclose(data[:, 2], traj.norm_x, rtol=1e-11)
        np.testing.assert_allclose(data[:, 7:], traj.coeffs.real,
                                   rtol=1e-11, atol=1e-300)

    def test_empty_trajectory_writes_header_only(self, tmp_path, heat_sys,
                                                 design, fields):
        cfg = sd.SimConfig(dt=1e-3, t_end=0.0, n_modes=10)
        traj = sd.simulate(cfg, heat_sys, design, fields, x0=0.0,
                           x0_coeffs=np.zeros(10))
        path = tmp_path / "empty.csv"
        sd.write_csv(traj, path)
        content = path.read_text()
        assert content.count("\n") == 1
        assert content.startswith("t,x,normX,V,")
