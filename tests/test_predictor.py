"""Gain synthesis, transition ramp, Artstein transform and its inversion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdcontrol as sd
from sdcontrol.errors import InvalidParameterError, SynthesisFailureError
from sdcontrol.predictor import _lagged
from conftest import closed_loop_ode, random_design


def scalar_design(a=0.0, b=1.0, k=0.7, delay=0.25, t0=0.2):
    av = np.array([[a]], dtype=complex)
    exp_da = sd.diagonal_exponential(av, -delay)
    gain = np.array([[k]], dtype=complex)
    return sd.PredictorDesign(
        delay=delay, n0=1, a_n0=av, b_n0=np.array([[b]], dtype=complex),
        exp_da=exp_da, gain=gain,
        a_cl=av + exp_da * b * k, lyap=None, desired_poles=None,
        transition=sd.TransitionSignal(t0))


class TestDiagonalExponential:
    def test_case_study_entries(self):
        a = np.diag([1.25, -2.5]).astype(complex)
        out = sd.diagonal_exponential(a, -0.1)
        np.testing.assert_allclose(np.diag(out),
                                   [np.exp(-0.125), np.exp(0.25)], rtol=1e-12)

    def test_zero_is_identity(self):
        a = np.diag([3.0, -7.0, 0.5]).astype(complex)
        np.testing.assert_array_equal(sd.diagonal_exponential(a, 0.0),
                                      np.eye(3, dtype=complex))

    def test_euler_identity(self):
        a = np.array([[1j * np.pi]])
        out = sd.diagonal_exponential(a, 1.0)
        assert out[0, 0] == pytest.approx(-1.0, abs=1e-12)

    def test_offdiagonal_rejected(self):
        with pytest.raises(InvalidParameterError):
            sd.diagonal_exponential(np.array([[1.0, 0.1], [0.0, 2.0]]), 1.0)


class TestTransition:
    def test_midpoint(self):
        sig = sd.TransitionSignal(0.2)
        phi, _ = sd.transition_value(sig, 0.1)
        assert phi == pytest.approx(0.5, abs=1e-12)

    def test_before_start(self):
        sig = sd.TransitionSignal(0.2)
        assert sd.transition_value(sig, -1.0) == (0.0, 0.0)

    def test_at_transition_end(self):
        sig = sd.TransitionSignal(0.2)
        phi, dphi = sd.transition_value(sig, 0.2)
        assert phi == 1.0
        assert dphi == 0.0
        # left limit of the second derivative, extrapolated to h = 0 from
        # one-sided difference quotients of the slope; the quotient is a
        # cubic in h, so four nodes reproduce the limit exactly
        h = 1e-3
        est = []
        for j in (1, 2, 3, 4):
            _, dm = sd.transition_value(sig, 0.2 - j * h)
            est.append((dphi - dm) / (j * h))
        second = 4 * est[0] - 6 * est[1] + 4 * est[2] - est[3]
        assert abs(second) < 1e-6

    def test_monotone_with_bounded_slope(self):
        sig = sd.TransitionSignal(0.4)
        ts = np.linspace(-0.1, 0.6, 401)
        vals = np.array([sd.transition_value(sig, t) for t in ts])
        assert np.all(np.diff(vals[:, 0]) >= -1e-15)
        assert np.all(vals[:, 1] >= 0.0)
        assert vals[:, 1].max() == pytest.approx(15.0 / (8.0 * 0.4), rel=1e-4)

    def test_invalid_t0(self):
        with pytest.raises(InvalidParameterError):
            sd.TransitionSignal(0.0)


class TestPlacePoles:
    def test_case_study_spectrum(self, heat_sys, design):
        achieved = np.sort_complex(np.linalg.eigvals(design.a_cl))
        np.testing.assert_allclose(achieved, [-3.0, -3.0], atol=1e-6)
        # the gain is rank one by construction
        assert np.linalg.matrix_rank(design.gain, tol=1e-9) == 1

    def test_already_placed_gives_zero_gain(self):
        a = np.diag([-3.0, -4.0]).astype(complex)
        k = sd.place_poles(a, np.eye(2), [-3.0, -4.0])
        np.testing.assert_allclose(k, np.zeros((2, 2)), atol=1e-12)

    def test_scalar_ackermann(self):
        k = sd.place_poles(np.array([[2.0]]), np.array([[1.0]]), [-1.0])
        assert k[0, 0] == pytest.approx(-3.0, abs=1e-12)

    def test_uncontrollable_pair(self):
        a = np.diag([1.0, 2.0]).astype(complex)
        b = np.array([[1.0], [0.0]])
        with pytest.raises(SynthesisFailureError):
            sd.place_poles(a, b, [-1.0, -2.0])

    def test_repeated_plant_eigenvalues(self):
        a = np.diag([1.0, 1.0]).astype(complex)
        b = np.eye(2)
        with pytest.raises(SynthesisFailureError):
            sd.place_poles(a, b, [-1.0, -2.0])

    def test_real_system_needs_conjugate_poles(self):
        a = np.diag([1.0, 2.0]).astype(complex)
        b = np.ones((2, 1))
        with pytest.raises(InvalidParameterError):
            sd.place_poles(a, b, [-1.0 + 1.0j, -2.0])

    def test_complex_conjugate_pair_placed(self):
        a = np.diag([1.0, 2.0]).astype(complex)
        b = np.ones((2, 1))
        k = sd.place_poles(a, b, [-1.0 + 1.0j, -1.0 - 1.0j])
        achieved = np.linalg.eigvals(a + b @ k)
        np.testing.assert_allclose(sorted(achieved.imag), [-1.0, 1.0],
                                   atol=1e-8)

    @given(perm=st.permutations([-3.0, -1.0 + 0.5j, -1.0 - 0.5j]))
    @settings(max_examples=12, deadline=None)
    def test_pole_order_irrelevant(self, perm):
        a = np.diag([0.5, -0.2, -1.0]).astype(complex)
        b = np.ones((3, 1))
        k_ref = sd.place_poles(a, b, [-3.0, -1.0 + 0.5j, -1.0 - 0.5j])
        k = sd.place_poles(a, b, perm)
        np.testing.assert_array_equal(k, k_ref)

    def test_hundred_random_pairs(self):
        rng = np.random.default_rng(1234)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 3))
            lam = rng.uniform(-4.0, 1.5, n)
            while n > 1 and np.abs(np.subtract.outer(lam, lam))[
                    np.triu_indices(n, 1)].min() < 0.1:
                lam = rng.uniform(-4.0, 1.5, n)
            b = rng.uniform(0.4, 2.0, (n, m)) * rng.choice([-1, 1], (n, m))
            poles = np.sort(rng.uniform(-5.0, -0.5, n))
            a = np.diag(lam.astype(complex))
            k = sd.place_poles(a, b, poles)
            achieved = np.sort_complex(np.linalg.eigvals(a + b @ k))
            assert max(abs(achieved - poles)) < 1e-6


class TestLyapunov:
    def test_diagonal_solution(self):
        p = sd.solve_lyapunov(np.diag([-1.0, -2.0]).astype(complex))
        np.testing.assert_allclose(p, np.diag([0.5, 0.25]), atol=1e-12)

    def test_scalar(self):
        p = sd.solve_lyapunov(np.array([[-3.0]], dtype=complex))
        assert p[0, 0] == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_case_study_residual(self, design):
        p = design.lyap
        res = design.a_cl.conj().T @ p + p @ design.a_cl + np.eye(2)
        assert np.linalg.norm(res, "fro") < 1e-9
        assert np.linalg.eigvalsh(p).min() > 0

    def test_non_hurwitz_rejected(self):
        with pytest.raises(InvalidParameterError):
            sd.solve_lyapunov(np.array([[1.0]], dtype=complex))


class TestDesign:
    def test_closed_loop_identity(self, design):
        lhs = design.a_cl
        rhs = design.a_n0 + design.exp_da @ design.b_n0 @ design.gain
        np.testing.assert_array_equal(lhs, rhs)

    def test_lyapunov_extremes_ordered(self, design):
        assert 0 < design.lam_min_p <= design.lam_max_p

    def test_wrong_pole_count(self, heat_sys):
        with pytest.raises(InvalidParameterError):
            sd.design_predictor(heat_sys, n0=2, delay=0.1, poles=[-3.0],
                                t0=0.2)

    def test_zero_gain_design(self, heat_sys):
        des = sd.zero_gain_design(heat_sys, n0=2, delay=0.1, t0=0.2)
        np.testing.assert_array_equal(des.gain, np.zeros((2, 2)))
        assert des.lyap is None

    def test_random_designs_satisfy_invariants(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            des = random_design(rng)
            res = des.a_cl.conj().T @ des.lyap + des.lyap @ des.a_cl \
                + np.eye(des.n0)
            assert np.linalg.norm(res, "fro") < 1e-9
            assert np.linalg.eigvalsh(des.lyap).min() > 0
            achieved = np.sort_complex(np.linalg.eigvals(des.a_cl))
            assert max(abs(achieved - des.desired_poles)) < 1e-6


class TestArtsteinState:
    def test_zero_history_returns_state(self, design):
        hist = np.zeros((201, 2))
        y = np.array([0.3, -0.7])
        np.testing.assert_allclose(
            sd.artstein_state(design, y, hist, 1e-3), y, atol=1e-15)

    def test_constant_input_integrator(self):
        des = scalar_design(a=0.0, b=1.0, k=0.0, delay=0.1)
        hist = np.full((201, 1), 2.5)
        z = sd.artstein_state(des, np.array([1.0]), hist, 1e-3)
        assert z[0].real == pytest.approx(1.0 + 2.5 * 0.1, rel=1e-10)

    def test_constant_input_closed_form(self):
        a, c, D = 1.5, 0.8, 0.1
        des = scalar_design(a=a, b=1.0, k=0.0, delay=D)
        dt = 2.5e-4
        n = int(round(0.2 / dt))
        hist = np.full((n + 1, 1), c)
        z = sd.artstein_state(des, np.array([0.0]), hist, dt)
        exact = c * np.exp(-a * D) * (np.exp(a * D) - 1.0) / a
        assert z[0].real == pytest.approx(exact, abs=1e-8)

    def test_partial_panel_closed_form(self):
        # D / dt = 40.4: the window ends in a partial panel whose value is
        # interpolated; a linear input makes the trapezoid rule exact
        des = scalar_design(a=0.0, b=1.0, k=0.0, delay=0.101)
        dt = 2.5e-3
        tt = np.arange(121) * dt
        z = sd.artstein_state(des, np.array([0.0]), tt[:, None], dt)
        t = tt[-1]
        exact = (t ** 2 - (t - 0.101) ** 2) / 2.0
        assert z[0].real == pytest.approx(exact, rel=1e-12)

    def test_window_before_origin_starts_at_zero(self):
        # a window reaching back past t = 0 integrates the input from 0 on
        des = scalar_design(a=0.0, b=1.0, k=0.0, delay=0.1)
        hist = np.full((41, 1), 2.0)
        z = sd.artstein_state(des, np.array([0.0]), hist, 1e-3)
        assert z[0].real == pytest.approx(2.0 * 0.04, rel=1e-12)

    def test_lag_before_origin_reads_zeros(self):
        # every lagged time lies before t = 0, so every value is zero
        hist = np.arange(1.0, 301.0)[:, None] * np.array([1.0, -2.0])
        rows = np.array([0, 3, 17, 39])
        np.testing.assert_array_equal(_lagged(hist, rows, 40.25),
                                      np.zeros((4, 2)))
        np.testing.assert_array_equal(_lagged(hist, np.array([40]), 40.25),
                                      [0.75 * hist[0]])

    def test_input_width_checked(self, design):
        with pytest.raises(InvalidParameterError, match="columns"):
            sd.artstein_state(design, np.zeros(2), np.zeros((5, 3)), 1e-3)

    def test_zero_delay_identity(self):
        des = scalar_design(a=1.0, b=1.0, k=0.4, delay=0.0)
        y = np.array([2.0])
        np.testing.assert_array_equal(
            sd.artstein_state(des, y, np.array([[5.0]]), 1e-3), y)


class TestControlInput:
    def test_zero_ramp(self, design):
        np.testing.assert_array_equal(
            sd.control_input(design, 0.0, np.array([1.0, 2.0])), np.zeros(2))

    def test_zero_state(self, design):
        np.testing.assert_array_equal(
            sd.control_input(design, 1.0, np.zeros(2)), np.zeros(2))

    def test_unit_state_gives_gain_column(self, design):
        u = sd.control_input(design, 1.0, np.array([1.0, 0.0]))
        np.testing.assert_allclose(u, design.gain[:, 0], atol=1e-15)

    def test_ramp_range_enforced(self, design):
        with pytest.raises(InvalidParameterError):
            sd.control_input(design, 1.5, np.zeros(2))


class TestInversion:
    def test_zero_gain_collapses(self):
        des = scalar_design(k=0.0)
        tt = np.arange(0.0, 0.5, 1e-3)
        y = np.random.default_rng(0).normal(size=(tt.size, 1))
        u = sd.invert_artstein(des, tt, y.astype(complex))
        np.testing.assert_array_equal(u, np.zeros_like(u))

    def test_zero_ramp_collapses(self):
        des = scalar_design(k=0.9)
        tt = np.arange(0.0, 0.5, 1e-3)
        y = np.ones((tt.size, 1), dtype=complex)
        u = sd.invert_artstein(des, tt, y, phi=lambda t: np.zeros_like(t))
        np.testing.assert_array_equal(u, np.zeros_like(u))

    def test_scalar_closed_form(self):
        k, g, D = 0.7, 1.3, 0.25
        des = scalar_design(a=0.0, b=1.0, k=k, delay=D)
        tt = np.arange(0.0, D + 1e-12, 1e-3)
        y = np.full((tt.size, 1), g, dtype=complex)
        u = sd.invert_artstein(des, tt, y, phi=lambda t: np.ones_like(t))
        exact = k * g * np.exp(k * tt)
        assert np.abs(u[:, 0] - exact).max() < 1e-6

    def test_round_trip_case_study(self, design):
        tt, ys, us = closed_loop_ode(design, [1.0, -0.5], t_end=1.0, dt=1e-3)
        rec = sd.invert_artstein(design, tt, ys)
        assert np.abs(rec - us).max() < 1e-4

    def test_round_trip_random_systems(self):
        rng = np.random.default_rng(5)
        for _ in range(3):
            des = random_design(rng)
            y0 = rng.uniform(-1, 1, des.n0)
            tt, ys, us = closed_loop_ode(des, y0, des.delay + 0.4, 1e-3)
            rec = sd.invert_artstein(des, tt, ys)
            assert np.abs(rec - us).max() < 1e-4

    def test_callable_state_path(self):
        des = scalar_design(k=0.3, delay=0.1)
        tt = np.arange(0.0, 0.1, 1e-3)
        u_fn = sd.invert_artstein(des, tt, lambda t: np.array([1.0]),
                                  phi=lambda t: np.ones_like(t))
        u_arr = sd.invert_artstein(des, tt, np.ones((tt.size, 1)),
                                   phi=lambda t: np.ones_like(t))
        np.testing.assert_allclose(u_fn, u_arr, atol=1e-14)

    def test_bad_grids_rejected(self, design):
        with pytest.raises(InvalidParameterError):
            sd.invert_artstein(design, np.array([0.0, 0.1, 0.15]),
                               np.zeros((3, 2)))
        with pytest.raises(InvalidParameterError):
            sd.invert_artstein(design, np.array([0.5, 0.6]),
                               np.zeros((2, 2)))
        with pytest.raises(InvalidParameterError):
            sd.invert_artstein(design, np.array([0.0, 0.1]),
                               np.zeros((3, 2)))


class TestPredictorDecoupling:
    def test_finite_difference_matches_closed_loop_matrix(self, design,
                                                          dzero_traj):
        traj = dzero_traj
        sel = np.where(traj.t >= 0.3 + 2 * traj.dt)[0]
        sel = sel[sel < traj.t.size - 1][::50]
        scale = np.abs(traj.z[sel]).max()
        for i in sel:
            zdot = (traj.z[i + 1] - traj.z[i - 1]) / (2 * traj.dt)
            resid = zdot - design.a_cl @ traj.z[i]
            assert np.abs(resid).max() < 5e-3 * max(scale, 1e-12)
