"""Gain synthesis, transition ramp, Artstein transform and its inversion."""

import gc
import math
import sys
import threading
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdcontrol as sd
from sdcontrol import predictor, spectral
from sdcontrol.errors import InvalidParameterError, SynthesisFailureError
from sdcontrol.predictor import (_history_pad, _lagged, _ones_from,
                                 _RowSolver, _window_weights)
from sdcontrol.simulate import _RK4Step
from conftest import closed_loop_ode, random_design, synthetic_system


def scalar_design(a=0.0, b=1.0, k=0.7, delay=0.25, t0=0.2):
    return sd.PredictorDesign(
        eigenvalues=np.array([a]), b_n0=np.array([[b]], dtype=complex),
        delay=delay, gain=np.array([[k]], dtype=complex),
        transition=sd.TransitionSignal(t0))


class TestTransition:
    def test_midpoint(self):
        sig = sd.TransitionSignal(0.2)
        assert sig.phi(0.1) == pytest.approx(0.5, abs=1e-12)

    def test_before_start(self):
        sig = sd.TransitionSignal(0.2)
        assert float(sig.phi(-1.0)) == 0.0
        assert float(sig.phi(-1.0 + 1e-3) - sig.phi(-1.0 - 1e-3)) == 0.0

    def test_at_transition_end(self):
        sig = sd.TransitionSignal(0.2)
        assert float(sig.phi(0.2)) == 1.0
        assert float(sig.phi(0.2 + 1e-3)) == 1.0
        # left limits of the slope and of the second derivative,
        # extrapolated to h = 0 from one-sided difference quotients:
        # 1 - phi(t0 - h) is a quintic in h without constant term, so the
        # slope quotient is a quartic (five nodes reproduce its limit
        # exactly) and, the slope being 0, the second-derivative quotient a
        # cubic (four nodes)
        h = 1e-3 * np.arange(1, 6)
        drop = 1.0 - sig.phi(0.2 - h)
        dphi = np.array([5, -10, 10, -5, 1]) @ (drop / h)
        second = np.array([4, -6, 4, -1]) @ (-2.0 * drop[:4] / h[:4] ** 2)
        assert abs(dphi) < 1e-9
        assert abs(second) < 1e-6

    def test_monotone_with_bounded_slope(self):
        sig = sd.TransitionSignal(0.4)
        ts = np.linspace(-0.1, 0.6, 401)
        # central differences, exact to h^2 / 6 times the third derivative
        h = 1e-4
        phi = sig.phi(ts)
        dphi = (sig.phi(ts + h) - sig.phi(ts - h)) / (2 * h)
        assert np.all(np.diff(phi) >= -1e-15)
        assert np.all(dphi >= 0.0)
        assert dphi.max() == pytest.approx(15.0 / (8.0 * 0.4), rel=1e-4)

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
        k = sd.place_poles(np.array([-3.0, -4.0]), np.eye(2), [-3.0, -4.0])
        np.testing.assert_allclose(k, np.zeros((2, 2)), atol=1e-12)

    def test_scalar_ackermann(self):
        k = sd.place_poles(np.array([2.0]), np.array([[1.0]]), [-1.0])
        assert k[0, 0] == pytest.approx(-3.0, abs=1e-12)

    def test_overflowing_poles_fail_synthesis(self, heat_sys):
        # the Ackermann gain overflows; no numpy warning or LinAlgError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SynthesisFailureError, match="not finite"):
                sd.design_predictor(heat_sys, 2, 0.1, (-1e308, -1e308), 0.2)
        # non-finite poles are an input error, not a synthesis failure
        for poles in ([np.nan, -3.0], [-3.0 + np.inf * 1j, -3.0 - np.inf * 1j]):
            with pytest.raises(InvalidParameterError, match="finite"):
                sd.design_predictor(heat_sys, 2, 0.1, poles, 0.2)

    def test_uncontrollable_pair(self):
        b = np.array([[1.0], [0.0]])
        with pytest.raises(SynthesisFailureError):
            sd.place_poles(np.array([1.0, 2.0]), b, [-1.0, -2.0])

    def test_repeated_plant_eigenvalues(self):
        with pytest.raises(SynthesisFailureError):
            sd.place_poles(np.array([1.0, 1.0]), np.eye(2), [-1.0, -2.0])

    def test_real_system_needs_conjugate_poles(self):
        with pytest.raises(InvalidParameterError):
            sd.place_poles(np.array([1.0, 2.0]), np.ones((2, 1)),
                           [-1.0 + 1.0j, -2.0])

    def test_complex_conjugate_pair_placed(self):
        lam, b = np.array([1.0, 2.0]), np.ones((2, 1))
        k = sd.place_poles(lam, b, [-1.0 + 1.0j, -1.0 - 1.0j])
        achieved = np.linalg.eigvals(np.diag(lam) + b @ k)
        np.testing.assert_allclose(sorted(achieved.imag), [-1.0, 1.0],
                                   atol=1e-8)

    @given(perm=st.permutations([-3.0, -1.0 + 0.5j, -1.0 - 0.5j]))
    @settings(max_examples=12, deadline=None)
    def test_pole_order_irrelevant(self, perm):
        lam, b = np.array([0.5, -0.2, -1.0]), np.ones((3, 1))
        k_ref = sd.place_poles(lam, b, [-3.0, -1.0 + 0.5j, -1.0 - 0.5j])
        k = sd.place_poles(lam, b, perm)
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
            k = sd.place_poles(lam, b, poles)
            achieved = np.sort_complex(np.linalg.eigvals(np.diag(lam) + b @ k))
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

    def test_conditioning_floor(self):
        # A = diag(-1, -e) gives P = diag(1/2, 1/(2 e)): cond(P) = 1e9
        # builds, and 1e10 is above the floor 1/(1e6 eps) ~ 4.5e9
        p = sd.solve_lyapunov(np.diag([-1.0, -1e-9]).astype(complex))
        np.testing.assert_allclose(p, np.diag([0.5, 5e8]), rtol=1e-12)
        with pytest.raises(SynthesisFailureError, match=r"cond\(P\) = 1e\+10"):
            sd.solve_lyapunov(np.diag([-1.0, -1e-10]).astype(complex))


class TestDesign:
    def test_closed_loop_identity(self, design):
        lam, delay = design.eigenvalues, design.delay
        rhs = np.diag(lam) + np.diag(np.exp(-delay * lam)) @ design.b_n0 \
            @ design.gain
        np.testing.assert_allclose(design.a_cl, rhs, rtol=1e-14, atol=1e-14)

    def test_inputs_checked(self):
        good = dict(eigenvalues=np.array([1.0, 2.0]), b_n0=np.ones((2, 1)),
                    delay=0.1, gain=np.ones((1, 2)),
                    transition=sd.TransitionSignal(0.2))
        assert sd.PredictorDesign(**good).n0 == 2
        for bad in ({"eigenvalues": np.ones((2, 2))},
                    {"eigenvalues": np.array([1.0])},
                    {"b_n0": np.ones((3, 1))}, {"b_n0": np.ones(2)},
                    {"gain": np.ones((2, 2))}, {"gain": np.ones(2)},
                    {"delay": -0.1}, {"delay": np.nan}, {"delay": np.inf}):
            with pytest.raises(InvalidParameterError):
                sd.PredictorDesign(**{**good, **bad})
        # a gain numpy cannot convert is named, not numpy's ValueError
        for gain in ("x", [[object(), 1.0]]):
            with pytest.raises(InvalidParameterError, match="gain"):
                sd.PredictorDesign(**{**good, "gain": gain})
        # the closed loop and P are derived, never passed in
        for name in ("a_cl", "lyap"):
            with pytest.raises(TypeError):
                sd.PredictorDesign(**good, **{name: np.eye(2)})

    def test_inputs_frozen_once(self, heat_sys, monkeypatch):
        # place_poles checks lam and b and hands them to the unchecked PBH
        # core, and the design hands its checked A_cl to the unchecked
        # Lyapunov core: lam, poles and b there, eigenvalues, b_n0 and P in
        # the design
        calls = []
        real = spectral._frozen_array

        def counted(value, what, *args):
            calls.append(what)
            return real(value, what, *args)

        for module in (spectral, predictor):
            monkeypatch.setattr(module, "_frozen_array", counted)
        sd.design_predictor(heat_sys, 2, 0.1, [-3.0, -3.5], 0.2)
        assert sorted(calls) == sorted(
            ["lam", "poles", "b", "eigenvalues", "b_n0", "P"])

    @pytest.mark.parametrize("build", [
        lambda sys_, d: sd.design_predictor(sys_, 2, d, [-3.0, -3.0], 0.2),
        lambda sys_, d: sd.zero_gain_design(sys_, 2, d, 0.2)],
        ids=["design_predictor", "zero_gain_design"])
    def test_overflowing_delay_rejected(self, heat_sys, build):
        # exp(-D lam) overflows at D = 400 for the mode lam = -2.5; numpy's
        # LinAlgError used to escape from eigvals.  RuntimeWarnings are
        # errors here, so the check must also stay quiet
        with pytest.raises(InvalidParameterError, match="D = 400"):
            build(heat_sys, 400.0)
        # exp(2.5 * 280) = exp(700) is still finite
        assert sd.zero_gain_design(heat_sys, 2, 280.0, 0.2).delay == 280.0

    def test_arrays_are_read_only_copies(self, heat_sys):
        # the derived A_cl and P as well: a write to one of them would
        # leave it inconsistent with the gain
        des = sd.design_predictor(heat_sys, 2, 0.1, [-3.0, -3.0], 0.2)
        for name in ("eigenvalues", "b_n0", "gain", "a_cl", "lyap"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(des, name)[...] = 0.0
        # the inputs are copied: a later write to them leaves the design,
        # and so A_cl and P, as built
        gain = np.array(des.gain)
        copy = sd.PredictorDesign(des.eigenvalues, des.b_n0, des.delay, gain,
                                  des.transition)
        gain[...] = 0.0
        np.testing.assert_array_equal(copy.gain, des.gain)
        np.testing.assert_array_equal(copy.a_cl, des.a_cl)

    @pytest.mark.parametrize("delay, sgc", [
        (2.5, 8.9e14), (2.6, 4.1e15), (3.0, 1.9e18)])
    def test_long_delays_build(self, heat_sys, delay, sgc):
        # exp(-D A) B has rows e^{-1.25 D} and e^{2.5 D} times B's.  Placing
        # on that pair, with an absolute Lyapunov residual bound of 1e-9,
        # failed from D ~ 2.7 on the residual (3.6e-9 at D = 3, against a
        # relative bound of 1.08) and from D ~ 5.35 as "not controllable"
        des = sd.design_predictor(heat_sys, 2, delay, [-3.0, -3.0], 0.2)
        lam = des.eigenvalues
        np.testing.assert_array_equal(
            des.gain, sd.place_poles(lam, des.b_n0, [-3.0, -3.0])
            * np.exp(delay * lam))
        np.testing.assert_allclose(np.linalg.eigvals(des.a_cl).real,
                                   [-3.0, -3.0], atol=1e-6)
        bundle = sd.optimize_parameters(heat_sys, des)
        assert bundle.small_gain_constant == pytest.approx(sgc, rel=0.05)

    @pytest.mark.parametrize("delay, error, words", [
        # cond(P) ~ 1.6e18 at D = 6 is beyond what eigvalsh resolves
        (4.25, SynthesisFailureError, r"delay D = 4.25: .*cond\(P\) = 3\.1"),
        (6.0, SynthesisFailureError, r"delay D = 6.0: .*cond\(P\) = "),
        (200.0, InvalidParameterError, r"delay D = 200.0 is too long")])
    def test_long_delays_fail_by_name(self, heat_sys, delay, error, words):
        with pytest.raises(error, match=words) as info:
            sd.design_predictor(heat_sys, 2, delay, [-3.0, -3.0], 0.2)
        assert "not controllable" not in str(info.value)

    def test_random_designs_place_on_the_delay_free_pair(self):
        # spec(A + exp(-D A) B K0 exp(D A)) = spec(A + B K0): the delay
        # scales the gain and never enters the placement, and rescaling the
        # rows of B by exp(-D lam) changes no controllability decision
        rng = np.random.default_rng(2026)
        outcomes = set()
        for trial in range(60):
            delay = float(rng.uniform(0.05, 2.0))
            des, poles = random_design(rng, delay=delay)
            lam, b = des.eigenvalues, np.array(des.b_n0)
            k = sd.place_poles(lam, b, poles) * np.exp(delay * lam)
            # random_design scales by exp(D lam) on real lam: one ulp apart
            np.testing.assert_allclose(des.gain, k, rtol=1e-15, atol=0.0)
            achieved = np.sort_complex(np.linalg.eigvals(des.a_cl))
            assert max(abs(achieved - poles)) < 1e-6
            if trial % 3 == 0:
                b[trial % des.n0] = 0.0
            order = np.argsort(-lam.real, kind="stable")
            kalman = sd.check_kalman(synthetic_system(lam[order], b[order]),
                                     des.n0)
            assert kalman == (trial % 3 != 0)
            try:
                scaled = sd.place_poles(
                    lam, np.exp(-delay * lam)[:, None] * b, poles)
            except SynthesisFailureError as exc:
                assert not kalman and "not controllable" in str(exc)
            else:
                assert kalman
                assert np.abs(scaled - k).max() <= 1e-8 * np.abs(k).max()
            outcomes.add(kalman)
        assert outcomes == {True, False}

    def test_lyapunov_extremes_ordered(self, bundle):
        # the certificate reads the extreme eigenvalues of P
        assert 0 < bundle.lam_min_P <= bundle.lam_max_P

    @pytest.mark.parametrize("kind", ["zero-gain", "non-hurwitz"])
    def test_lyapunov_extremes_need_a_lyapunov_matrix(self, heat_sys, kind):
        if kind == "zero-gain":
            des = sd.zero_gain_design(heat_sys, n0=2, delay=0.1, t0=0.2)
        else:
            des = sd.design_predictor(heat_sys, n0=2, delay=0.1,
                                      poles=[1.0, 2.0], t0=0.2)
        assert des.lyap is None
        with pytest.raises(InvalidParameterError, match="no Lyapunov"):
            sd.optimize_parameters(heat_sys, des)

    def test_wrong_pole_count(self, heat_sys):
        with pytest.raises(InvalidParameterError):
            sd.design_predictor(heat_sys, n0=2, delay=0.1, poles=[-3.0],
                                t0=0.2)

    def test_zero_gain_design(self, heat_sys):
        des = sd.zero_gain_design(heat_sys, n0=2, delay=0.1, t0=0.2)
        np.testing.assert_array_equal(des.gain, np.zeros((2, 2)))
        assert des.lyap is None
        # P exists exactly when A_cl is Hurwitz, as for a zero gain on a
        # stable block, where A_cl = A = diag(-3, -4)
        des = sd.zero_gain_design(synthetic_system([-3.0, -4.0]), n0=2,
                                  delay=0.1, t0=0.2)
        np.testing.assert_allclose(des.lyap, np.diag([1 / 6, 1 / 8]),
                                   rtol=1e-12)

    def test_non_hurwitz_poles_give_no_lyapunov_matrix(self, heat_sys):
        des = sd.design_predictor(heat_sys, n0=2, delay=0.1,
                                  poles=[1.0, 2.0], t0=0.2)
        assert des.lyap is None
        np.testing.assert_allclose(np.sort(np.linalg.eigvals(des.a_cl).real),
                                   [1.0, 2.0], atol=1e-6)
        with pytest.raises(InvalidParameterError, match="no Lyapunov"):
            sd.optimize_parameters(heat_sys, des)
        with pytest.raises(InvalidParameterError, match="no Lyapunov"):
            sd.compute_constants(heat_sys, des, 0.4131, 106.3290, 337.1938)

    def test_random_designs_satisfy_invariants(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            des, poles = random_design(rng)
            res = des.a_cl.conj().T @ des.lyap + des.lyap @ des.a_cl \
                + np.eye(des.n0)
            assert np.linalg.norm(res, "fro") < 1e-9
            assert np.linalg.eigvalsh(des.lyap).min() > 0
            achieved = np.sort_complex(np.linalg.eigvals(des.a_cl))
            assert max(abs(achieved - poles)) < 1e-6


def row_weights(des, dt, i):
    """Row i's own window weights, newest row first: the constant table, or
    for a window that reaches past t = 0, the trapezoid on [0, t_i] with
    half weight on both ends, times exp((j dt - D) lam)."""
    lam = des.eigenvalues
    w = _window_weights(lam, des.delay, dt)
    if i >= len(w) - 1:
        return w
    trap = np.full(i + 1, dt)
    trap[[0, -1]] = dt / 2.0 if i else 0.0
    return np.exp(np.outer(np.arange(i + 1) * dt - des.delay, lam)) \
        * trap[:, None]


def window_integral(des, u_history, dt):
    """Z(t) - Y(t) at the newest input row: the window weights of that row
    summed against the newest rows of B u, newest first."""
    w = row_weights(des, dt, len(u_history) - 1)
    g = u_history[::-1][:len(w)] @ des.b_n0.T
    return np.einsum("jn,jn->n", w, g)


class TestArtsteinState:
    def test_zero_history_returns_state(self, design):
        np.testing.assert_array_equal(
            window_integral(design, np.zeros((201, 2)), 1e-3), np.zeros(2))

    def test_constant_input_integrator(self):
        des = scalar_design(a=0.0, b=1.0, k=0.0, delay=0.1)
        hist = np.full((201, 1), 2.5)
        z = window_integral(des, hist, 1e-3)
        assert z[0].real == pytest.approx(2.5 * 0.1, rel=1e-10)

    def test_constant_input_closed_form(self):
        a, c, D = 1.5, 0.8, 0.1
        des = scalar_design(a=a, b=1.0, k=0.0, delay=D)
        dt = 2.5e-4
        n = int(round(0.2 / dt))
        hist = np.full((n + 1, 1), c)
        z = window_integral(des, hist, dt)
        exact = c * np.exp(-a * D) * (np.exp(a * D) - 1.0) / a
        assert z[0].real == pytest.approx(exact, abs=1e-8)

    def test_partial_panel_closed_form(self):
        # D / dt = 40.4: the window ends in a partial panel whose value is
        # interpolated; a linear input makes the trapezoid rule exact
        des = scalar_design(a=0.0, b=1.0, k=0.0, delay=0.101)
        dt = 2.5e-3
        tt = np.arange(121) * dt
        z = window_integral(des, tt[:, None], dt)
        t = tt[-1]
        exact = (t ** 2 - (t - 0.101) ** 2) / 2.0
        assert z[0].real == pytest.approx(exact, rel=1e-12)

    def test_window_before_origin_starts_at_zero(self):
        # a window reaching back past t = 0 integrates the input from 0 on
        des = scalar_design(a=0.0, b=1.0, k=0.0, delay=0.1)
        hist = np.full((41, 1), 2.0)
        z = window_integral(des, hist, 1e-3)
        assert z[0].real == pytest.approx(2.0 * 0.04, rel=1e-12)

    def test_lag_before_origin_reads_zeros(self):
        # every lagged time lies before t = 0, so every value is zero
        hist = np.arange(1.0, 301.0)[:, None] * np.array([1.0, -2.0])
        pad = _history_pad(0.04025, 1e-3)
        padded = np.pad(hist, ((pad, 0), (0, 0)))
        rows = np.array([0, 3, 17, 39])
        np.testing.assert_array_equal(_lagged(padded, pad + rows, 40.25),
                                      np.zeros((4, 2)))
        np.testing.assert_array_equal(
            _lagged(padded, pad + np.array([40]), 40.25), [0.75 * hist[0]])

    def test_zero_delay_identity(self):
        des = scalar_design(a=1.0, b=1.0, k=0.4, delay=0.0)
        np.testing.assert_array_equal(
            window_integral(des, np.array([[5.0]]), 1e-3), [0.0])


def solve_row_200(design, y, phi):
    """(Z, u) of row 200 after 200 zero rows, from the row solver."""
    pad = _history_pad(design.delay, 1e-3)
    hist = np.zeros((pad + 300, design.input_dim), dtype=complex)
    phi = np.array([phi])
    z, u = _RowSolver(design, 1e-3)(
        hist, 199, np.atleast_2d(y), phi, 200 + _ones_from(phi))
    return z[0], u[0]


class TestControlInput:
    """The input u_i = phi_i K Z_i of the row solve."""

    def test_zero_ramp(self, design):
        y = np.array([1.0, 2.0])
        z, u = solve_row_200(design, y, 0.0)
        np.testing.assert_array_equal(z, y)
        np.testing.assert_array_equal(u, np.zeros(2))

    def test_zero_state(self, design):
        z, u = solve_row_200(design, np.zeros(2), 1.0)
        np.testing.assert_array_equal(z, np.zeros(2))
        np.testing.assert_array_equal(u, np.zeros(2))

    def test_unit_state_gives_gain_column(self, design):
        # Y chosen so that the endpoint solve after the ramp returns Z = e1
        e1 = np.array([1.0, 0.0])
        w0 = _window_weights(design.eigenvalues, design.delay, 1e-3)[0]
        y = e1 - w0 * (design.b_n0 @ design.gain[:, 0])
        z, u = solve_row_200(design, y, 1.0)
        np.testing.assert_allclose(z, e1, atol=1e-12)
        np.testing.assert_allclose(u, design.gain[:, 0], atol=1e-12)


class TestInversion:
    def test_zero_gain_collapses(self):
        des = scalar_design(k=0.0)
        tt = np.arange(0.0, 0.5, 1e-3)
        y = np.random.default_rng(0).normal(size=(tt.size, 1))
        u = sd.invert_artstein(des, tt, y.astype(complex))
        np.testing.assert_array_equal(u, np.zeros_like(u))

    @pytest.mark.parametrize("k", [0.0, 0.8], ids=["zero-gain", "real-gain"])
    def test_real_samples_on_a_complex_plant(self, k):
        # a complex plant's row solver is complex even when K is exactly
        # real, so real samples invert in complex, as complex ones do: a
        # float history would drop the rows' imaginary parts with a
        # ComplexWarning
        base = sd.zero_gain_design(
            synthetic_system([0.5 + 2j, 0.5 - 2j, -3.0]), 2, 0.1, 0.2)
        des = sd.PredictorDesign(base.eigenvalues, base.b_n0, base.delay,
                                 np.full((1, 2), k), base.transition)
        tt = np.arange(0.0, 0.5, 1e-3)
        y = np.random.default_rng(1).normal(size=(tt.size, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = sd.invert_artstein(des, tt, y)
        assert u.dtype == complex
        np.testing.assert_array_equal(
            u, sd.invert_artstein(des, tt, y.astype(complex)))
        assert (np.abs(u.imag).max() > 0) == (k != 0)

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
            des, _ = random_design(rng)
            y0 = rng.uniform(-1, 1, des.n0)
            tt, ys, us = closed_loop_ode(des, y0, des.delay + 0.4, 1e-3)
            rec = sd.invert_artstein(des, tt, ys)
            assert np.abs(rec - us).max() < 1e-4

    @pytest.mark.parametrize("phi", [
        lambda t: np.ones((t.size, 1)),
        lambda t: np.ones(t.size - 1),
        lambda t: np.full(t.size, np.nan)], ids=["column", "short", "nan"])
    def test_malformed_ramp_override_rejected(self, design, phi):
        tt = np.arange(0.0, 0.1, 1e-3)
        with pytest.raises(InvalidParameterError):
            sd.invert_artstein(design, tt, np.zeros((tt.size, 2)), phi=phi)

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
        # a non-finite sample
        tt = np.arange(11) * 1e-3
        y = np.zeros((11, 2))
        y[3, 1] = np.nan
        with pytest.raises(InvalidParameterError, match="finite"):
            sd.invert_artstein(design, tt, y)
        # a non-finite time, which the uniformity test alone lets through
        for bad in ([0.0, np.inf, np.inf], [0.0, 1e-3, np.nan]):
            with pytest.raises(InvalidParameterError, match="times"):
                sd.invert_artstein(design, np.array(bad), np.zeros((3, 2)))


def per_row_solve(design, dt, g, i, y_i, phi_i):
    """(Z_i, u_i) from one endpoint solve with row i's own window weights
    over g[:i], the rows' B u; writes g[i].  The row-by-row reference of
    the block solve."""
    w = row_weights(design, dt, i)
    rhs = y_i + np.einsum("jn,jn->n", w[1:], g[:i][::-1][:len(w) - 1])
    wbk = (w[0][:, None] * design.b_n0) @ design.gain
    z = np.linalg.solve(np.eye(design.n0) - phi_i * wbk, rhs)
    u = phi_i * (design.gain @ z)
    g[i] = design.b_n0 @ u
    return z, u


def per_row_inputs(design, dt, y, phi):
    """(Z, u) of every row of the Y path y by per_row_solve."""
    g = np.zeros((len(y), design.n0), dtype=complex)
    rows = [per_row_solve(design, dt, g, i, y[i], phi[i])
            for i in range(len(y))]
    return np.array([z for z, _ in rows]), np.array([u for _, u in rows])


def assert_rel_close(actual, reference):
    scale = np.abs(reference).max()
    assert np.abs(actual - reference).max() <= 1e-13 * scale


def stepwise_run(sys_, des, y0, dt, n_steps):
    """(coeffs, u) of a plant-only run from x = 0 and coefficients y0 as
    one-row blocks, each followed by that row's per_row_solve."""
    n_modes, n0 = y0.size, des.n0
    phi = des.transition.phi(np.arange(n_steps + 1) * dt)
    g = np.zeros((n_steps + 1, n0), dtype=complex)
    rk4 = _RK4Step(sys_, des, None, n_modes, dt, complex)
    u_pad = np.zeros((rk4.pad + n_steps + 1, sys_.input_dim),
                     dtype=complex)
    u = u_pad[rk4.pad:]
    s = np.zeros((n_steps + 1, n_modes + 1), dtype=complex)
    s[0, 1:] = y0
    for i in range(1, n_steps + 1):
        rk4.advance(u_pad, i - 1, None, s[i - 1:i + 1])
        u[i] = per_row_solve(des, dt, g, i, s[i, 1:n0 + 1], phi[i])[1]
    return s[:, 1:], u


class TestBlockSolve:
    """Runs of predictor rows solved at once against the row-by-row solve."""

    @pytest.mark.parametrize("case", [
        "delay-0.0625", "delay-0.1237-coupled", "one-row-blocks", "n0-1",
        "complex-pair", "mismatched-plant"])
    def test_simulate_matches_per_row_solve(self, heat_sys, fields,
                                            x0_coeffs, case):
        # t_end = 1 is 1000 steps: at D = 0.1 the last block of 64 rows has
        # 40, and at D = 0.0625 the last of 62 has 8; the ramp ends inside a
        # block; D = 1.5 dt gives blocks of one row.  The
        # predictor is built from the design's model, so with the plant's
        # diffusivity off (5.2 against 5.0) every window row must still
        # take the design's B
        sys_, n0, delay, poles, f = heat_sys, 2, 0.1, [-3.0, -3.0], None
        y0, plant = x0_coeffs, None
        if case == "delay-0.0625":
            delay = 0.0625
        elif case == "delay-0.1237-coupled":
            delay, f = 0.1237, fields
        elif case == "one-row-blocks":
            delay = 0.0015
        elif case == "n0-1":
            n0, poles = 1, [-3.0]
        elif case == "mismatched-plant":
            plant = sd.build_heat_system(5.2, 2.5, 2 * np.pi, 10)
        else:
            sys_ = synthetic_system([0.5 + 2j, 0.5 - 2j, -3.0, -6.0])
            poles, y0 = [-2 + 1j, -2 - 1j], np.array([0.3 - 0.4j, 0.3 + 0.4j,
                                                     0.1, -0.2])
        des = sd.design_predictor(sys_, n0, delay, poles, 0.2)
        cfg = sd.SimConfig(dt=1e-3, t_end=1.0, n_modes=y0.size)
        traj = sd.simulate(cfg, sys_ if plant is None else plant, des, f,
                           x0=-2.0, x0_coeffs=y0)
        z, u = per_row_inputs(des, 1e-3, traj.coeffs[:, :n0],
                              des.transition.phi(traj.t))
        assert_rel_close(traj.z, z)
        assert_rel_close(traj.u, u)

    @pytest.mark.parametrize("delay,n_modes,reaction,n0", [
        pytest.param(0.0015, 10, 2.5, 2, id="0.0015"),
        pytest.param(0.00205, 10, 2.5, 2, id="0.00205"),
        pytest.param(0.0125, 10, 2.5, 2, id="0.0125"),
        pytest.param(0.0625, 40, 2.5, 2, id="40-modes-0.0625"),
        pytest.param(0.1, 10, 6.0, 1, id="n0-1-two-unstable"),
        pytest.param(0.05, 10, 2.5, 2, id="0.05"),
        pytest.param(0.1237, 10, 2.5, 2, id="0.1237")])
    def test_simulate_matches_stepwise_loop(self, heat_sys, x0_coeffs,
                                            delay, n_modes, reaction, n0):
        # a one-row block and then that row's solve, row after row: the
        # blocks of min(floor(D / dt), 64) steps, each one cumulative sum
        # per mode, must give the same run.  300 steps end in a short
        # block; at 40 modes, and at D = 0.1237 (64-row blocks), the window
        # ends in a partial panel; D = 0.05 gives 50-row blocks; with c = 6
        # and n0 = 1 the second mode grows uncontrolled, so its sum runs
        # with |rho| > 1
        sys_ = heat_sys if (n_modes, reaction) == (10, 2.5) else \
            sd.build_heat_system(5.0, reaction, 2 * np.pi, n_modes)
        y0 = x0_coeffs if n_modes == 10 else \
            np.random.default_rng(5).normal(size=n_modes) / np.arange(
                1, n_modes + 1)
        des = sd.design_predictor(sys_, n0, delay, [-3.0] * n0, 0.2)
        dt, n_steps = 1e-3, 300
        cfg = sd.SimConfig(dt=dt, t_end=n_steps * dt, n_modes=n_modes,
                           disturbance="none")
        traj = sd.simulate(cfg, sys_, des, None, x0=0.0, x0_coeffs=y0)
        coeffs, u = stepwise_run(sys_, des, y0, dt, n_steps)
        assert_rel_close(traj.coeffs, coeffs)
        assert_rel_close(traj.u, u)

    def test_closed_form_near_rk4_root(self):
        # dt lam = -1.72944423 + 0.88897438i lies near a complex root of the
        # RK4 polynomial, so that pair's |rho| is about 1e-8 and rho^-q
        # would overflow within a 64-row block: the block is bounded before
        # any power is taken, and the run is still the one-row-block run
        dt, n_steps = 1e-3, 300
        r = (-1.72944423 + 0.88897438j) / dt
        sys_ = synthetic_system([0.5 + 2j, 0.5 - 2j, -3.0, r, np.conj(r)])
        des = sd.design_predictor(sys_, 2, 0.1, [-2 + 1j, -2 - 1j], 0.2)
        y0 = np.array([0.3 - 0.4j, 0.3 + 0.4j, 0.1, 0.2 + 0.1j, 0.2 - 0.1j])
        assert _RK4Step(sys_, des, None, 5, dt, complex).block < 64
        cfg = sd.SimConfig(dt=dt, t_end=n_steps * dt, n_modes=5,
                           disturbance="none")
        traj = sd.simulate(cfg, sys_, des, None, x0=0.0, x0_coeffs=y0)
        coeffs, u = stepwise_run(sys_, des, y0, dt, n_steps)
        assert_rel_close(traj.coeffs, coeffs)
        assert_rel_close(traj.u, u)

    @pytest.mark.parametrize("delay,phi", [
        (0.1237, "one"), (0.1237, "zero"), (0.1237, "ramp"),
        (0.1237, "wave"), (0.0625, "wave"), (0.0015, "one")])
    def test_inversion_matches_per_row_solve(self, heat_sys, delay, phi):
        # "wave" has phi(0) = 0.9, so row 0 feeds the cut windows, and
        # varies across every block, so each column's scaling counts
        des = sd.design_predictor(heat_sys, 2, delay, [-3.0, -3.0], 0.2)
        tt = np.arange(1001) * 1e-3
        y = np.random.default_rng(11).normal(size=(tt.size, 2))
        phi_fn = {"one": np.ones_like, "zero": np.zeros_like,
                  "ramp": des.transition.phi,
                  "wave": lambda t: 0.5 + 0.4 * np.cos(7.0 * t)}[phi]
        u = sd.invert_artstein(des, tt, y, phi=phi_fn)
        _, u_ref = per_row_inputs(des, 1e-3, y, phi_fn(tt))
        if phi == "zero":
            np.testing.assert_array_equal(u, np.zeros_like(u))
        else:
            assert_rel_close(u, u_ref)

    @pytest.mark.parametrize("delay,ahead", [
        (1.05e-3, 1), (2.05e-3, 2), (0.1, 100)])
    def test_block_steps_read_no_row_of_their_block(self, heat_sys, delay,
                                                    ahead):
        # rows after a are NaN: the ahead steps from rows a .. a + ahead - 1
        # stay finite and the next step, from row a + ahead, reads row a + 1
        des = sd.zero_gain_design(heat_sys, 2, delay, 0.2)
        rk4 = _RK4Step(heat_sys, des, None, 10, 1e-3, complex)
        assert rk4.ahead == ahead
        a, m = 150, heat_sys.input_dim
        rng = np.random.default_rng(3)
        u = np.full((rk4.pad + a + ahead + 2, m), np.nan, dtype=complex)
        u[:rk4.pad + a + 1] = rng.normal(size=(rk4.pad + a + 1, m))
        s = np.zeros((ahead + 2, 11), dtype=complex)
        s[0] = rng.normal(size=11)
        for p in range(ahead + 1):
            rk4.advance(u, a + p, None, s[p:p + 2])
        assert np.isfinite(s[:-1]).all()
        assert not np.isfinite(s[-1]).any()


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


def shared_design(heat_sys, t0=0.2):
    """A design of its own, so that its solver slot starts empty."""
    return sd.design_predictor(heat_sys, 2, 0.1, [-3.0, -3.0], t0)


def plant_run(heat_sys, design, dt=1e-3):
    cfg = sd.SimConfig(dt=dt, t_end=0.5, n_modes=4, disturbance="none")
    return sd.simulate(cfg, heat_sys, design, None, 0.0,
                       [1.0, -0.5, 0.25, 0.125])


class TestSharedSolver:
    """The row solver a design keeps, and the ramp inverses it keeps."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """The dt of every _RowSolver built while the test runs."""
        dts, init = [], _RowSolver.__init__

        def counted(self, design, dt):
            dts.append(dt)
            init(self, design, dt)

        monkeypatch.setattr(_RowSolver, "__init__", counted)
        return dts

    def test_simulate_and_inversion_share_one_build(self, heat_sys, builds):
        des = shared_design(heat_sys)
        cold = plant_run(heat_sys, des)
        sd.invert_artstein(des, cold.t, cold.coeffs[:, :2])
        warm = plant_run(heat_sys, des)
        assert builds == [1e-3]
        for name in ("coeffs", "z", "u"):
            np.testing.assert_array_equal(getattr(warm, name),
                                          getattr(cold, name))

    def test_design_holds_one_solver(self, heat_sys, builds):
        des = shared_design(heat_sys)
        refs = []
        for dt in (1e-3, 2e-3, 2.5e-3):
            plant_run(heat_sys, des, dt)
            refs.append(weakref.ref(des._solver))
        assert builds == [1e-3, 2e-3, 2.5e-3]
        assert des._solver.dt == 2.5e-3
        # each replaced solver is freed at once, and the last dies with the
        # design: the solver holds no reference back to it
        gc.disable()
        try:
            assert [ref() is None for ref in refs] == [True, True, False]
            del des
            assert refs[-1]() is None
        finally:
            gc.enable()

    def test_ramp_cache_bound(self, heat_sys):
        des = shared_design(heat_sys)
        traj = plant_run(heat_sys, des)
        kept = dict(des._solver.ramp)
        # the ramp rows 1 .. 199 lie in the blocks after rows 0, 64 .. 192
        assert sorted(kept) == [0, 64, 128, 192]
        assert len(kept) <= math.ceil(des.transition.t0 / traj.dt)
        # an override ramp never fills the cache
        sd.invert_artstein(des, traj.t, traj.coeffs[:, :2],
                           phi=lambda t: 0.5 * des.transition.phi(t))
        assert des._solver.ramp.keys() == kept.keys()
        assert all(des._solver.ramp[a] is kept[a] for a in kept)

    @pytest.mark.parametrize("a, rows", [(0, 32), (96, 32), (192, 8)])
    def test_ramp_inverse_matches_solve(self, heat_sys, a, rows):
        des = shared_design(heat_sys)
        solve = _RowSolver(des, 1e-3)
        phi = des.transition.phi((a + 1 + np.arange(rows)) * 1e-3)
        y = np.random.default_rng(a).normal(size=(rows, 2)).astype(complex)
        # a zero history leaves the right-hand side equal to Y
        hist = np.zeros((solve.pad + a + 1, des.input_dim), dtype=complex)
        k = rows * des.n0
        ref = np.linalg.solve(np.eye(k) - solve.lower[:k, :k]
                              * np.repeat(phi, des.n0), y.ravel())
        # the first call fills the cache and the second reads it
        for _ in range(2):
            z, _ = solve(hist, a, y, phi, a + 1 + _ones_from(phi))
            assert_rel_close(z.ravel(), ref)
        assert list(solve.ramp) == [a]

    @pytest.mark.parametrize("phi", [
        lambda t: np.where(t < 0.05, 1.0, 0.5),
        lambda t: np.full(t.shape, 0.5),
        lambda t: np.zeros(t.shape)], ids=["step-at-0.05", "half", "zero"])
    def test_override_ignores_kept_inverses(self, heat_sys, phi):
        # the step override is 1 at the first 49 rows of the block after
        # row 0 and 0.5 after them, so the block's first phi alone cannot
        # tell it from phi = 1
        des = shared_design(heat_sys)
        traj = plant_run(heat_sys, des)
        y = traj.coeffs[:, :2]
        warm = sd.invert_artstein(des, traj.t, y, phi=phi)
        fresh = sd.invert_artstein(shared_design(heat_sys), traj.t, y, phi=phi)
        np.testing.assert_array_equal(warm, fresh)
        _, ref = per_row_inputs(des, traj.dt, y, phi(traj.t))
        assert_rel_close(warm, ref)

    def test_inversion_reuses_simulate_ramps(self, heat_sys):
        # D / dt = 100: both callers step by the solver's 64 rows, so the
        # inversion reads every ramp inverse the run kept and adds none
        des = shared_design(heat_sys)
        traj = plant_run(heat_sys, des)
        kept = dict(des._solver.ramp)
        sd.invert_artstein(des, traj.t, traj.coeffs[:, :2])
        assert sorted(des._solver.ramp) == sorted(kept) == [0, 64, 128, 192]
        assert all(des._solver.ramp[a] is kept[a] for a in kept)

    def test_short_delay_blocks(self, heat_sys, monkeypatch):
        # D / dt = 20: simulate's blocks are one delay window of 20 rows,
        # and the inversion still solves the solver's least 32 rows a call
        des = sd.design_predictor(heat_sys, 2, 0.02, [-3.0, -3.0], 0.2)
        calls, solve = [], _RowSolver.__call__

        def counted(self, hist, a, y, phi, ones):
            calls.append((a, len(y)))
            return solve(self, hist, a, y, phi, ones)

        monkeypatch.setattr(_RowSolver, "__call__", counted)
        traj = plant_run(heat_sys, des)
        assert des._solver.rows == 32
        assert calls == [(a, 20) for a in range(0, 500, 20)]
        calls.clear()
        u = sd.invert_artstein(des, traj.t, traj.coeffs[:, :2])
        assert calls == [(a, 32) for a in range(0, 480, 32)] + [(480, 20)]
        assert_rel_close(u, traj.u)

    def test_ramps_not_shared_across_t0(self, heat_sys):
        slow, fast = shared_design(heat_sys, 0.2), shared_design(heat_sys, 0.1)
        traj = plant_run(heat_sys, slow)
        y = traj.coeffs[:, :2]
        sd.invert_artstein(slow, traj.t, y)
        got = sd.invert_artstein(fast, traj.t, y)
        assert sorted(fast._solver.ramp) == [0, 64]
        assert not np.array_equal(fast._solver.ramp[0][1],
                                  slow._solver.ramp[0][1])
        ref = sd.invert_artstein(shared_design(heat_sys, 0.1), traj.t, y)
        np.testing.assert_array_equal(got, ref)

    def test_threads_sharing_a_design(self, heat_sys):
        # four threads invert on one design at two alternating steps, so
        # they replace its solver and fill its ramp cache concurrently;
        # every result must equal its single-threaded reference
        des = shared_design(heat_sys)
        y = np.random.default_rng(7).normal(size=(301, 2))
        grids = {dt: np.arange(301) * dt for dt in (1e-3, 2e-3)}
        refs = {dt: sd.invert_artstein(shared_design(heat_sys), tt, y)
                for dt, tt in grids.items()}
        bad = []

        def work(first):
            for i in range(6):
                dt = (1e-3, 2e-3)[(first + i) % 2]
                if not np.array_equal(
                        sd.invert_artstein(des, grids[dt], y), refs[dt]):
                    bad.append(dt)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(th.is_alive() for th in threads)
        assert bad == []
