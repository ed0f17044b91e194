"""Modal plant construction, assumption checks, projections, and the modal
model against a finite-difference solution of the PDE."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdcontrol as sd
from sdcontrol.errors import (AssumptionViolatedError, InvalidParameterError)

from conftest import CASE, synthetic_system

L = 2 * np.pi

# frozen oracle: <sqrt(2 xi)/L, psi_1> on (0, 2pi) by a 10^6-point
# midpoint rule, psi_1 = sqrt(2/L) sin(pi xi / L)
RAMP_PROJ_ORACLE = 0.8747046386463501


def modal_sum(sys_, coeffs, xi):
    """sum_n coeffs[n-1] psi_n(xi) on the plant's attached basis."""
    return sum(c * sys_.basis(k, xi) for k, c in enumerate(coeffs, start=1))


class TestHeatBuilder:
    def test_case_study_spectrum(self):
        sys_ = sd.build_heat_system(a=5.0, c=2.5, L=L, n_max=3)
        np.testing.assert_allclose(
            sys_.eigenvalues.real, [1.25, -2.5, -8.75], rtol=0, atol=1e-12)
        assert np.all(sys_.eigenvalues.imag == 0.0)

    def test_first_input_coefficient(self):
        sys_ = sd.build_heat_system(a=5.0, c=2.5, L=L, n_max=1)
        b11 = 5.0 * np.pi * np.sqrt(2.0 / L ** 3)
        assert b11 == pytest.approx(5.0 / (2.0 * np.sqrt(np.pi)), rel=1e-12)
        assert sys_.input_coeffs[0, 0] == pytest.approx(b11, rel=1e-12)

    def test_pure_laplacian(self):
        sys_ = sd.build_heat_system(a=1.0, c=0.0, L=np.pi, n_max=2)
        np.testing.assert_allclose(
            sys_.eigenvalues.real, [-1.0, -4.0], atol=1e-12)

    def test_second_column_alternates(self):
        sys_ = sd.build_heat_system(a=5.0, c=2.5, L=L, n_max=4)
        col1 = sys_.input_coeffs[:, 0].real
        col2 = sys_.input_coeffs[:, 1].real
        signs = np.array([1.0, -1.0, 1.0, -1.0])
        np.testing.assert_allclose(col2, signs * col1, rtol=1e-12)

    def test_lifting_values(self, heat_sys):
        # <B e_1, psi_n> = sqrt(2 L) / (n pi)
        n = np.arange(1, 11)
        np.testing.assert_allclose(
            heat_sys.lifting_coeffs[:, 0].real, np.sqrt(2 * L) / (n * np.pi),
            rtol=1e-12)
        np.testing.assert_allclose(heat_sys.lifting_norm_B, np.sqrt(L / 3),
                                   rtol=1e-9)
        np.testing.assert_allclose(heat_sys.lifting_norm_AB,
                                   2.5 * np.sqrt(L / 3), rtol=1e-9)
        gram = (L / 6.0) * np.array([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(heat_sys.lifting_gram, gram, rtol=1e-9)

    def test_unit_frame_bounds(self, heat_sys):
        assert heat_sys.riesz_lower == 1.0
        assert heat_sys.riesz_upper == 1.0

    def test_input_rows_match_lifting_identity(self, heat_sys):
        # b_{n,k} = -lambda_n <B e_k, psi_n> + <A B e_k, psi_n> for this
        # plant, where A B e_k = c B e_k
        lam = heat_sys.eigenvalues[:, None]
        lift = heat_sys.lifting_coeffs
        np.testing.assert_allclose(
            heat_sys.input_coeffs, -lam * lift + 2.5 * lift, rtol=1e-12)

    def test_arrays_frozen(self, heat_sys):
        with pytest.raises(ValueError):
            heat_sys.eigenvalues[0] = 0.0

    def test_bad_parameters(self):
        with pytest.raises(InvalidParameterError):
            sd.build_heat_system(a=-1.0, c=0.0, L=L, n_max=3)
        with pytest.raises(InvalidParameterError):
            sd.build_heat_system(a=1.0, c=0.0, L=0.0, n_max=3)
        with pytest.raises(InvalidParameterError):
            sd.build_heat_system(a=1.0, c=0.0, L=L, n_max=0)

    # extreme but finite L in float64: 1/L^2 overflows, which the plant
    # rejects as non-finite, or 1/L^3 underflows, which leaves no mode an
    # input; never a Python ZeroDivisionError or OverflowError, and no
    # numpy warning
    @pytest.mark.parametrize("length,match", [
        (1e-160, "finite"), (1e-300, "finite"), (1e300, "no input")])
    def test_extreme_length(self, length, match):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError, match=match):
                sd.build_heat_system(5.0, 2.5, length)


class TestTruncation:
    def test_case_study_margin(self, heat_sys):
        spec = sd.check_truncation(heat_sys, 2)
        assert spec.n0 == 2
        assert spec.alpha == pytest.approx(8.75, abs=1e-12)

    def test_unstable_mode_discarded(self, heat_sys):
        with pytest.raises(AssumptionViolatedError):
            sd.check_truncation(heat_sys, 0)

    def test_synthetic_margin(self):
        sys_ = synthetic_system([-1.0, -2.0, -3.0])
        assert sd.check_truncation(sys_, 1).alpha == pytest.approx(2.0)

    def test_alpha_is_next_eigenvalue_for_heat(self, heat_sys):
        for n0 in range(1, 10):
            spec = sd.check_truncation(heat_sys, n0)
            assert spec.alpha == pytest.approx(
                -heat_sys.eigenvalues[n0].real, rel=1e-12)


class TestKalman:
    def test_case_study_controllable(self, heat_sys):
        assert sd.check_kalman(heat_sys, 2) is True

    def test_multiplicity_exceeds_inputs(self):
        sys_ = synthetic_system([1.0, 1.0, 1.0],
                                b=np.ones((3, 2), dtype=complex))
        assert sd.check_kalman(sys_, 3) is False

    def test_zero_row_single_input(self):
        sys_ = synthetic_system([2.0, 1.0], b=np.array([[0.5], [0.0]]))
        assert sd.check_kalman(sys_, 2) is False

    def test_repeated_pair_with_independent_rows(self):
        b = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
        sys_ = synthetic_system([1.0, 1.0], b=b)
        assert sd.check_kalman(sys_, 2) is True

    @given(scale=st.floats(min_value=1e-3, max_value=1e3,
                           allow_nan=False, allow_infinity=False))
    @settings(max_examples=40, deadline=None)
    def test_rescale_invariance(self, scale):
        sys_ = sd.build_heat_system(a=5.0, c=2.5, L=L, n_max=4)
        scaled = synthetic_system(sys_.eigenvalues,
                                  b=scale * sys_.input_coeffs)
        assert sd.check_kalman(scaled, 2) == sd.check_kalman(sys_, 2)

    def test_pbh_direct(self):
        lam = np.array([1.0, 2.0], dtype=complex)
        assert sd.pbh_controllable(lam, np.array([[1.0], [1.0]]))
        assert not sd.pbh_controllable(lam, np.array([[1.0], [0.0]]))


class TestProjection:
    def test_orthonormality(self, heat_sys):
        psi1 = lambda xi: np.sqrt(2.0 / L) * np.sin(np.pi * xi / L)
        c = sd.project_profile(heat_sys, psi1, 2)
        assert c[0] == pytest.approx(1.0, abs=1e-8)
        assert abs(c[1]) < 1e-8

    def test_ramp_against_midpoint_oracle(self, heat_sys):
        val = sd.project_profile(
            heat_sys, lambda xi: np.sqrt(2.0 * xi) / L, 1)[0]
        assert complex(val).imag == 0.0
        assert complex(val).real == pytest.approx(RAMP_PROJ_ORACLE, abs=1e-6)


class TestReconstruct:
    """Profiles rebuilt from modal coefficients on the attached basis."""

    def test_single_mode(self, heat_sys):
        val = heat_sys.basis(1, np.array([L / 2]))
        assert val[0] == pytest.approx(np.sqrt(2.0 / L), rel=1e-12)

    def test_cubic_profile_roundtrip(self, heat_sys, x0_coeffs):
        grid = np.linspace(0.0, L, 101)
        rec = modal_sum(heat_sys, x0_coeffs.real, grid)
        exact = -5.0 * grid * (L / 2 - grid) * (L - grid)
        assert np.abs(rec - exact).max() < 0.05 * np.abs(exact).max()


class TestFrameIdentity:
    @given(st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False),
                    min_size=1, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_parseval_at_unit_bounds(self, coeffs):
        sys_ = sd.build_heat_system(a=5.0, c=2.5, L=L, n_max=10)
        c = np.array(coeffs)
        grid = np.linspace(0.0, L, 4097)
        vals = modal_sum(sys_, c, grid)
        norm_sq = np.trapezoid(vals ** 2, grid)
        assert norm_sq == pytest.approx(float(np.sum(c ** 2)), abs=1e-6,
                                        rel=1e-6)

    def test_project_then_reconstruct(self, heat_sys):
        rng = np.random.default_rng(7)
        c = rng.uniform(-2, 2, 6)
        prof = lambda xi: modal_sum(heat_sys, c, xi)
        back = sd.project_profile(heat_sys, prof, 6)
        np.testing.assert_allclose(back.real, c, atol=1e-8)


def fd_rod_replay(traj, M, modes=10):
    """Sine coefficients of a finite-difference rod driven by a recorded run.

    X_t = a X_xx + c X on M - 1 interior nodes, h = L / M, with Dirichlet
    data u(t - D) at both ends: the recorded u, shifted D / dt rows.  The
    symmetric stencil matrix has the discrete sines v_k(j) = sqrt(2/M)
    sin(k pi j / M) as eigenvectors, with mu_k = c - (4a/h^2) sin^2(k pi /
    2M), and the end values enter coordinate k as (a/h^2)(v_k(1) u_1 +
    v_k(M-1) u_2).  Each coordinate is stepped exactly for an input that is
    linear over the step (a first-order hold, Hochbruck & Ostermann, Acta
    Numerica 19, 2010):  w <- e^z w + dt phi1(z) g_i + dt phi2(z) (g_{i+1} -
    g_i), z = mu_k dt.  Grid and sine coefficients map by c_k = sqrt(h) w_k,
    both for the start state and for the result.  The boundary enters
    through the stencil, not through any modal input gain.
    """
    a, c, L = CASE["a"], CASE["c"], CASE["L"]
    h, dt = L / M, traj.dt
    k = np.arange(1, modes + 1)
    v_end = math.sqrt(2.0 / M) * np.sin(np.outer([1, M - 1], k) * np.pi / M)
    z = (c - 4.0 * a / h ** 2 * np.sin(k * np.pi / (2 * M)) ** 2) * dt
    phi1, phi2 = np.expm1(z) / z, (np.expm1(z) - z) / z ** 2
    lag = round(traj.delay / dt)
    u_del = np.vstack([np.zeros((lag, 2)), traj.u[:-lag]])
    g = a / h ** 2 * u_del @ v_end
    w = np.empty((len(traj), modes), dtype=complex)
    w[0] = traj.coeffs[0, :modes] / math.sqrt(h)
    for i in range(len(traj) - 1):
        w[i + 1] = (np.exp(z) * w[i] + dt * phi1 * g[i]
                    + dt * phi2 * (g[i + 1] - g[i]))
    return math.sqrt(h) * w


class TestPdeOracle:
    def test_plant_only_run_replays_on_the_rod(self, heat_sys, design,
                                               x0_coeffs):
        # the 10-mode plant-only run against the rod it models, replayed on
        # the run's own input: modes 1-10 agree to O(h^2), the rod's error
        # (1.69e-3 at M = 200, 4.23e-4 at 400, relative to each mode's
        # peak).  A 1% error or a wrong sign in input_coeffs shows as 1e-2
        # or worse at both M
        cfg = sd.SimConfig(dt=1e-3, t_end=2.0, n_modes=10, disturbance="none")
        traj = sd.simulate(cfg, heat_sys, design, None, 0.0, x0_coeffs)
        peak = np.abs(traj.coeffs).max(axis=0)
        errors = []
        for M in (200, 400):
            gap = np.abs(fd_rod_replay(traj, M) - traj.coeffs).max(axis=0)
            errors.append(float((gap / peak).max()))
        assert errors[0] <= 2.5e-3 and errors[1] <= 6e-4, errors
        assert 3.5 <= errors[0] / errors[1] <= 4.5, errors
