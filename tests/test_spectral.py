"""Modal plant construction, assumption checks, and projections."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdcontrol as sd
from sdcontrol.errors import (AssumptionViolatedError, InvalidParameterError)

from conftest import synthetic_system

L = 2 * np.pi

# frozen oracle: <sqrt(2 xi)/L, psi_1> on (0, 2pi) by a 10^6-point
# midpoint rule, psi_1 = sqrt(2/L) sin(pi xi / L)
RAMP_PROJ_ORACLE = 0.8747046386463501


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

    def test_odd_quadrature_rejected(self, heat_sys):
        with pytest.raises(InvalidParameterError):
            sd.project_profile(heat_sys, lambda xi: xi, 1, n_quad=2047)


class TestReconstruct:
    def test_single_mode(self, heat_sys):
        val = sd.reconstruct(heat_sys, np.array([1.0]), np.array([L / 2]))
        assert val[0] == pytest.approx(np.sqrt(2.0 / L), rel=1e-12)

    def test_zero_everywhere(self, heat_sys):
        grid = np.linspace(0, L, 11)
        np.testing.assert_array_equal(
            sd.reconstruct(heat_sys, np.zeros(3), grid), np.zeros(11))

    def test_cubic_profile_roundtrip(self, heat_sys, x0_coeffs):
        grid = np.linspace(0.0, L, 101)
        rec = sd.reconstruct(heat_sys, x0_coeffs, grid)
        exact = -5.0 * grid * (L / 2 - grid) * (L - grid)
        assert np.abs(rec - exact).max() < 0.05 * np.abs(exact).max()

    def test_imaginary_residue_rejected(self, heat_sys):
        with pytest.raises(InvalidParameterError):
            sd.reconstruct(heat_sys, np.array([1.0 + 0.5j]), np.array([1.0]))


class TestFrameIdentity:
    @given(st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False),
                    min_size=1, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_parseval_at_unit_bounds(self, coeffs):
        sys_ = sd.build_heat_system(a=5.0, c=2.5, L=L, n_max=10)
        c = np.array(coeffs)
        grid = np.linspace(0.0, L, 4097)
        vals = sd.reconstruct(sys_, c, grid)
        norm_sq = np.trapezoid(vals ** 2, grid)
        assert norm_sq == pytest.approx(float(np.sum(c ** 2)), abs=1e-6,
                                        rel=1e-6)

    def test_project_then_reconstruct(self, heat_sys):
        rng = np.random.default_rng(7)
        c = rng.uniform(-2, 2, 6)
        prof = lambda xi: sd.reconstruct(heat_sys, c, xi)
        back = sd.project_profile(heat_sys, prof, 6)
        np.testing.assert_allclose(back.real, c, atol=1e-8)
