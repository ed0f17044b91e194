"""Certificate arithmetic, weight search, functional evaluation, reports."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdcontrol as sd
from sdcontrol import certificates
from sdcontrol.errors import (CertificateParameterError,
                              InfeasibleCertificateError,
                              InvalidParameterError)

from conftest import COUPLINGS, synthetic_system

L = 2 * np.pi

# regression pins for the optimized case-study certificate
FROZEN_SGC = 13.673751754985595
FROZEN_KAPPA0 = 0.9890080883318073
FROZEN_C4 = 1.983151710036922
FROZEN_C6 = 94.03582598958548

# d1 ct1 + d2 for the built-in interconnection, by hand:
# 0.7 * 2*0.5/(1.5 L) + 0.55*0.45/L with L = 2 pi
COUPLING_LHS = 0.7 / (3.0 * np.pi) + 0.2475 / (2 * np.pi)


def scalar_reference():
    """1-mode design whose certificate constants are hand-computable.

    Plant eigenvalues (-1, -3) with unit input and lifting data, one mode
    retained, delay 0.1, closed-loop pole -2.  Then k = -e^{-0.1},
    P = 1/4, alpha = 3, and every bound below follows by hand.
    """
    sys_ = synthetic_system([-1.0, -3.0])
    des = sd.design_predictor(sys_, n0=1, delay=0.1, poles=[-2.0], t0=0.2)
    return sys_, des


def scalar_bounds(beta):
    """Feasibility thresholds of scalar_reference, independently derived."""
    ksq = math.exp(-0.2)
    c1 = 2.0                      # 2 max(1, 0.1 e^{0.2} e^{-0.2}) = 2
    c5 = (10.0 / 3.0) * ksq       # (2/3) k^2 (1 + |A_cl|^2), A_cl = -2
    g1_min = c1 / 0.25
    g2_bk = ksq / 0.25
    g2_c5 = c5 / (1.0 - beta)
    return g1_min, g2_bk, g2_c5


class TestFeasibilityBounds:
    def test_scalar_gain_and_certificate(self):
        sys_, des = scalar_reference()
        assert des.gain[0, 0] == pytest.approx(-math.exp(-0.1), rel=1e-12)
        assert des.lyap[0, 0] == pytest.approx(0.25, rel=1e-12)

    def test_beta_domain(self):
        sys_, des = scalar_reference()
        for beta in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(CertificateParameterError, match="beta"):
                sd.compute_constants(sys_, des, beta, 10.0, 8.0)

    def test_nonpositive_weights(self):
        sys_, des = scalar_reference()
        with pytest.raises(CertificateParameterError, match="positive"):
            sd.compute_constants(sys_, des, 0.5, 0.0, 8.0)
        with pytest.raises(CertificateParameterError, match="positive"):
            sd.compute_constants(sys_, des, 0.5, 10.0, -1.0)

    def test_gamma1_boundary(self):
        sys_, des = scalar_reference()
        g1_min, _, _ = scalar_bounds(0.5)
        assert g1_min == 8.0
        sd.compute_constants(sys_, des, 0.5, g1_min + 1e-9, 8.0)
        with pytest.raises(CertificateParameterError, match="gamma1"):
            sd.compute_constants(sys_, des, 0.5, g1_min, 8.0)
        with pytest.raises(CertificateParameterError, match="gamma1"):
            sd.compute_constants(sys_, des, 0.5, g1_min - 1e-9, 8.0)

    def test_gamma2_gain_boundary(self):
        # at beta = 0.1 the ||BK||^2 bound is the binding one
        sys_, des = scalar_reference()
        _, g2_bk, g2_c5 = scalar_bounds(0.1)
        assert g2_c5 < g2_bk
        sd.compute_constants(sys_, des, 0.1, 10.0, g2_bk + 1e-9)
        with pytest.raises(CertificateParameterError, match="BK"):
            sd.compute_constants(sys_, des, 0.1, 10.0, g2_bk - 1e-9)

    def test_gamma2_tail_boundary(self):
        # at beta = 0.5 the C5/(1-beta) bound is the binding one
        sys_, des = scalar_reference()
        _, g2_bk, g2_c5 = scalar_bounds(0.5)
        assert g2_bk < g2_c5
        sd.compute_constants(sys_, des, 0.5, 10.0, g2_c5 + 1e-9)
        with pytest.raises(CertificateParameterError, match="C5"):
            sd.compute_constants(sys_, des, 0.5, 10.0, g2_c5 - 1e-9)

    @settings(max_examples=80, deadline=None)
    @given(beta=st.floats(0.05, 0.95), g1=st.floats(0.1, 40.0),
           g2=st.floats(0.1, 40.0))
    def test_rejection_iff_a_bound_fails(self, beta, g1, g2):
        sys_, des = scalar_reference()
        g1_min, g2_bk, g2_c5 = scalar_bounds(beta)
        should_fail = g1 <= g1_min or g2 <= g2_bk or g2 <= g2_c5
        if should_fail:
            with pytest.raises(CertificateParameterError):
                sd.compute_constants(sys_, des, beta, g1, g2)
        else:
            b = sd.compute_constants(sys_, des, beta, g1, g2)
            assert b.C2g1 > 0 and b.C3g2 > 0 and b.kappa0 > 0
            assert b.small_gain_constant > 0

    def test_missing_lyapunov_matrix(self):
        sys_, _ = scalar_reference()
        open_loop = sd.zero_gain_design(sys_, n0=1, delay=0.1, t0=0.2)
        with pytest.raises(InvalidParameterError, match="Lyapunov"):
            sd.compute_constants(sys_, open_loop, 0.5, 10.0, 8.0)


class TestConstantValues:
    """Hand-derived values for the scalar reference design."""

    def test_full_family_at_one_point(self):
        sys_, des = scalar_reference()
        b = sd.compute_constants(sys_, des, 0.5, 10.0, 8.0)
        ksq = math.exp(-0.2)
        c5 = (10.0 / 3.0) * ksq
        assert b.alpha == pytest.approx(3.0, rel=1e-12)
        assert b.lam_min_P == pytest.approx(0.25, rel=1e-12)
        assert b.lam_max_P == pytest.approx(0.25, rel=1e-12)
        assert b.norm_P == pytest.approx(0.25, rel=1e-12)
        assert b.norm_BK == pytest.approx(math.exp(-0.1), rel=1e-12)
        assert b.C1 == pytest.approx(2.0, rel=1e-12)
        assert b.C5 == pytest.approx(c5, rel=1e-12)
        assert b.C2g1 == pytest.approx(10.0 * 0.25 - 2.0, rel=1e-12)
        c3 = 8.0 * 0.25 - ksq
        assert b.C3g2 == pytest.approx(c3, rel=1e-12)
        assert b.C4 == pytest.approx(
            math.sqrt(2.0) + math.exp(-0.1) / math.sqrt(c3), rel=1e-12)
        kappa = 0.5 * min(0.5 / 0.25, (0.5 - c5 / 8.0) / 0.25, 1.5)
        assert b.kappa0 == pytest.approx(kappa, rel=1e-12)
        c6 = (2.0 * (1.0 + ksq) / 3.0
              + (10.0 * 1.1 + 8.0) * 0.25 ** 2 / 0.5)
        assert b.C6 == pytest.approx(c6, rel=1e-12)
        assert b.small_gain_constant == pytest.approx(
            b.C4 * math.sqrt(c6 / (2.0 * kappa)), rel=1e-12)

    def test_c1_is_two_at_zero_delay(self):
        sys_, _ = scalar_reference()
        des0 = sd.design_predictor(sys_, n0=1, delay=0.0, poles=[-2.0], t0=0.2)
        b = sd.compute_constants(sys_, des0, 0.5, 10.0, 8.0)
        assert b.C1 == 2.0

    def test_c1_gain_dominated_branch(self):
        # pole -12 gives k = -11 e^{-0.1}; the exponential factors cancel
        # and C1 = 2 * 0.1 * 121 = 24.2
        sys_, _ = scalar_reference()
        des = sd.design_predictor(sys_, n0=1, delay=0.1, poles=[-12.0], t0=0.2)
        b = sd.compute_constants(sys_, des, 0.5, 600.0, 20000.0)
        assert b.C1 == pytest.approx(24.2, rel=1e-12)

    def test_kappa0_large_gamma2_limit(self, heat_sys, design):
        lam_max = float(np.linalg.eigvalsh(design.lyap).max())
        alpha = 8.75
        limit = 0.5 * min(0.7 / lam_max, alpha / 2.0)
        b = sd.compute_constants(heat_sys, design, 0.3, 100.0, 1e9)
        assert b.kappa0 == pytest.approx(limit, abs=1e-6)
        assert b.kappa0 < limit

    def test_c4_exceeds_frame_floor(self, heat_sys, design, bundle):
        floor = math.sqrt(2.0 * heat_sys.riesz_upper)
        assert bundle.C4 > floor
        big = sd.compute_constants(heat_sys, design, 0.3, 100.0, 1e12)
        assert big.C4 == pytest.approx(floor, abs=1e-4)


class TestMonotonicity:
    def test_c4_strictly_decreasing_in_gamma2(self):
        sys_, des = scalar_reference()
        vals = [sd.compute_constants(sys_, des, 0.5, 10.0, g2).C4
                for g2 in (6.0, 8.0, 12.0, 30.0, 100.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_c6_strictly_increasing_in_each_weight(self):
        sys_, des = scalar_reference()
        by_g2 = [sd.compute_constants(sys_, des, 0.5, 10.0, g2).C6
                 for g2 in (6.0, 8.0, 12.0, 30.0)]
        assert all(a < b for a, b in zip(by_g2, by_g2[1:]))
        by_g1 = [sd.compute_constants(sys_, des, 0.5, g1, 8.0).C6
                 for g1 in (9.0, 12.0, 20.0, 50.0)]
        assert all(a < b for a, b in zip(by_g1, by_g1[1:]))

    def test_kappa0_nondecreasing_in_gamma2_then_saturates(self):
        sys_, des = scalar_reference()
        grid = (6.0, 8.0, 12.0, 30.0, 100.0)
        vals = [sd.compute_constants(sys_, des, 0.5, 10.0, g2).kappa0
                for g2 in grid]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        assert vals[0] < vals[2]
        # once the tail term clears alpha/2 the rate locks at alpha/4
        assert vals[-2] == vals[-1] == pytest.approx(0.75, rel=1e-12)

    def test_c4_kappa0_independent_of_gamma1(self):
        sys_, des = scalar_reference()
        a = sd.compute_constants(sys_, des, 0.5, 9.0, 8.0)
        b = sd.compute_constants(sys_, des, 0.5, 90.0, 8.0)
        assert a.C4 == b.C4
        assert a.kappa0 == b.kappa0


class TestEvaluateV:
    @staticmethod
    def _setup(gamma1=10.0, gamma2=8.0, beta=0.5):
        sys_, des = scalar_reference()
        bundle = sd.compute_constants(sys_, des, beta, gamma1, gamma2)
        return sys_, des, bundle

    @staticmethod
    def _history(values):
        # predictor states at t = 0, 0.01, 0.02, ...
        return np.asarray(values, dtype=float)[:, None]

    def test_zero_state_gives_zero(self):
        sys_, des, bundle = self._setup()
        hist = self._history([0.0] * 31)
        v = sd.evaluate_V(sys_, des, bundle, hist, 0.01,
                          np.zeros(2), np.zeros(1))
        assert v == 0.0

    def test_single_tail_mode_is_half(self):
        sys_, des, bundle = self._setup()
        hist = self._history([0.0] * 6)
        # t < D so the delayed ramp weight vanishes and only the tail counts
        v = sd.evaluate_V(sys_, des, bundle, hist, 0.01,
                          np.array([0.0, 1.0]), np.zeros(1))
        assert v == pytest.approx(0.5, rel=1e-12)

    def test_tail_cancels_against_lifted_input(self):
        sys_, des, bundle = self._setup()
        hist = self._history([0.0] * 6)
        v = sd.evaluate_V(sys_, des, bundle, hist, 0.01,
                          np.array([0.0, 0.7]), np.array([0.7]))
        assert v == 0.0

    def test_constant_predictor_closed_form(self):
        # z = 2 on [0.4, 0.5] with phi = 1 there: V = g1 (1 + D) + g2
        sys_, des, bundle = self._setup()
        hist = self._history([2.0] * 51)
        v = sd.evaluate_V(sys_, des, bundle, hist, 0.01,
                          np.zeros(1), np.zeros(1))
        assert v == pytest.approx(10.0 * 1.1 + 8.0, rel=1e-12)

    def test_coefficient_length_validated(self):
        sys_, des, bundle = self._setup()
        hist = self._history([0.0] * 6)
        with pytest.raises(InvalidParameterError, match="x_coeffs"):
            sd.evaluate_V(sys_, des, bundle, hist, 0.01,
                          np.zeros(0), np.zeros(1))
        with pytest.raises(InvalidParameterError, match="x_coeffs"):
            sd.evaluate_V(sys_, des, bundle, hist, 0.01,
                          np.zeros(3), np.zeros(1))

    def test_input_width_validated(self, heat_sys, design, bundle):
        # the case study has two inputs; a 3-vector is rejected up front
        with pytest.raises(InvalidParameterError, match="u_delay"):
            sd.evaluate_V(heat_sys, design, bundle, np.zeros((201, 2)), 1e-3,
                          np.zeros(10), np.zeros(3))

    def test_history_width_validated(self, heat_sys, design, bundle):
        with pytest.raises(InvalidParameterError, match="z_history"):
            sd.evaluate_V(heat_sys, design, bundle, np.zeros((201, 3)), 1e-3,
                          np.zeros(10), np.zeros(2))

    def test_open_loop_design_rejected(self):
        sys_, des, bundle = self._setup()
        open_loop = sd.zero_gain_design(sys_, n0=1, delay=0.1, t0=0.2)
        hist = self._history([0.0] * 6)
        with pytest.raises(InvalidParameterError, match="Lyapunov"):
            sd.evaluate_V(sys_, open_loop, bundle, hist, 0.01,
                          np.zeros(2), np.zeros(1))

    @settings(max_examples=60, deadline=None)
    @given(zs=st.lists(st.floats(-5.0, 5.0), min_size=8, max_size=8),
           c2=st.floats(-5.0, 5.0), u=st.floats(-5.0, 5.0))
    def test_nonnegative(self, zs, c2, u):
        sys_, des, bundle = self._setup()
        hist = np.array(zs)[:, None]
        v = sd.evaluate_V(sys_, des, bundle, hist, 0.05,
                          np.array([zs[-1], c2]), np.array([u]))
        assert v >= 0.0


class TestNelderMead:
    def test_quadratic_three_dim(self):
        target = np.array([1.5, -2.0, 0.5])

        def f(x):
            return float(np.sum((x - target) ** 2))

        x, fx = sd.nelder_mead(f, np.array([0.2, 0.2, 0.2]),
                               rel_tol=1e-10, max_iter=5000)
        assert np.max(np.abs(x - target)) < 1e-5
        assert fx < 1e-10

    def test_rosenbrock(self):
        def f(x):
            return float((1 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2)

        x, fx = sd.nelder_mead(f, np.array([-1.2, 1.0]),
                               rel_tol=1e-12, max_iter=5000)
        assert fx < 1e-8
        assert np.max(np.abs(x - 1.0)) < 1e-3

    def test_deterministic(self):
        def f(x):
            return float(np.sum(x ** 2) + 0.3 * np.sin(5.0 * x[0]))

        a = sd.nelder_mead(f, np.array([0.7, -0.4]))
        b = sd.nelder_mead(f, np.array([0.7, -0.4]))
        assert np.array_equal(a[0], b[0]) and a[1] == b[1]

    def test_iteration_cap_returns_best_vertex(self):
        calls = []

        def f(x):
            calls.append(1)
            return float(np.sum(x ** 2))

        x, fx = sd.nelder_mead(f, np.array([1.0, 1.0]), max_iter=0)
        # no descent steps: only the 3 initial vertices were evaluated
        assert len(calls) == 3
        assert np.array_equal(x, np.array([1.0, 1.0]))
        assert fx == 2.0

    def test_zero_coordinate_gets_absolute_step(self):
        def f(x):
            return float((x[0] - 0.03) ** 2 + x[1] ** 2)

        x, fx = sd.nelder_mead(f, np.array([0.0, 0.0]), step=0.05,
                               rel_tol=1e-10, max_iter=2000)
        assert abs(x[0] - 0.03) < 1e-6 and abs(x[1]) < 1e-6


class TestOptimizer:
    def test_case_study_regression(self, bundle):
        assert 4.0 <= bundle.small_gain_constant <= 15.0
        assert bundle.small_gain_constant == pytest.approx(FROZEN_SGC,
                                                           rel=1e-5)
        assert bundle.kappa0 == pytest.approx(FROZEN_KAPPA0, rel=1e-4)
        assert bundle.C4 == pytest.approx(FROZEN_C4, rel=1e-4)
        assert bundle.C6 == pytest.approx(FROZEN_C6, rel=1e-4)

    def test_deterministic_rerun(self, heat_sys, design, bundle):
        again = sd.optimize_parameters(heat_sys, design)
        assert again == bundle

    def test_beats_fixed_reference_point(self, heat_sys, design, bundle):
        ref = sd.compute_constants(heat_sys, design,
                                   0.4131, 106.3290, 337.1938)
        assert ref.small_gain_constant == pytest.approx(19.079, abs=5e-3)
        assert bundle.small_gain_constant <= ref.small_gain_constant + 1e-9

    def test_result_is_feasible(self, bundle):
        assert bundle.C2g1 > 0
        assert bundle.C3g2 > 0
        assert 0 < bundle.beta < 1
        assert bundle.kappa0 > 0

    def test_zero_gain_design_is_inadmissible(self):
        # poles equal to the open-loop spectrum give K = 0, so the gamma2
        # lower bounds collapse to zero and the scan has nowhere to start
        sys_ = synthetic_system([-3.0, -4.0, -5.0],
                                b=np.array([[1.0, 0.0], [0.0, 1.0],
                                            [0.3, 0.3]]))
        des = sd.design_predictor(sys_, n0=2, delay=0.1,
                                  poles=[-3.0, -4.0], t0=0.2)
        assert np.all(des.gain == 0.0)
        with pytest.raises(InfeasibleCertificateError, match="admissible"):
            sd.optimize_parameters(sys_, des)


class TestSearchInvariants:
    """The search evaluates the weight arithmetic on one precomputed base."""

    def test_base_constants_once_per_search(self, heat_sys, design,
                                            monkeypatch):
        calls = []
        real = certificates._base_constants

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(certificates, "_base_constants", counted)
        sd.optimize_parameters(heat_sys, design)
        assert len(calls) == 1

    @pytest.mark.parametrize("n0, delay, poles", [
        (2, 0.1, [-3.0, -3.0]),          # the case study
        (1, 0.1, [-2.0]),                # a single real pole
        (2, 0.3, [-2.0 + 1.0j, -2.0 - 1.0j]),
    ], ids=["case-study", "single-real", "conjugate-D0.3"])
    def test_bundle_equals_direct_evaluation(self, heat_sys, n0, delay,
                                             poles):
        des = sd.design_predictor(heat_sys, n0=n0, delay=delay, poles=poles,
                                  t0=0.2)
        b = sd.optimize_parameters(heat_sys, des)
        direct = sd.compute_constants(heat_sys, des, b.beta, b.gamma1,
                                      b.gamma2)
        assert b == direct  # every field equal, not only close


class TestCouplingConstants:
    def test_case_study_values(self):
        cc = sd.coupling_constants(**COUPLINGS, L=L)
        assert cc.ct0 == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert cc.ct1 == pytest.approx(2.0 * 0.5 / (1.5 * L), rel=1e-15)
        assert cc.ct1 == pytest.approx(0.1061032953945969, rel=1e-12)
        assert cc.ct2 == pytest.approx(2.0 * 0.2 / 1.5, rel=1e-15)
        assert cc.d1 == 0.7
        assert cc.d2 == pytest.approx(0.55 * 0.45 / L, rel=1e-15)
        assert cc.d2 == pytest.approx(0.0393908484152441, rel=1e-12)
        assert cc.d3 == 10.0

    def test_signs_are_absorbed(self):
        flipped = dict(COUPLINGS, b1=-COUPLINGS["b1"], a2=-COUPLINGS["a2"])
        cc = sd.coupling_constants(**flipped, L=L)
        ref = sd.coupling_constants(**COUPLINGS, L=L)
        assert cc == ref

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError, match="a1"):
            sd.coupling_constants(**dict(COUPLINGS, a1=0.0), L=L)
        with pytest.raises(InvalidParameterError, match="L"):
            sd.coupling_constants(**COUPLINGS, L=-1.0)

    def test_direct_construction_validated(self):
        with pytest.raises(InvalidParameterError, match="ct0"):
            sd.CouplingConstants(ct0=0.5, ct1=0.1, ct2=0.1,
                                 d1=0.1, d2=0.1, d3=0.1)
        with pytest.raises(InvalidParameterError, match="d1"):
            sd.CouplingConstants(ct0=1.5, ct1=0.1, ct2=0.1,
                                 d1=-0.1, d2=0.1, d3=0.1)

    def test_interconnection_strength(self):
        cc = sd.coupling_constants(**COUPLINGS, L=L)
        lhs = cc.d1 * cc.ct1 + cc.d2
        assert lhs == pytest.approx(COUPLING_LHS, rel=1e-14)
        assert lhs == pytest.approx(0.11366315519146192, rel=1e-12)


class TestMargins:
    def test_small_gain_margin_consistency(self, bundle):
        cc = sd.coupling_constants(**COUPLINGS, L=L)
        margin = sd.small_gain_margin(bundle, cc)
        lhs = cc.d1 * cc.ct1 + cc.d2
        assert margin == pytest.approx(
            1.0 - lhs * bundle.small_gain_constant, rel=1e-14)
        # the optimized gain constant sits above 1/lhs = 8.798, so the
        # interconnection test fails for this design family
        assert margin == pytest.approx(-0.5542, abs=5e-4)
        assert margin < 0

    def test_margin_positive_at_moderate_gain(self, bundle):
        cc = sd.coupling_constants(**COUPLINGS, L=L)
        probe = dataclasses.replace(bundle, small_gain_constant=8.6260)
        margin = sd.small_gain_margin(probe, cc)
        assert margin == pytest.approx(1.0 - COUPLING_LHS * 8.6260, rel=1e-12)
        assert margin > 0

    def test_margin_one_without_feedback_coupling(self, bundle):
        cc = sd.CouplingConstants(ct0=math.sqrt(2.0), ct1=0.2, ct2=0.1,
                                  d1=0.0, d2=0.0, d3=5.0)
        assert sd.small_gain_margin(bundle, cc) == 1.0

    def test_margin_zero_at_reciprocal_coupling(self, bundle):
        cc = sd.CouplingConstants(
            ct0=math.sqrt(2.0), ct1=0.0, ct2=0.1, d1=0.0,
            d2=1.0 / bundle.small_gain_constant, d3=0.0)
        assert abs(sd.small_gain_margin(bundle, cc)) <= 1e-12


class TestCertificateReport:
    KEYS = ["beta", "gamma1", "gamma2", "C1", "C2g1", "C3g2", "C4", "C5",
            "C6", "kappa0", "small_gain_constant", "margin"]

    def test_key_order(self, bundle):
        text = sd.render_certificate(bundle, margin=-0.5)
        keys = [line.split(" = ")[0] for line in text.strip().splitlines()]
        assert keys == self.KEYS

    def test_round_trip_exact(self, bundle):
        text = sd.render_certificate(bundle, margin=-0.5542)
        parsed = sd.parse_certificate(text)
        assert set(parsed) == set(self.KEYS)
        for key in ("beta", "gamma1", "gamma2", "C1", "C2g1", "C3g2",
                    "C4", "C5", "C6", "kappa0", "small_gain_constant"):
            assert parsed[key] == getattr(bundle, key)
        assert parsed["margin"] == -0.5542

    def test_missing_key_rejected(self, bundle):
        text = sd.render_certificate(bundle, margin=0.1)
        clipped = "\n".join(text.splitlines()[:-1])
        with pytest.raises(InvalidParameterError, match="margin"):
            sd.parse_certificate(clipped)

    def test_blank_lines_tolerated(self, bundle):
        text = sd.render_certificate(bundle, margin=0.1)
        padded = "\n\n" + text.replace("\n", "\n\n")
        parsed = sd.parse_certificate(padded)
        assert parsed["margin"] == 0.1
