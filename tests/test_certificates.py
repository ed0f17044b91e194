"""Certificate arithmetic, weight search, functional evaluation, reports."""

import dataclasses
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdcontrol as sd
from sdcontrol import certificates
from sdcontrol.predictor import _history_pad
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
        # an unstable open loop: its A_cl = A is not Hurwitz, so no P
        sys_ = synthetic_system([1.0, -3.0])
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


def lyapunov_newest(sys_, des, bundle, z_history, dt, x_coeffs, u_delay):
    """V at the newest row of z_history (row 0 at t = 0), from
    _lyapunov_rows on the history padded as simulate pads it."""
    z = np.pad(np.asarray(z_history, dtype=complex),
               ((_history_pad(des.delay, dt), 0), (0, 0)))
    return float(certificates._lyapunov_rows(
        sys_, des, bundle, z, dt, np.array([len(z_history) - 1]),
        np.atleast_2d(x_coeffs), np.atleast_2d(u_delay))[0])


class TestEvaluateV:
    """The Lyapunov functional that simulate records, one row at a time."""

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
        v = lyapunov_newest(sys_, des, bundle, hist, 0.01,
                            np.zeros(2), np.zeros(1))
        assert v == 0.0

    def test_single_tail_mode_is_half(self):
        sys_, des, bundle = self._setup()
        hist = self._history([0.0] * 6)
        # t < D so the delayed ramp weight vanishes and only the tail counts
        v = lyapunov_newest(sys_, des, bundle, hist, 0.01,
                            np.array([0.0, 1.0]), np.zeros(1))
        assert v == pytest.approx(0.5, rel=1e-12)

    def test_tail_cancels_against_lifted_input(self):
        sys_, des, bundle = self._setup()
        hist = self._history([0.0] * 6)
        v = lyapunov_newest(sys_, des, bundle, hist, 0.01,
                            np.array([0.0, 0.7]), np.array([0.7]))
        assert v == 0.0

    def test_constant_predictor_closed_form(self):
        # z = 2 on [t - D, t] with phi = 1 there: V = g1 (1 + D) + g2.  At
        # D / dt = 33.3 and 27.0 the window ends in a partial panel and
        # Z(t - D) is a 2-point interpolation, both exact on a constant
        sys_, des, bundle = self._setup()
        for dt in (0.01, 0.003, 0.0037):
            hist = self._history([2.0] * (int(0.5 / dt) + 1))
            v = lyapunov_newest(sys_, des, bundle, hist, dt,
                                np.zeros(1), np.zeros(1))
            assert v == pytest.approx(10.0 * 1.1 + 8.0, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(zs=st.lists(st.floats(-5.0, 5.0), min_size=8, max_size=8),
           c2=st.floats(-5.0, 5.0), u=st.floats(-5.0, 5.0))
    def test_nonnegative(self, zs, c2, u):
        sys_, des, bundle = self._setup()
        hist = np.array(zs)[:, None]
        v = lyapunov_newest(sys_, des, bundle, hist, 0.05,
                            np.array([zs[-1], c2]), np.array([u]))
        assert v >= 0.0


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

    def test_input_bound_factor(self, design, bundle):
        # gamma1 enters only C6, so it sits just above its open bound, and
        # ||u|| <= ||K|| / sqrt(C2g1) sqrt(V) keeps a usable factor
        assert bundle.gamma1 == (1.0 + 1e-6) * bundle.C1 / bundle.lam_min_P
        factor = np.linalg.norm(design.gain, 2) / math.sqrt(bundle.C2g1)
        assert factor < 1e3

    def test_zero_gain_design_is_inadmissible(self):
        # poles equal to the open-loop spectrum give K = 0, so the gamma2
        # lower bounds collapse to zero and leave no range to search
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

    def test_case_study_search_pinned_bitwise(self, heat_sys, design,
                                              monkeypatch):
        # the case-study base, frozen so that no LAPACK result enters: from
        # it on, the search is IEEE arithmetic, sqrt and exp only, so the
        # bundle is the same bits on every platform.  A change to the search
        # arithmetic (order of operations included) moves these bits.
        base = certificates._BaseConstants(*map(float.fromhex, (
            "0x1.1800000000000p+3", "0x1.1aaed42ec0e38p-3",
            "0x1.aeb141eb1cbf9p-3", "0x1.7ad6b370abd38p+4",
            "0x1.417a866056c74p+3", "0x1.0ec6f20e07b6cp+7")))
        monkeypatch.setattr(certificates, "_base_constants",
                            lambda *args: base)
        b = sd.optimize_parameters(heat_sys, design)
        assert (heat_sys.riesz_lower, heat_sys.riesz_upper,
                design.delay) == (1.0, 1.0, 0.1)
        pinned = {
            "beta": "0x1.906877e08498dp-2",
            "gamma1": "0x1.23224d01c2a56p+6",
            "gamma2": "0x1.5ebea9168ff05p+9",
            "kappa0": "0x1.fa5f4921f494dp-1",
            "C6": "0x1.7824b7b54b30bp+6",
            "small_gain_constant": "0x1.b58f61389c668p+3",
        }
        assert {k: getattr(b, k).hex() for k in pinned} == pinned


def grid_gain(base, sys_, des, gamma1, x, t):
    """C4 sqrt(C6 / (2 kappa0)) at log gamma2 = x and beta = t (1 - C5/gamma2),
    written out on arrays from the paper's constants."""
    alpha, lmin, lmax, bk2, c1, c5 = base
    m_r, m_R = sys_.riesz_lower, sys_.riesz_upper
    g2 = np.exp(x)
    k = 1.0 - c5 / g2
    beta = t * k
    c4 = math.sqrt(2.0 * m_R) + math.sqrt(bk2) / np.sqrt(g2 * lmin - bk2 / m_r)
    kappa0 = 0.5 * np.minimum((k - beta) / lmax, alpha / 2.0)
    c6 = (2.0 * (m_r + bk2) / (alpha * m_r)
          + (gamma1 * (1.0 + des.delay) + g2) * lmax ** 2 / beta) / m_r
    return c4 * np.sqrt(c6 / (2.0 * kappa0))


def grid_best(f, x_lo, x_hi, n=64, levels=4):
    """Best value of f(x, t) over `levels` nested n x n grids: the first
    spans (x_lo, x_hi] x (0, 1), each next one the two cells on each side
    of the previous grid's best node."""
    x0, x1, t0, t1 = x_lo, x_hi, 0.0, 1.0
    best = math.inf
    for _ in range(levels):
        xs = np.linspace(x0, x1, n + 1)[1:]
        ts = np.linspace(t0, t1, n + 2)[1:-1]
        v = f(xs[:, None], ts[None, :])
        i, j = np.unravel_index(np.argmin(v), v.shape)
        best = min(best, float(v[i, j]))
        dx, dt = (x1 - x0) / n, (t1 - t0) / (n + 1)
        x0, x1 = max(x_lo, xs[i] - 2 * dx), min(x_hi, xs[i] + 2 * dx)
        t0, t1 = max(0.0, ts[j] - 2 * dt), min(1.0, ts[j] + 2 * dt)
    return best


def seeded_heat_designs(seed=7, per_kind=3):
    """Heat-plant designs with single, distinct, repeated and conjugate
    poles and delays in [0.02, 0.5]."""
    rng = np.random.default_rng(seed)
    out = []
    for kind in ("single", "distinct", "repeated", "conjugate"):
        for _ in range(per_kind):
            delay = float(rng.uniform(0.02, 0.5))
            if kind == "single":
                c, poles = rng.uniform(1.5, 4.5), [rng.uniform(-6.0, -1.5)]
            else:
                c, p = rng.uniform(5.5, 10.5), rng.uniform(-5.0, -1.5)
                gap = rng.uniform(0.5, 3.0)
                poles = {"distinct": [p - gap, p], "repeated": [p, p],
                         "conjugate": [complex(p, gap), complex(p, -gap)]
                         }[kind]
            sys_ = sd.build_heat_system(5.0, float(c), L, 10)
            out.append((sys_, sd.design_predictor(
                sys_, len(poles), delay, poles, 0.2)))
    return out


class TestSearchOracle:
    """The search against a dense (beta, log gamma2) grid at its gamma1."""

    def test_no_grid_point_beats_the_search(self):
        binds = []
        for sys_, des in seeded_heat_designs():
            b = sd.optimize_parameters(sys_, des)
            base = certificates._base_constants(sys_, des)
            f = partial(grid_gain, base, sys_, des, b.gamma1)
            # the grid's formula is the library's at the search's point
            t = b.beta / (1.0 - b.C5 / b.gamma2)
            assert f(math.log(b.gamma2), t) == pytest.approx(
                b.small_gain_constant, rel=1e-12)
            lo = max(base.norm_bk_sq / (sys_.riesz_lower * base.lam_min_P),
                     base.c5)
            best = grid_best(f, math.log(lo), math.log(lo * 1e6))
            assert b.small_gain_constant <= (1.0 + 1e-9) * best
            binds.append(b.kappa0 == pytest.approx(b.alpha / 4.0,
                                                   rel=1e-12))
        # both branches of beta = max(beta*, k - cap) are exercised
        assert 0 < sum(binds) < len(binds)


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
        # a NaN gain would give a NaN margin, which no margin <= 0 test
        # catches; an infinite L or a1 would zero ct1
        for bad in ({"b1": math.nan}, {"a1": math.inf}, {"d2": -math.inf},
                    {"L": math.inf}, {"L": math.nan}):
            with pytest.raises(InvalidParameterError, match="finite"):
                sd.coupling_constants(**{**COUPLINGS, "L": L, **bad})

    def test_direct_construction_validated(self):
        with pytest.raises(InvalidParameterError, match="ct0"):
            sd.CouplingConstants(ct0=0.5, ct1=0.1, ct2=0.1,
                                 d1=0.1, d2=0.1, d3=0.1)
        with pytest.raises(InvalidParameterError, match="d1"):
            sd.CouplingConstants(ct0=1.5, ct1=0.1, ct2=0.1,
                                 d1=-0.1, d2=0.1, d3=0.1)
        for name in ("ct0", "ct1", "d3"):
            with pytest.raises(InvalidParameterError, match="finite"):
                sd.CouplingConstants(**{**dict(ct0=1.5, ct1=0.1, ct2=0.1,
                                               d1=0.1, d2=0.1, d3=0.1),
                                        name: math.nan})

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
