"""Explicit stability certificates for the ramped, delay-compensated loop.

Given a design (gain K, Lyapunov matrix P) and three scalar weights
(beta, gamma1, gamma2), the functions here compute the explicit constant
family C1..C6 and the decay rate kappa0 entering the closed-loop estimates

    ||X(t)||   <= C4 sqrt(V(t)),
    ||u(t)||   <= ||K|| / sqrt(C2g1) * sqrt(V(t)),
    V(t)       <= exp(-2 kappa0 (t - D - t0)) V(D + t0)
                  + C6 / (2 kappa0) * sup ||d||^2,

where V is the weighted Lyapunov functional that simulate records.  The
product C4 sqrt(C6 / (2 kappa0)) is the plant's disturbance-to-state gain;
interconnection with Lipschitz couplings is certified by small_gain_margin.
optimize_parameters minimizes that gain in closed form in gamma1 (a
relative 1e-6 above its bound C1/lam_min(P)) and in beta (a quadratic's
root, or where kappa0's alpha/2 cap starts to bind), then by a scalar
search over gamma2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import (
    CertificateParameterError,
    InfeasibleCertificateError,
    InvalidParameterError,
)
from .predictor import (PredictorDesign, _history_pad, _lagged,
                        _window_weights)
from .spectral import (SpectralSystem, _finite_float, _run_dtype,
                       check_truncation)

__all__ = [
    "CertificateBundle",
    "CouplingConstants",
    "compute_constants",
    "optimize_parameters",
    "coupling_constants",
    "small_gain_margin",
    "render_certificate",
    "parse_certificate",
]


@dataclass(frozen=True)
class CertificateBundle:
    """Certificate constants for one choice of weights (beta, gamma1, gamma2)."""

    beta: float
    gamma1: float
    gamma2: float
    C1: float
    C2g1: float
    C3g2: float
    C4: float
    C5: float
    C6: float
    kappa0: float
    small_gain_constant: float
    alpha: float
    lam_min_P: float
    lam_max_P: float
    norm_P: float
    norm_BK: float


@dataclass(frozen=True)
class CouplingConstants:
    """Lipschitz-type bounds of an interconnection.

    ct0, ct1, ct2 bound the scalar subsystem's response (initial condition,
    state coupling, exogenous input); d1, d2, d3 bound the disturbance the
    scalar subsystem injects back into the plant.
    """

    ct0: float
    ct1: float
    ct2: float
    d1: float
    d2: float
    d3: float

    def __post_init__(self):
        for f in fields(self):
            _finite_float(getattr(self, f.name), f.name,
                          1.0 if f.name == "ct0" else 0.0)


class _BaseConstants(NamedTuple):
    """Weight-independent part of the certificate arithmetic."""

    alpha: float
    lam_min_P: float
    lam_max_P: float
    norm_bk_sq: float
    c1: float
    c5: float
    m_r: float
    m_R: float
    delay: float


def _base_constants(sys: SpectralSystem, design: PredictorDesign) -> _BaseConstants:
    if design.lyap is None:
        raise InvalidParameterError("design carries no Lyapunov matrix")
    alpha = check_truncation(sys, design.n0).alpha
    m_r = sys.riesz_lower
    m = sys.input_dim
    gain = design.gain

    eig_p = np.linalg.eigvalsh(design.lyap)
    lam_min_P = float(eig_p.min())
    lam_max_P = float(eig_p.max())

    norm_a = float(np.abs(design.eigenvalues).max())
    norm_bk_trunc = float(np.linalg.svd(design.b_n0 @ gain, compute_uv=False)[0])

    # operator norm of the composite input map v -> B K v via the lifting Gram
    kgk = gain.conj().T @ sys.lifting_gram.astype(complex) @ gain
    norm_bk_sq = float(np.linalg.eigvalsh(0.5 * (kgk + kgk.conj().T)).max())
    norm_bk_sq = max(norm_bk_sq, 0.0)

    c1 = 2.0 * max(1.0, design.delay
                   * math.exp(2.0 * design.delay * norm_a) * norm_bk_trunc ** 2)

    row_norms_sq = np.sum(np.abs(gain) ** 2, axis=1)
    rowacl_norms_sq = np.sum(np.abs(gain @ design.a_cl) ** 2, axis=1)
    c5 = (2.0 * m / (alpha * m_r)) * float(
        np.sum(sys.lifting_norm_AB ** 2 * row_norms_sq
               + sys.lifting_norm_B ** 2 * rowacl_norms_sq))

    return _BaseConstants(alpha, lam_min_P, lam_max_P, norm_bk_sq, c1, c5,
                          m_r, sys.riesz_upper, design.delay)


def compute_constants(sys: SpectralSystem, design: PredictorDesign,
                      beta: float, gamma1: float, gamma2: float) -> CertificateBundle:
    """Evaluate the full certificate constant family.

    Raises:
        CertificateParameterError: a weight is outside its domain or a
            feasibility inequality fails; the message names the bound.
    """
    beta, gamma1, gamma2 = float(beta), float(gamma1), float(gamma2)
    if not 0.0 < beta < 1.0:
        raise CertificateParameterError(
            f"beta must lie strictly inside (0, 1), got {beta}")
    if not (0.0 < gamma1 < math.inf and 0.0 < gamma2 < math.inf):
        raise CertificateParameterError(
            f"gamma weights must be positive and finite, got {gamma1}, {gamma2}")

    return _weighted_constants(_base_constants(sys, design),
                               beta, gamma1, gamma2)


def _weighted_constants(base: _BaseConstants, beta: float, gamma1: float,
                        gamma2: float) -> CertificateBundle:
    """The weight-dependent part of compute_constants, on a precomputed base."""
    alpha, lam_min_P, lam_max_P, norm_bk_sq, c1, c5, m_r, m_R, delay = base
    norm_p = lam_max_P  # P is Hermitian positive definite
    norm_bk = math.sqrt(norm_bk_sq)

    if gamma1 <= c1 / lam_min_P:
        raise CertificateParameterError(
            f"gamma1 = {gamma1:.6g} must exceed C1/lam_min(P) = "
            f"{c1 / lam_min_P:.6g}")
    bound_bk = norm_bk_sq / (m_r * lam_min_P)
    if gamma2 <= bound_bk:
        raise CertificateParameterError(
            f"gamma2 = {gamma2:.6g} must exceed ||BK||^2/(m_r lam_min(P)) = "
            f"{bound_bk:.6g}")
    bound_c5 = c5 / (1.0 - beta)
    if gamma2 <= bound_c5:
        raise CertificateParameterError(
            f"gamma2 = {gamma2:.6g} must exceed C5/(1 - beta) = {bound_c5:.6g}")

    c2g1 = gamma1 * lam_min_P - c1
    c3g2 = gamma2 * lam_min_P - norm_bk_sq / m_r
    c4 = math.sqrt(2.0 * m_R) + norm_bk / math.sqrt(c3g2)
    kappa0 = 0.5 * min((1.0 - beta - c5 / gamma2) / lam_max_P, alpha / 2.0)
    c6 = (1.0 / m_r) * (
        2.0 * (m_r + norm_bk_sq) / (alpha * m_r)
        + (gamma1 * (1.0 + delay) + gamma2) * norm_p ** 2 / beta)
    sgc = c4 * math.sqrt(c6 / (2.0 * kappa0))

    return CertificateBundle(
        beta=beta, gamma1=gamma1, gamma2=gamma2,
        C1=c1, C2g1=c2g1, C3g2=c3g2, C4=c4, C5=c5, C6=c6,
        kappa0=kappa0, small_gain_constant=sgc, alpha=alpha,
        lam_min_P=lam_min_P, lam_max_P=lam_max_P, norm_P=norm_p,
        norm_BK=norm_bk,
    )


def _lyapunov_rows(sys: SpectralSystem, design: PredictorDesign,
                   bundle: CertificateBundle, z_history: np.ndarray,
                   dt: float, rows: np.ndarray, x_coeffs: np.ndarray,
                   u_delay: np.ndarray) -> np.ndarray:
    """The weighted Lyapunov functional at ascending rows of one history:

    V(t) = gamma1 [Z* P Z + int_{t-D}^t phi(s) Z(s)* P Z(s) ds]
           + gamma2 phi(t - D) Z(t-D)* P Z(t-D)
           + 1/2 sum_{k > n0} |c_k - <lifting u(t-D)>_k|^2.

    z_history is padded (row k at _history_pad(D, dt) + k); x_coeffs and
    u_delay hold each row's modal state and delayed input.  The integral
    terms of all rows are one convolution of phi Z* P Z with the constant
    trapezoid weights.  Only the history rows the windows reach are read.
    The quadratic forms are real arithmetic when P and Z are real.
    """
    p = design.lyap
    delay = design.delay
    phi = design.transition.phi
    pad = _history_pad(delay, dt)
    w = _window_weights(0.0, delay, dt)[:, 0]
    lo = int(rows[0]) - (len(w) - 1)
    z = z_history[pad + lo:pad + int(rows[-1]) + 1]
    if _run_dtype(p, z) is float:
        p = p.real
    local = rows - lo
    quad = np.einsum("ij,jk,ik->i", z.conj(), p, z).real
    s = phi(np.arange(lo, lo + len(z)) * dt) * quad
    # a window cut at t = 0 differs from the constant one only on node 0
    # (see predictor._RowSolver), where phi(0) = 0, so the constant weights
    # serve every row; phi is 0 on the pad
    integral = np.convolve(s, w)[local]
    z_del = _lagged(z_history, pad + rows, delay / dt)
    term_del = phi(rows * dt - delay) \
        * np.einsum("ij,jk,ik->i", z_del.conj(), p, z_del).real

    n0, n = design.n0, x_coeffs.shape[1]
    tail = x_coeffs[:, n0:] - u_delay @ sys.lifting_coeffs[n0:n].T
    tail_term = 0.5 * np.sum(np.abs(tail) ** 2, axis=1)

    v = (bundle.gamma1 * (quad[local] + integral)
         + bundle.gamma2 * term_del + tail_term)
    # quadratic forms with P > 0; clamp float dust
    return np.maximum(v, 0.0)


# the search's settings: gamma1's relative offset above its open bound, and
# gamma2's log range (lo, lo * span], scan size and golden-section tolerance
_GAMMA1_EPS = 1e-6
_GAMMA2_SPAN = 1e6
_GAMMA2_SCAN = 48
_LOG_TOL = 1e-9
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def optimize_parameters(sys: SpectralSystem,
                        design: PredictorDesign) -> CertificateBundle:
    """Minimize the disturbance-to-state gain over (beta, gamma1, gamma2).

    The gain C4 sqrt(C6/(2 kappa0)) rises with gamma1, which enters only C6,
    so gamma1 = (1 + 1e-6) C1/lam_min(P), just above its open bound.  At a
    fixed gamma2, m_r C6 = a + g/beta and kappa0 = min(k - beta, cap) /
    (2 lam_max(P)), with k = 1 - C5/gamma2 and cap = alpha lam_max(P)/2.
    The gain falls with beta while the cap binds; beyond it, it is least
    at the positive root beta* of a beta^2 + 2 g beta - g k = 0.  So beta =
    max(beta*, k - cap), and only gamma2 is searched: a log scan over
    (lo, 1e6 lo], lo = max(||BK||^2/(m_r lam_min(P)), C5), then golden
    section on the best scan point's bracket.  Same inputs, same bits.

    Raises:
        InfeasibleCertificateError: lo = 0 (a zero gain): no gamma2 is
            admissible.
    """
    # computed once: each evaluation redoes only the weight arithmetic
    base = _base_constants(sys, design)
    alpha, lam_min_P, lam_max_P, norm_bk_sq, c1, c5, m_r, _, delay = base
    lo = max(norm_bk_sq / (m_r * lam_min_P), c5)
    if not lo > 0.0:
        raise InfeasibleCertificateError(
            "a zero gain leaves no admissible gamma2")
    gamma1 = (1.0 + _GAMMA1_EPS) * c1 / lam_min_P
    a = 2.0 * (m_r + norm_bk_sq) / (alpha * m_r)
    cap = alpha * lam_max_P / 2.0

    def at(log_gamma2: float) -> CertificateBundle:
        gamma2 = math.exp(log_gamma2)
        g = (gamma1 * (1.0 + delay) + gamma2) * lam_max_P ** 2
        k = 1.0 - c5 / gamma2
        # beta*, written without the cancellation of (-g + sqrt(.)) / a
        root = g * k / (g + math.sqrt(g * g + a * g * k))
        return _weighted_constants(base, max(root, k - cap), gamma1, gamma2)

    xs = np.linspace(math.log(lo), math.log(lo * _GAMMA2_SPAN),
                     _GAMMA2_SCAN + 1).tolist()
    # xs[0] = log lo is the open bound: a bracket end, never evaluated
    scan = [(at(x).small_gain_constant, x) for x in xs[1:]]
    best = min(scan)
    i = scan.index(best) + 1
    lo_x, hi_x = xs[i - 1], xs[min(i + 1, _GAMMA2_SCAN)]
    c, d = hi_x - _INV_PHI * (hi_x - lo_x), lo_x + _INV_PHI * (hi_x - lo_x)
    fc, fd = at(c).small_gain_constant, at(d).small_gain_constant
    while hi_x - lo_x > _LOG_TOL:
        if fc < fd:
            hi_x, d, fd = d, c, fc
            c = hi_x - _INV_PHI * (hi_x - lo_x)
            fc = at(c).small_gain_constant
        else:
            lo_x, c, fc = c, d, fd
            d = lo_x + _INV_PHI * (hi_x - lo_x)
            fd = at(d).small_gain_constant
    return at(min(best, (fc, c), (fd, d))[1])


def coupling_constants(a1: float, b1: float, c1: float, a2: float, b2: float,
                       c2: float, d2: float, L: float) -> CouplingConstants:
    """Lipschitz bounds for the built-in scalar/plant interconnection.

    The scalar subsystem x' = -a1 x + (b1/L) <eta, X> + c1 v feeds back the
    in-domain disturbance a2 x theta1 + b2 arctan((d2/L) <eta, X>) theta2 +
    c2 v theta3 with unit-norm profiles.
    """
    a1 = _finite_float(a1, "a1", 0.0, strict=True)
    L = _finite_float(L, "L", 0.0, strict=True)
    b1, c1, a2, b2, c2, d2 = (_finite_float(value, name) for name, value in (
        ("b1", b1), ("c1", c1), ("a2", a2), ("b2", b2), ("c2", c2), ("d2", d2)))
    return CouplingConstants(
        ct0=math.sqrt(2.0),
        ct1=2.0 * abs(b1) / (a1 * L),
        ct2=2.0 * abs(c1) / a1,
        d1=abs(a2),
        d2=abs(b2 * d2) / L,
        d3=abs(c2),
    )


def small_gain_margin(bundle: CertificateBundle,
                      coupling: CouplingConstants) -> float:
    """1 - (d1 ct1 + d2) * C4 sqrt(C6/(2 kappa0)); positive certifies the loop."""
    return 1.0 - (coupling.d1 * coupling.ct1 + coupling.d2) \
        * bundle.small_gain_constant


_REPORT_KEYS = ("beta", "gamma1", "gamma2", "C1", "C2g1", "C3g2", "C4", "C5",
                "C6", "kappa0", "small_gain_constant", "margin")


def render_certificate(bundle: CertificateBundle, margin: float) -> str:
    """Flat `name = value` report with a fixed key set and order."""
    return "".join(
        f"{k} = {float(margin if k == 'margin' else getattr(bundle, k))!r}\n"
        for k in _REPORT_KEYS)


def parse_certificate(text: str) -> dict[str, float]:
    """Read back a report produced by render_certificate."""
    out: dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        key, _, value = line.partition("=")
        out[key.strip()] = float(value)
    missing = [k for k in _REPORT_KEYS if k not in out]
    if missing:
        raise InvalidParameterError(f"report is missing keys: {missing}")
    return out
