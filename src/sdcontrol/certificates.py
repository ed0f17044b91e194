"""Explicit stability certificates for the ramped, delay-compensated loop.

Given a design (gain K, Lyapunov matrix P) and three scalar weights
(beta, gamma1, gamma2), the functions here compute the explicit constant
family C1..C6 and the decay rate kappa0 entering the closed-loop estimates

    ||X(t)||   <= C4 sqrt(V(t)),
    ||u(t)||   <= ||K|| / sqrt(C2g1) * sqrt(V(t)),
    V(t)       <= exp(-2 kappa0 (t - D - t0)) V(D + t0)
                  + C6 / (2 kappa0) * sup ||d||^2,

where V is the weighted Lyapunov functional evaluated by evaluate_V.  The
product C4 sqrt(C6 / (2 kappa0)) is the plant's disturbance-to-state gain;
interconnection with Lipschitz couplings is certified by small_gain_margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    CertificateParameterError,
    InfeasibleCertificateError,
    InvalidParameterError,
)
from .predictor import (PredictorDesign, _history_pad, _lagged,
                        _window_weights)
from .spectral import SpectralSystem, check_truncation

__all__ = [
    "CertificateBundle",
    "CouplingConstants",
    "compute_constants",
    "evaluate_V",
    "optimize_parameters",
    "coupling_constants",
    "small_gain_margin",
    "render_certificate",
    "parse_certificate",
    "nelder_mead",
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
        if self.ct0 < 1.0:
            raise InvalidParameterError("ct0 must be at least 1")
        for name in ("ct1", "ct2", "d1", "d2", "d3"):
            if getattr(self, name) < 0:
                raise InvalidParameterError(f"{name} must be nonnegative")


class _BaseConstants(NamedTuple):
    """Weight-independent part of the certificate arithmetic."""

    alpha: float
    lam_min_p: float
    lam_max_p: float
    norm_bk_sq: float
    c1: float
    c5: float


def _base_constants(sys: SpectralSystem, design: PredictorDesign) -> _BaseConstants:
    if design.lyap is None:
        raise InvalidParameterError("design carries no Lyapunov matrix")
    alpha = check_truncation(sys, design.n0).alpha
    m_r = sys.riesz_lower
    m = sys.input_dim
    gain = np.asarray(design.gain, dtype=complex)

    eig_p = np.linalg.eigvalsh(design.lyap)
    lam_min_p = float(eig_p.min())
    lam_max_p = float(eig_p.max())

    norm_a = float(np.abs(np.diag(design.a_n0)).max())
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

    return _BaseConstants(alpha, lam_min_p, lam_max_p, norm_bk_sq, c1, c5)


def compute_constants(sys: SpectralSystem, design: PredictorDesign,
                      beta: float, gamma1: float, gamma2: float) -> CertificateBundle:
    """Evaluate the full certificate constant family.

    Raises:
        CertificateParameterError: a feasibility inequality fails; the
            message names the violated bound.
    """
    beta, gamma1, gamma2 = float(beta), float(gamma1), float(gamma2)
    if not 0.0 < beta < 1.0:
        raise CertificateParameterError(
            f"beta must lie strictly inside (0, 1), got {beta}")
    if gamma1 <= 0 or gamma2 <= 0:
        raise CertificateParameterError("gamma weights must be positive")

    return _weighted_constants(_base_constants(sys, design), sys.riesz_lower,
                               sys.riesz_upper, design.delay,
                               beta, gamma1, gamma2)


def _weighted_constants(base: _BaseConstants, m_r: float, m_R: float,
                        delay: float, beta: float, gamma1: float,
                        gamma2: float) -> CertificateBundle:
    """The weight-dependent part of compute_constants, on a precomputed base."""
    alpha, lam_min_p, lam_max_p, norm_bk_sq, c1, c5 = base
    norm_p = lam_max_p  # P is Hermitian positive definite
    norm_bk = math.sqrt(norm_bk_sq)

    if gamma1 <= c1 / lam_min_p:
        raise CertificateParameterError(
            f"gamma1 = {gamma1:.6g} must exceed C1/lam_min(P) = "
            f"{c1 / lam_min_p:.6g}")
    bound_bk = norm_bk_sq / (m_r * lam_min_p)
    if gamma2 <= bound_bk:
        raise CertificateParameterError(
            f"gamma2 = {gamma2:.6g} must exceed ||BK||^2/(m_r lam_min(P)) = "
            f"{bound_bk:.6g}")
    bound_c5 = c5 / (1.0 - beta)
    if gamma2 <= bound_c5:
        raise CertificateParameterError(
            f"gamma2 = {gamma2:.6g} must exceed C5/(1 - beta) = {bound_c5:.6g}")

    c2g1 = gamma1 * lam_min_p - c1
    c3g2 = gamma2 * lam_min_p - norm_bk_sq / m_r
    c4 = math.sqrt(2.0 * m_R) + norm_bk / math.sqrt(c3g2)
    kappa0 = 0.5 * min(
        (1.0 - beta) / lam_max_p,
        (1.0 - beta - c5 / gamma2) / lam_max_p,
        alpha / 2.0,
    )
    c6 = (1.0 / m_r) * (
        2.0 * (m_r + norm_bk_sq) / (alpha * m_r)
        + (gamma1 * (1.0 + delay) + gamma2) * norm_p ** 2 / beta)
    sgc = c4 * math.sqrt(c6 / (2.0 * kappa0))

    return CertificateBundle(
        beta=float(beta), gamma1=float(gamma1), gamma2=float(gamma2),
        C1=c1, C2g1=c2g1, C3g2=c3g2, C4=c4, C5=c5, C6=c6,
        kappa0=kappa0, small_gain_constant=sgc, alpha=alpha,
        lam_min_P=lam_min_p, lam_max_P=lam_max_p, norm_P=norm_p,
        norm_BK=norm_bk,
    )


def _lyapunov_rows(sys: SpectralSystem, design: PredictorDesign,
                   bundle: CertificateBundle, z_history: np.ndarray,
                   dt: float, rows: np.ndarray, x_coeffs: np.ndarray,
                   u_delay: np.ndarray) -> np.ndarray:
    """The functional of evaluate_V at ascending rows of one history.

    z_history is padded (row k at _history_pad(D, dt) + k); x_coeffs and
    u_delay hold each row's modal state and delayed input.  The integral
    terms of all rows are one convolution of phi Z* P Z with the constant
    trapezoid weights.  Only the history rows the windows reach are read.
    """
    p = design.lyap
    delay = design.delay
    phi = design.transition.phi
    pad = _history_pad(delay, dt)
    w = _window_weights(0.0, delay, dt)[:, 0]
    lo = int(rows[0]) - (len(w) - 1)
    z = z_history[pad + lo:pad + int(rows[-1]) + 1]
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


def evaluate_V(sys: SpectralSystem, design: PredictorDesign,
               bundle: CertificateBundle, z_history: np.ndarray, dt: float,
               x_coeffs: np.ndarray, u_delay: np.ndarray) -> float:
    """Weighted Lyapunov functional at the time t of the newest history row.

    V = gamma1 [Z* P Z + int_{t-D}^t phi(s) Z(s)* P Z(s) ds]
        + gamma2 phi(t - D) Z(t-D)* P Z(t-D)
        + 1/2 sum_{k > n0} |c_k - <lifting u(t-D)>_k|^2.

    Args:
        z_history: predictor states at 0, dt, ..., t (row i at time i dt).
        dt: the history's step.
        x_coeffs: modal state (length >= n0).
        u_delay: the delayed input u(t - D).
    """
    if design.lyap is None:
        raise InvalidParameterError("design carries no Lyapunov matrix")
    coeffs = np.atleast_1d(np.asarray(x_coeffs, dtype=complex))
    if coeffs.size < design.n0 or coeffs.size > sys.n_max:
        raise InvalidParameterError(
            f"x_coeffs length must lie in [{design.n0}, {sys.n_max}]")
    if dt <= 0:
        raise InvalidParameterError(f"dt must be positive, got {dt}")
    u_delay = np.asarray(u_delay, dtype=complex)
    if u_delay.shape != (sys.input_dim,):
        raise InvalidParameterError(
            f"u_delay must have shape ({sys.input_dim},), got {u_delay.shape}")
    z_hist = np.atleast_2d(np.asarray(z_history, dtype=complex))
    if z_hist.shape[1] != design.n0:
        raise InvalidParameterError(
            f"z_history must have {design.n0} columns, got {z_hist.shape[1]}")
    row = np.array([len(z_hist) - 1])
    z_hist = np.pad(z_hist, ((_history_pad(design.delay, dt), 0), (0, 0)))
    return float(_lyapunov_rows(sys, design, bundle, z_hist, dt, row,
                                coeffs[None], u_delay[None])[0])


def nelder_mead(f: Callable[[np.ndarray], float], x0: np.ndarray,
                step: float = 0.05, rel_tol: float = 1e-6,
                max_iter: int = 2000) -> tuple[np.ndarray, float]:
    """Derivative-free simplex descent with fixed classical coefficients.

    Reflection 1, expansion 2, contraction 0.5, shrink 0.5.  The initial
    simplex scales each coordinate of the start point by (1 + step).
    Terminates when every vertex agrees with the best one to rel_tol per
    coordinate (relative to max(1, |coordinate|)) or at the iteration cap,
    returning the best vertex either way.  Fully deterministic.
    """
    # the simplex is a list of vertices, each a list of floats: on the
    # search's 3 weights numpy's per-call overhead would cost more than the
    # objective.  Every operation keeps the arithmetic order of the array
    # form (the centroid adds the vertices in turn, then divides by n), so
    # the iterates are the same bits.
    x0 = np.asarray(x0, dtype=float).tolist()
    n = len(x0)
    simplex = [x0]
    for i in range(n):
        v = list(x0)
        v[i] = v[i] * (1.0 + step) if v[i] != 0.0 else step
        simplex.append(v)

    def at(v: list) -> float:
        return float(f(np.array(v)))

    fvals = [at(v) for v in simplex]
    for _ in range(max_iter):
        order = sorted(range(n + 1), key=fvals.__getitem__)
        simplex, fvals = [simplex[j] for j in order], [fvals[j] for j in order]
        best = simplex[0]
        scale = [max(1.0, abs(b)) for b in best]
        spread = max(abs(c - b) / s for v in simplex
                     for c, b, s in zip(v, best, scale))
        if spread < rel_tol:
            break
        centroid = simplex[0]
        for v in simplex[1:-1]:
            centroid = [c + d for c, d in zip(centroid, v)]
        centroid = [c / n for c in centroid]
        worst, f_worst = simplex[-1], fvals[-1]
        xr = [c + (c - w) for c, w in zip(centroid, worst)]
        fr = at(xr)
        if fr < fvals[0]:
            xe = [c + 2.0 * (c - w) for c, w in zip(centroid, worst)]
            fe = at(xe)
            simplex[-1], fvals[-1] = (xe, fe) if fe < fr else (xr, fr)
        elif fr < fvals[-2]:
            simplex[-1], fvals[-1] = xr, fr
        else:
            if fr < f_worst:
                xc = [c + 0.5 * (r - c) for c, r in zip(centroid, xr)]
                fc = at(xc)
                if fc <= fr:
                    simplex[-1], fvals[-1] = xc, fc
                    continue
            else:
                xc = [c - 0.5 * (c - w) for c, w in zip(centroid, worst)]
                fc = at(xc)
                if fc < f_worst:
                    simplex[-1], fvals[-1] = xc, fc
                    continue
            simplex[1:] = [[b + 0.5 * (c - b) for b, c in zip(best, v)]
                           for v in simplex[1:]]
            fvals[1:] = [at(v) for v in simplex[1:]]

    i_best = min(range(n + 1), key=fvals.__getitem__)
    return np.array(simplex[i_best]), fvals[i_best]


_BETA_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
_GAMMA_MULTIPLIERS = (1.5, 3.0, 10.0)
_N_STARTS = 3


def optimize_parameters(sys: SpectralSystem,
                        design: PredictorDesign) -> CertificateBundle:
    """Minimize the disturbance-to-state gain over (beta, gamma1, gamma2).

    A coarse feasible-start scan (beta grid crossed with multiples of each
    weight's feasibility lower bound) seeds three simplex descents, at
    nelder_mead's defaults, on the penalized objective (infeasible points
    score +inf); the best feasible bundle wins.  Deterministic: same
    inputs give a bitwise-identical bundle.

    Raises:
        InfeasibleCertificateError: the scan finds no feasible start.
    """
    # computed once: each evaluation redoes only the weight arithmetic
    base = _base_constants(sys, design)
    bundle_at = partial(_weighted_constants, base, sys.riesz_lower,
                        sys.riesz_upper, design.delay)

    def objective(x: np.ndarray) -> float:
        b, g1, g2 = float(x[0]), float(x[1]), float(x[2])
        if not (0.0 < b < 1.0) or g1 <= 0.0 or g2 <= 0.0:
            return math.inf
        try:
            return bundle_at(b, g1, g2).small_gain_constant
        except CertificateParameterError:
            return math.inf

    g1_min = base.c1 / base.lam_min_p
    bk_bound = base.norm_bk_sq / (sys.riesz_lower * base.lam_min_p)

    candidates = []
    for beta in _BETA_GRID:
        g2_min = max(bk_bound, base.c5 / (1.0 - beta))
        for m1 in _GAMMA_MULTIPLIERS:
            for m2 in _GAMMA_MULTIPLIERS:
                x = np.array([beta, m1 * g1_min, m2 * g2_min])
                fx = objective(x)
                if math.isfinite(fx):
                    candidates.append((fx, x))
    if not candidates:
        raise InfeasibleCertificateError(
            "the feasible-start scan found no admissible weights")
    candidates.sort(key=lambda c: c[0])

    best_x, best_f = None, math.inf
    for fx, x in candidates[:_N_STARTS]:
        xs, fs = nelder_mead(objective, x)
        if fs < best_f:
            best_x, best_f = xs, fs
    if best_x is None or not math.isfinite(best_f):
        raise InfeasibleCertificateError("the weight search failed to converge")
    return bundle_at(*map(float, best_x))


def coupling_constants(a1: float, b1: float, c1: float, a2: float, b2: float,
                       c2: float, d2: float, L: float) -> CouplingConstants:
    """Lipschitz bounds for the built-in scalar/plant interconnection.

    The scalar subsystem x' = -a1 x + (b1/L) <eta, X> + c1 v feeds back the
    in-domain disturbance a2 x theta1 + b2 arctan((d2/L) <eta, X>) theta2 +
    c2 v theta3 with unit-norm profiles.
    """
    if a1 <= 0:
        raise InvalidParameterError(f"a1 must be positive, got {a1}")
    if L <= 0:
        raise InvalidParameterError(f"L must be positive, got {L}")
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
