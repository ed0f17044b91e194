"""Gain synthesis and delay compensation for the retained modal block.

The retained modes Y satisfy Y'(t) = A Y(t) + B u(t - D).  The predictor
state

    Z(t) = Y(t) + int_{t-D}^{t} exp((t - s - D) A) B u(s) ds

turns the delayed loop into Z'(t) = A Z(t) + exp(-D A) B u(t) + d(t), so a
gain K placing the spectrum of A + exp(-D A) B K yields, with the smoothly
ramped feedback u = phi(t) K Z(t), an exponentially stable closed loop once
the ramp has completed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._loop import _ones_from, _row_solver, _RowSolver
from .errors import InvalidParameterError, SynthesisFailureError
from .spectral import (SpectralSystem, _count, _finite_float, _frozen_array,
                       _group_close, _pbh_controllable)

__all__ = [
    "TransitionSignal",
    "PredictorDesign",
    "place_poles",
    "solve_lyapunov",
    "design_predictor",
    "zero_gain_design",
    "invert_artstein",
]


@dataclass(frozen=True)
class TransitionSignal:
    """Quintic ramp from 0 to 1 over [0, t0] with two flat derivatives.

    phi(t) = 10 s^3 - 15 s^4 + 6 s^5 with s = clip(t / t0, 0, 1); phi, phi'
    and phi'' are continuous and phi' = phi'' = 0 at both ends.  The peak
    slope is 15 / (8 t0).
    """

    t0: float

    def __post_init__(self):
        _finite_float(self.t0, "t0", 0.0, strict=True)

    def phi(self, t):
        s = np.clip(np.asarray(t, dtype=float) / self.t0, 0.0, 1.0)
        return s ** 3 * (10.0 + s * (-15.0 + 6.0 * s))


def _canonical_poles(poles: Sequence[complex]) -> tuple[complex, ...]:
    # quantize the sort key so that eigenvalue roundoff cannot reorder a
    # conjugate pair whose real parts differ only in the last bits
    def key(z):
        return (round(z.real, 9), round(z.imag, 9))

    return tuple(sorted((complex(p) for p in poles), key=key))


def _seed_directions(m: int):
    """Deterministic sequence of rank-one reduction directions.

    Starts from the symmetric direction; on failure each coordinate is
    nudged in turn, with the smallest deviation first and the magnitude
    doubling every full round.
    """
    q0 = np.ones(m) / math.sqrt(m)
    yield q0
    for trial in range(4 * m):
        j = trial % m
        mag = 0.1 * 2.0 ** (trial // m)
        e = np.zeros(m)
        e[j] = mag
        q = q0 + e
        yield q / np.linalg.norm(q)


def _ackermann(lam: np.ndarray, b: np.ndarray, poles: Sequence[complex]) -> np.ndarray:
    """Single-input pole placement gain k with spec(diag(lam) + b k) = poles."""
    n = lam.size
    ctrl = b[:, None] * lam[:, None] ** np.arange(n)[None, :]
    # p(A) is diagonal for diagonal A: evaluate the desired characteristic
    # polynomial at each eigenvalue
    pvals = np.ones(n, dtype=complex)
    for p in poles:
        pvals *= lam - p
    w = np.linalg.solve(ctrl.T, np.eye(n, dtype=complex)[:, -1])
    return -(w * pvals)


def place_poles(lam: np.ndarray, b: np.ndarray,
                poles: Sequence[complex]) -> np.ndarray:
    """Pole placement for a diagonal pair through a rank-one gain.

    The gain has the form K = q k with a fixed direction q in input space
    and a single-input Ackermann row k, so the result is deterministic.  If
    the collapsed pair (diag(lam), b q) is uncontrollable for the default
    direction, a fixed sequence of perturbed directions is tried.

    Args:
        lam: the n eigenvalues of the diagonal state matrix.
        b: input matrix (n, m) of the delay-free pair (see design_predictor).
        poles: n finite desired closed-loop eigenvalues; with real data the
            set must be closed under conjugation.

    Returns:
        K of shape (m, n) with spec(diag(lam) + b @ K) = poles (within 1e-6).
    """
    lam, poles = _frozen_array(lam, "lam"), _frozen_array(poles, "poles")
    b = np.atleast_2d(_frozen_array(b, "b"))
    n = lam.size
    if lam.ndim != 1 or b.shape[0] != n:
        raise InvalidParameterError(
            "lam must be a vector and b must have one row per entry")
    if poles.shape != (n,):
        raise InvalidParameterError(
            f"poles must be a vector of {n} entries, got shape {poles.shape}")
    poles = _canonical_poles(poles)

    real_data = np.abs(np.append(lam.imag, b.imag)).max(initial=0.0) <= 1e-12
    if real_data:
        conj_set = _canonical_poles(np.conj(poles))
        if any(abs(p - q) > 1e-12 * max(1.0, abs(p))
               for p, q in zip(poles, conj_set)):
            raise InvalidParameterError(
                "poles must be closed under conjugation for a real system")

    if not _pbh_controllable(lam, b):
        raise SynthesisFailureError("the pair (A, B) is not controllable")
    # a rank-one gain can only place simple spectra
    if len(_group_close(lam, 1e-9)) < n:
        raise SynthesisFailureError(
            "rank-one reduction requires pairwise distinct eigenvalues")

    for q in _seed_directions(b.shape[1]):
        bq = b @ q.astype(complex)
        if float(np.abs(bq).min()) <= 1e-9 * max(1.0, float(np.abs(bq).max())):
            continue
        # poles far beyond the spectrum overflow the gain or the loop
        with np.errstate(over="ignore", invalid="ignore"):
            gain = np.outer(q, _ackermann(lam, bq, poles))
            a_cl = np.diag(lam) + b @ gain
        if not np.isfinite(a_cl).all():
            raise SynthesisFailureError(
                "the placed gain is not finite: the poles are too far out")
        achieved = _canonical_poles(np.linalg.eigvals(a_cl))
        err = max(abs(p - q_) for p, q_ in zip(poles, achieved))
        if err <= 1e-6 * max(1.0, max(abs(p) for p in poles)):
            if real_data:
                gain = gain.real.astype(complex)
            return gain
    raise SynthesisFailureError(
        "rank-one reduction failed for every deterministic direction")


def solve_lyapunov(a_cl: np.ndarray) -> np.ndarray:
    """Solve A* P + P A = -I for Hermitian positive definite P.

    Uses the Kronecker vectorization of the Sylvester form and then
    symmetrizes.  The residual must come back below 1e-12 ||A||_2 ||P||_2,
    and lambda_min(P) above 1e6 eps ||P||_2: the certificate constants
    divide by lambda_min(P), and this keeps six correct digits in it.

    Raises:
        InvalidParameterError: a_cl is not Hurwitz.
        SynthesisFailureError: the solve is singular or inaccurate, or P is
            ill-conditioned.
    """
    a_cl = np.atleast_2d(_frozen_array(a_cl, "a_cl"))
    n = a_cl.shape[0]
    if a_cl.shape[1] != n:
        raise InvalidParameterError("a_cl must be square")
    if float(np.linalg.eigvals(a_cl).real.max()) >= 0.0:
        raise InvalidParameterError("a_cl must be Hurwitz")
    return _lyapunov(a_cl)


def _lyapunov(a_cl: np.ndarray) -> np.ndarray:
    """solve_lyapunov on a square, finite, Hurwitz a_cl, unchecked."""
    n = a_cl.shape[0]
    eye = np.eye(n, dtype=complex)
    # the Kronecker sum I (x) A* + A^T (x) I as an (i, j, k, l) product
    mat = (eye[:, None, :, None] * a_cl.conj().T[None, :, None, :]
           + a_cl.T[:, None, :, None] * eye[None, :, None, :]).reshape(
               n * n, n * n)
    rhs = (-eye).reshape(-1, order="F")
    try:
        vec = np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise SynthesisFailureError(f"Lyapunov solve failed: {exc}") from exc
    p = vec.reshape((n, n), order="F")
    p = 0.5 * (p + p.conj().T)
    lo, hi = np.linalg.eigvalsh(p)[[0, -1]]
    if not lo > 1e6 * np.finfo(float).eps * hi:
        raise SynthesisFailureError(
            "the Lyapunov matrix is ill-conditioned, cond(P) = "
            f"{hi / lo if lo > 0 else math.inf:.3g}")
    residual = float(np.abs(a_cl.conj().T @ p + p @ a_cl + eye).max())
    if residual > 1e-12 * np.linalg.norm(a_cl, 2) * hi:
        raise SynthesisFailureError(
            f"Lyapunov residual {residual:.3e} exceeds 1e-12 ||A|| ||P||")
    return p


@dataclass(frozen=True, eq=False)
class PredictorDesign:
    """The delayed feedback loop of the retained modes: its inputs, as
    read-only copies, and the closed loop and Lyapunov matrix derived once,
    read-only as well.

    Attributes:
        eigenvalues: (n0,) retained eigenvalues; A = diag(eigenvalues).
        b_n0: (n0, m) retained input gains B.
        delay: input delay D >= 0, finite.
        gain: feedback gain K (m, n0); the applied input is phi(t) K Z(t).
        transition: the feedback ramp.
        a_cl: derived, A + exp(-D A) B K.
        lyap: derived, Hermitian P > 0 with a_cl* P + P a_cl = -I, or None
            when a_cl is not Hurwitz (as for a zero gain on an unstable
            block).  The certificate needs it.
    """

    eigenvalues: np.ndarray
    b_n0: np.ndarray
    delay: float
    gain: np.ndarray
    transition: TransitionSignal
    a_cl: np.ndarray = field(init=False)
    lyap: np.ndarray | None = field(init=False)
    # the row solver of the last step used (`_row_solver`), built on first use
    _solver: _RowSolver | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        lam, b = (_frozen_array(self.eigenvalues, "eigenvalues"),
                  _frozen_array(self.b_n0, "b_n0"))
        try:  # finiteness is checked through A_cl, whose error names D
            gain = np.array(self.gain, dtype=complex)
        except (TypeError, ValueError) as exc:
            raise InvalidParameterError(
                f"gain must be numeric: {exc}") from None
        n0, m = lam.size, (gain.shape[0] if gain.ndim else -1)
        if [lam.shape, b.shape, gain.shape] != [(n0,), (n0, m), (m, n0)]:
            raise InvalidParameterError(
                "eigenvalues, b_n0 and gain must have shapes (n0,), (n0, m) "
                "and (m, n0)")
        delay = _finite_float(self.delay, "delay", 0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            a_cl = np.diag(lam) + np.exp(-delay * lam)[:, None] * b @ gain
        if not np.isfinite(a_cl).all():
            raise InvalidParameterError(
                f"exp(-D A) B K overflows: delay D = {delay} is too long")
        a_cl.setflags(write=False)
        gain.setflags(write=False)
        try:
            lyap = (_frozen_array(_lyapunov(a_cl), "P")
                    if np.linalg.eigvals(a_cl).real.max() < 0 else None)
        except SynthesisFailureError as exc:
            raise SynthesisFailureError(f"delay D = {delay}: {exc}") from None
        for name, value in zip(
                ("eigenvalues", "b_n0", "delay", "gain", "a_cl", "lyap"),
                (lam, b, delay, gain, a_cl, lyap)):
            object.__setattr__(self, name, value)

    @property
    def n0(self) -> int:
        return self.eigenvalues.size

    @property
    def input_dim(self) -> int:
        return self.b_n0.shape[1]


def _retained(sys: SpectralSystem, n0: int):
    """(eigenvalues, input gains) of the first n0 modes."""
    n0 = _count(n0, "n0", 1, sys.n_max)
    return sys.eigenvalues[:n0], sys.input_coeffs[:n0]


def zero_gain_design(sys: SpectralSystem, n0: int, delay: float,
                     t0: float) -> PredictorDesign:
    """Open-loop design of the first n0 modes, with K = 0."""
    lam, b = _retained(sys, n0)
    return PredictorDesign(lam, b, delay, np.zeros(b.shape[::-1]),
                           TransitionSignal(t0))


def design_predictor(sys: SpectralSystem, n0: int, delay: float,
                     poles: Sequence[complex], t0: float) -> PredictorDesign:
    """Full synthesis: the gain K placing spec(A + exp(-D A) B K) = poles.

    exp(-D A) is a diagonal similarity, so K = K0 exp(D A), where K0 places
    spec(A + B K0) = poles on the delay-free pair (A, B).

    Args:
        sys: the plant.
        n0: retained mode count, 1 <= n0 <= n_max.
        delay: input delay D >= 0, finite.
        poles: n0 finite desired closed-loop eigenvalues.  Placement does
            not require them to be Hurwitz, but the certificate does: for a
            non-Hurwitz placement the design carries the placed gain with
            lyap = None.
        t0: ramp duration.
    """
    lam, b = _retained(sys, n0)
    delay = _finite_float(delay, "delay", 0.0)
    with np.errstate(over="ignore", invalid="ignore"):  # the design rejects inf
        gain = place_poles(lam, b, poles) * np.exp(delay * lam)
    return PredictorDesign(lam, b, delay, gain, TransitionSignal(t0))


def invert_artstein(design: PredictorDesign, times: np.ndarray, y_path,
                    phi=None) -> np.ndarray:
    """Recover the input consistent with a modal trajectory.

    Solves v(t) = phi(t) K [Y(t) + int exp((t-s-D)A) B v(s) ds] on the
    sample grid.  With the window's fixed trapezoid weights the discrete
    Volterra system is lower triangular, so one forward-substitution pass
    solves it, by the blocks and with the row solver that a `simulate` at
    the same step uses (see `_loop`).  A window that starts before t = 0
    is integrated from 0.  The arithmetic is real when the design and
    y_path are, and complex otherwise.

    Args:
        design: the predictor design (supplies A, B, K, D).
        times: uniform, increasing sample grid starting at 0.
        y_path: (len(times), n0) samples of Y.
        phi: ramp override, a callable t -> phi(t) giving finite values of
            shape () or (len(times),).  Defaults to the design's ramp.

    Returns:
        (len(times), m) input samples.
    """
    times = _frozen_array(times, "times", float)
    if times.ndim != 1 or times.size < 2:
        raise InvalidParameterError("times must contain at least two samples")
    dt = times[1] - times[0]
    if not (dt > 0 and float(np.abs(np.diff(times) - dt).max()) <= 1e-9 * dt):
        raise InvalidParameterError("times must be a uniform grid")
    if abs(times[0]) > 1e-12:
        raise InvalidParameterError("the sample grid must start at t = 0")
    y = _frozen_array(y_path, "y_path")
    if y.shape != (times.size, design.n0):
        raise InvalidParameterError(
            f"y_path must have shape ({times.size}, {design.n0})")

    if phi is not None and not callable(phi):
        raise InvalidParameterError(
            f"phi must be a callable t -> phi(t), got {phi!r}")
    phi_vals = _frozen_array(
        (design.transition.phi if phi is None else phi)(times), "phi values",
        float)
    if phi_vals.shape not in ((), times.shape):
        raise InvalidParameterError(
            f"phi must give one value per sample or one for all, "
            f"got shape {phi_vals.shape}")
    phi_vals = np.broadcast_to(phi_vals, times.shape)

    solve = _row_solver(design, dt)
    dtype = solve.run_dtype(y)
    if dtype is float:
        y = y.real
    hist = np.zeros((solve.pad + times.size, design.input_dim), dtype)
    v = hist[solve.pad:]
    # row 0's window is empty, so Z_0 = Y_0
    v[0] = phi_vals[0] * (solve.gain @ y[0])
    ones = _ones_from(phi_vals)
    for a in range(0, times.size - 1, solve.rows):
        block = slice(a + 1, a + 1 + solve.rows)
        v[block] = solve(hist, a, y[block], phi_vals[block], ones)[1]
    return v
