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

from .errors import InvalidParameterError, SynthesisFailureError
from .spectral import (SpectralSystem, _count, _finite_float, _frozen_array,
                       _group_close, _pbh_controllable, _run_dtype)

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


def _split_steps(x: float) -> tuple[int, float]:
    """Whole and fractional part of a step count, snapping roundoff to 0."""
    j = math.floor(x + 1e-9)
    f = x - j
    return j, (f if f > 1e-9 else 0.0)


def _window_weights(lam, delay: float, dt: float) -> np.ndarray:
    """Fixed quadrature weights of the predictor window on a uniform grid.

    Histories are plain arrays indexed by step: row i holds the signal at
    time i dt, and the signal is zero before t = 0.  The weights w give the
    trapezoid rule

        int_{t_i - D}^{t_i} exp((t_i - s - D) lam) g(s) ds
            ~ sum_j w[j] * g[i - j].

    When D / dt is not whole, the partial panel at the old end of the
    window takes g there by linear interpolation of the two oldest slots.
    The weights depend on neither i nor g, so one table serves every row
    whose window lies in t >= 0 (for a window cut at t = 0, see _RowSolver).
    lam = 0 gives the plain trapezoid weights.

    Returns:
        (len(w), lam.size) array; w[j] multiplies the sample j steps back.
    """
    lam = np.atleast_1d(lam)
    q, r = _split_steps(delay / dt)
    trap = np.full(q + 1, float(dt))
    trap[[0, -1]] = dt / 2.0 if q else 0.0
    w = np.exp(np.outer(np.arange(q + 1) * dt - delay, lam)) * trap[:, None]
    if r:
        # panel [t - D, t - q dt] of width r dt; the kernel is 1 at t - D,
        # where g is (1 - r) g[i - q] + r g[i - q - 1]
        half = r * dt / 2.0
        w[q] += half * (np.exp((q * dt - delay) * lam) + (1.0 - r))
        w = np.vstack([w, np.full((1, lam.size), half * r)])
    return w


def _history_pad(delay: float, dt: float) -> int:
    """Zero rows ahead of t = 0 in every history: row k sits at pad + k.

    No reader looks back more than one delay, which the 2-point
    interpolation of a partial step makes floor(D / dt) + 1 rows.
    """
    return _split_steps(delay / dt)[0] + 1


def _taps(steps: float) -> list[tuple[int, float]]:
    """(rows back, weight) of the linear interpolation `steps` rows back."""
    q, f = _split_steps(steps)
    return [(q, 1.0 - f), (q + 1, f)] if f else [(q, 1.0)]


def _lagged(hist: np.ndarray, idx, steps: float) -> np.ndarray:
    """A padded history's values `steps` rows before the indices idx (an
    index array or not), whose zero pad holds the values before t = 0."""
    return sum(w * hist[idx - back] for back, w in _taps(steps))


# the fewest and the most rows of a block solve.  A block is one delay
# window, floor(D / dt) rows, held to this range (`_solve_rows`); its
# tables, the inverses included, grow with the square of the count.
# Against a fixed 32 rows, in-process pooled medians of the ensemble
# workload's simulate and invert_artstein (two-core Xeon, Python 3.11,
# numpy 2.4, one BLAS thread), with the peak memory of one D = 0.1237 run:
# a cap of 48 rows -23 % (+0.4 MB), 64 -26 % (+1.3 MB), 80 -28 % (+1.9 MB)
# and the whole window (up to 123 rows) -29 % (+4.5 MB); 32 rows with only
# the one-product forcing -13 %, and a fixed 64 rows for the inversion,
# out of step with simulate's shorter blocks, -19 %
_SOLVE_ROWS = 32, 64


def _solve_rows(delay: float, dt: float) -> int:
    """Rows per block solve: one delay window within _SOLVE_ROWS.  A simulate
    block advances at most floor(D / dt) steps, so from D / dt >= 32 on
    simulate and invert_artstein start their blocks at the same rows."""
    least, most = _SOLVE_ROWS
    return min(most, max(least, _split_steps(delay / dt)[0]))


class _RowSolver:
    """Predictor states and inputs of consecutive rows, solved in blocks.

    With w the constant window weights, row i's predictor state is
    Z_i = Y_i + sum_j w[j] B u[i - j] and u_i = phi_i K Z_i, with the
    design's B and K.  A window cut at t = 0, that of a row i < len(w) - 1,
    differs from that table only in its weight on row 0: dt/2
    exp((i dt - D) lam) in place of w[i], and 0 for row 0 itself, so
    Z_0 = Y_0, which the callers set.  `cut` holds that difference, times
    B, for each such row from row 1 on.

    A call solves the rows a + 1 .. a + b (a >= 0, b <= rows) from
    their Y and phi and the input history rows up to a, in the padded
    layout of `_history_pad`; it writes nothing.
    Their Z satisfy one block lower-triangular system

        (I - L Phi) Z = Y + older + cut u[0],

    where L holds diag(w[j]) B K at distance j below the diagonal,
    Phi = diag(phi) scales its block columns (the ramp), and older is the
    window sum over the rows before the call.  Built once per (design, dt)
    for `rows` = `_solve_rows(D, dt)` rows, one delay window held between
    32 and 64 (`_row_solver` keeps it on the design, so that `simulate`
    and `invert_artstein` share it): one block-Toeplitz table of the
    weights times B from the u rows the windows reach to the rows' Z,
    which gives older and L, and the inverse of I - L; since the system is
    lower triangular, the leading principal sub-blocks serve fewer rows.
    A call whose rows all lie where phi stays 1, as its caller finds once
    per run (`_ones_from`), is then two matrix-vector products and
    u = Z K^T.  A block whose phi is the design's own ramp inverts its
    `rows`-row I - L Phi on first use and keeps the inverse, keyed by a:
    at most one per ramp row, ceil(t0 / dt) in all.  Any other phi
    solves its I - L Phi directly and keeps nothing.  Every table, the
    gain included, is in self.dtype: float when the design's eigenvalues,
    B and K are real (`spectral._run_dtype`), and complex otherwise.  The
    solver holds no reference to the design, so the design's slot makes no
    cycle.
    """

    def __init__(self, design: PredictorDesign, dt: float):
        lam, b_n0, gain = design.eigenvalues, design.b_n0, design.gain
        self.dtype = _run_dtype(lam, b_n0, gain)
        if self.dtype is float:
            lam, b_n0, gain = lam.real, b_n0.real, gain.real
        self.dt, self.n0, self.gain = dt, design.n0, gain
        self.transition = design.transition
        self.pad = _history_pad(design.delay, dt)
        n0, m = design.n0, design.input_dim
        self.rows = rows = _solve_rows(design.delay, dt)
        w = _window_weights(lam, design.delay, dt)
        self.n_past = n_past = len(w) - 1
        # rows 1 .. n_past - 1; row 0 is Z_0 = Y_0, which the callers set
        cut = dt / 2.0 * np.exp(np.outer(np.arange(1, n_past) * dt
                                         - design.delay, lam))
        self.cut = (cut - w[1:n_past])[:, :, None] * b_n0
        # the window table from the u rows c - n_past .. c + rows - 1 to the
        # block's Z, c its first row, gathered as (row, Z entry, column,
        # u entry): row p weights column k by w[n_past + p - k] B, or by the
        # appended zero outside the window.  older is its first n_past
        # columns, and L the rest times K
        p, k = np.ogrid[:rows, :n_past + rows]
        lag = (n_past + p - k)[:, None]
        lag[(lag < 0) | (lag > n_past)] = -1
        wb = np.concatenate([w[:, :, None] * b_n0, np.zeros((1, n0, m))])
        entry = np.arange(n0)[:, None]
        self.older = wb.transpose(1, 0, 2)[entry, lag[..., :n_past]].reshape(
            rows * n0, -1)
        self.lower = (wb @ gain).transpose(1, 0, 2)[
            entry, lag[..., n_past:]].reshape(rows * n0, -1)
        self.inv = np.linalg.inv(np.eye(rows * n0) - self.lower)
        # a -> (the design's ramp at rows a + 1 .. a + rows, the
        # inverse of I - L Phi under it)
        self.ramp = {}

    def _ramp_inverse(self, a: int, phi: np.ndarray) -> np.ndarray | None:
        """The kept inverse of I - L Phi for the block after row a when phi
        is the design's own ramp there, else None."""
        entry = self.ramp.get(a)
        if entry is None:
            own = self.transition.phi(
                (a + 1 + np.arange(self.rows)) * self.dt)
            if not np.array_equal(own[:len(phi)], phi):
                return None
            entry = self.ramp[a] = own, np.linalg.inv(
                np.eye(len(self.lower))
                - self.lower * np.repeat(own, self.n0))
        own, inv = entry
        return inv if np.array_equal(own[:len(phi)], phi) else None

    def __call__(self, hist: np.ndarray, a: int, y: np.ndarray,
                 phi: np.ndarray, ones: int) -> tuple[np.ndarray, np.ndarray]:
        """(Z, u) of the rows a + 1 .. a + len(y) from the padded history.
        ones is the row from which the caller's phi is 1 to its end
        (`_ones_from`)."""
        b, c = len(y), self.pad + a + 1
        k = b * self.n0
        rhs = (self.older[:k] @ hist[c - self.n_past:c].ravel()).reshape(
            b, self.n0)
        rhs += y
        if a + 1 < self.n_past:
            cut = self.cut[a:a + b]
            rhs[:len(cut)] += cut @ hist[self.pad]
        flat = a + 1 >= ones
        inv = self.inv if flat else self._ramp_inverse(a, phi)
        if inv is None:
            z = np.linalg.solve(np.eye(k) - self.lower[:k, :k]
                                * np.repeat(phi, self.n0), rhs.ravel())
        else:
            z = inv[:k, :k] @ rhs.ravel()
        z = z.reshape(b, self.n0)
        u = z @ self.gain.T
        if not flat:
            u *= phi[:, None]
        return z, u


def _ones_from(phi: np.ndarray) -> int:
    """The row from which phi is 1 to its end (len(phi) if its last is not)."""
    off = np.flatnonzero(phi != 1.0)
    return int(off[-1]) + 1 if off.size else 0


def _row_solver(design: PredictorDesign, dt: float) -> _RowSolver:
    """The design's row solver for the step dt, built on first use.  The
    design keeps one, so a call with another dt replaces it."""
    solve = design._solver
    if solve is None or solve.dt != dt:
        solve = _RowSolver(design, dt)
        object.__setattr__(design, "_solver", solve)
    return solve


def invert_artstein(design: PredictorDesign, times: np.ndarray, y_path,
                    phi=None) -> np.ndarray:
    """Recover the input consistent with a modal trajectory.

    Solves v(t) = phi(t) K [Y(t) + int exp((t-s-D)A) B v(s) ds] on the
    sample grid.  With the window's fixed trapezoid weights the discrete
    Volterra system is lower triangular, so one forward-substitution pass
    solves it, in blocks of rows, with the design's row solver, which a
    `simulate` at the same step shares.  A window that starts before t = 0
    is integrated from 0.  The arithmetic is real when the design's row
    solver is (see _RowSolver) and y_path is real, and complex otherwise.

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

    phi_vals = _frozen_array(
        (design.transition.phi if phi is None else phi)(times), "phi values",
        float)
    if phi_vals.shape not in ((), times.shape):
        raise InvalidParameterError(
            f"phi must give one value per sample or one for all, "
            f"got shape {phi_vals.shape}")
    phi_vals = np.broadcast_to(phi_vals, times.shape)

    solve = _row_solver(design, dt)
    # complex tables give complex rows, whatever y_path holds
    dtype = solve.dtype if solve.dtype is complex else _run_dtype(y)
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
