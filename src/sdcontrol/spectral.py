"""Modal representation of diagonal boundary-controlled plants.

A plant is described by its eigenvalues, the modal input gains produced by
lifting the boundary actuation into the domain, and the frame bounds of the
eigenvector basis.  The one concrete builder shipped here is a 1-D
reaction-diffusion rod with Dirichlet actuation at both ends; its
eigenfunctions are the orthonormal sine basis, so both frame bounds are 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AssumptionViolatedError, InvalidParameterError

__all__ = [
    "SpectralSystem",
    "TruncationSpec",
    "build_heat_system",
    "check_truncation",
    "check_kalman",
    "pbh_controllable",
    "project_profile",
    "reconstruct",
]

# basis callable: (mode index n >= 1, points array) -> values array
BasisFn = Callable[[int, np.ndarray], np.ndarray]


def _frozen_array(a, dtype=complex) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class SpectralSystem:
    """Diagonal plant in modal coordinates.

    Attributes:
        eigenvalues: mode eigenvalues, sorted by nonincreasing real part.
        input_coeffs: (n_max, m) modal input gains; row n feeds mode n as
            c_n' = lam_n c_n + sum_k input_coeffs[n, k] * u_k(t - delay).
        lifting_coeffs: (n_max, m) projections of the boundary lifting onto
            the dual basis, used for the actuated part of the state.
        riesz_lower / riesz_upper: frame bounds of the eigenvector basis.
        domain_length: length of the spatial interval.
        lifting_norm_B: (m,) state-space norms of each lifted channel.
        lifting_norm_AB: (m,) norms of the generator applied to each lifted
            channel (the lifting must lie in the generator's domain).
        lifting_gram: (m, m) Gram matrix of the lifted channels, used for
            the operator norm of the composite input map.
        basis: optional callable evaluating eigenfunction n on a grid;
            required by the projection / reconstruction helpers.
    """

    eigenvalues: np.ndarray
    input_coeffs: np.ndarray
    lifting_coeffs: np.ndarray
    riesz_lower: float
    riesz_upper: float
    domain_length: float
    lifting_norm_B: np.ndarray
    lifting_norm_AB: np.ndarray
    lifting_gram: np.ndarray
    basis: BasisFn | None = None

    def __post_init__(self):
        eig = _frozen_array(np.atleast_1d(self.eigenvalues))
        if eig.ndim != 1 or eig.size == 0:
            raise InvalidParameterError("eigenvalues must be a nonempty vector")
        if np.any(np.diff(eig.real) > 1e-12 * np.maximum(1.0, np.abs(eig.real[:-1]))):
            raise InvalidParameterError(
                "eigenvalues must be sorted by nonincreasing real part")
        b = _frozen_array(np.atleast_2d(self.input_coeffs))
        lift = _frozen_array(np.atleast_2d(self.lifting_coeffs))
        if b.shape[0] != eig.size or lift.shape != b.shape:
            raise InvalidParameterError(
                "input/lifting coefficient rows must match the eigenvalue count")
        if not (0.0 < self.riesz_lower <= self.riesz_upper):
            raise InvalidParameterError(
                "frame bounds must satisfy 0 < riesz_lower <= riesz_upper")
        if self.domain_length <= 0:
            raise InvalidParameterError("domain_length must be positive")
        m = b.shape[1]
        nb = _frozen_array(self.lifting_norm_B, dtype=float)
        nab = _frozen_array(self.lifting_norm_AB, dtype=float)
        gram = _frozen_array(self.lifting_gram, dtype=float)
        if nb.shape != (m,) or nab.shape != (m,) or gram.shape != (m, m):
            raise InvalidParameterError("lifting norm/Gram shapes must match input_dim")
        object.__setattr__(self, "eigenvalues", eig)
        object.__setattr__(self, "input_coeffs", b)
        object.__setattr__(self, "lifting_coeffs", lift)
        object.__setattr__(self, "lifting_norm_B", nb)
        object.__setattr__(self, "lifting_norm_AB", nab)
        object.__setattr__(self, "lifting_gram", gram)

    @property
    def n_max(self) -> int:
        return int(self.eigenvalues.size)

    @property
    def input_dim(self) -> int:
        return int(self.input_coeffs.shape[1])


@dataclass(frozen=True)
class TruncationSpec:
    """Split into n0 actively controlled modes and a stable residual.

    alpha is the decay margin of the discarded part: Re lam_n <= -alpha for
    every n > n0.
    """

    n0: int
    alpha: float

    def __post_init__(self):
        if self.n0 < 0:
            raise InvalidParameterError("n0 must be nonnegative")
        if self.alpha <= 0:
            raise InvalidParameterError("alpha must be positive")


def build_heat_system(a: float, c: float, L: float, n_max: int = 10,
                      basis: bool = True) -> SpectralSystem:
    """Build the modal model of a boundary-actuated reaction-diffusion rod.

    The plant is X_t = a X_xx + c X on (0, L) with Dirichlet actuation
    X(0) = u_1, X(L) = u_2.  Lifting the actuation with the linear-in-space
    profile u_1 + (u_2 - u_1) xi / L gives, in the orthonormal sine basis,

        lam_n = c - a n^2 pi^2 / L^2,
        input_coeffs[n-1] = a n pi sqrt(2/L^3) * (1, (-1)^{n+1}).

    Args:
        a: diffusivity, must be positive.
        c: reaction coefficient.
        L: domain length, must be positive.
        n_max: number of retained modes, at least 1.
        basis: attach the sine-basis evaluator (needed for projections).

    Returns:
        SpectralSystem with frame bounds 1 (orthonormal basis).
    """
    if a <= 0:
        raise InvalidParameterError(f"diffusivity a must be positive, got {a}")
    if L <= 0:
        raise InvalidParameterError(f"domain length L must be positive, got {L}")
    if n_max < 1:
        raise InvalidParameterError(f"n_max must be at least 1, got {n_max}")

    n = np.arange(1, n_max + 1)
    lam = c - a * n ** 2 * np.pi ** 2 / L ** 2
    sign = (-1.0) ** (n + 1)
    b_col = a * n * np.pi * np.sqrt(2.0 / L ** 3)
    input_coeffs = np.column_stack([b_col, sign * b_col])
    lift_col = np.sqrt(2.0 * L) / (n * np.pi)
    lifting_coeffs = np.column_stack([lift_col, sign * lift_col])

    # closed forms for the linear lifting profiles e(xi) = 1 - xi/L and xi/L:
    # ||e||^2 = L/3 for both, <e1, e2> = L/6, and the generator acts on the
    # lifting as multiplication by c (the profiles are harmonic).
    norm_B = np.full(2, np.sqrt(L / 3.0))
    norm_AB = np.full(2, abs(c) * np.sqrt(L / 3.0))
    gram = (L / 6.0) * np.array([[2.0, 1.0], [1.0, 2.0]])

    basis_fn = None
    if basis:
        def basis_fn(k: int, xi: np.ndarray) -> np.ndarray:
            return np.sqrt(2.0 / L) * np.sin(k * np.pi * np.asarray(xi) / L)

    return SpectralSystem(
        eigenvalues=lam,
        input_coeffs=input_coeffs,
        lifting_coeffs=lifting_coeffs,
        riesz_lower=1.0,
        riesz_upper=1.0,
        domain_length=L,
        lifting_norm_B=norm_B,
        lifting_norm_AB=norm_AB,
        lifting_gram=gram,
        basis=basis_fn,
    )


def check_truncation(sys: SpectralSystem, n0: int) -> TruncationSpec:
    """Validate a truncation order and return the residual decay margin.

    Args:
        sys: the plant.
        n0: number of modes kept for active control, 0 <= n0 < n_max.

    Returns:
        TruncationSpec(n0, alpha) with alpha = -max Re lam_n over n > n0.

    Raises:
        AssumptionViolatedError: a discarded mode has Re lam_n >= 0.
    """
    if not 0 <= n0 < sys.n_max:
        raise InvalidParameterError(
            f"n0 must satisfy 0 <= n0 < n_max = {sys.n_max}, got {n0}")
    tail_real = sys.eigenvalues.real[n0:]
    worst = float(tail_real.max())
    if worst >= 0.0:
        raise AssumptionViolatedError(
            f"discarded mode with Re lam = {worst:.6g} >= 0; increase n0")
    return TruncationSpec(n0=n0, alpha=-worst)


def _group_close(values: np.ndarray, tol_scale: float) -> list[np.ndarray]:
    """Group indices of entries that coincide within a relative tolerance."""
    groups: list[list[int]] = []
    for i, v in enumerate(values):
        for g in groups:
            w = values[g[0]]
            if abs(v - w) < tol_scale * max(1.0, abs(v), abs(w)):
                g.append(i)
                break
        else:
            groups.append([i])
    return [np.array(g) for g in groups]


def pbh_controllable(eigenvalues: np.ndarray, b: np.ndarray,
                     eq_tol: float = 1e-9, rank_tol: float = 1e-9) -> bool:
    """Eigenvector-wise controllability test for a diagonal pair.

    For each group of coinciding eigenvalues (relative tolerance eq_tol) the
    corresponding rows of b must have full row rank; rank is decided by
    singular values above rank_tol times the largest singular value of b.
    """
    eig = np.atleast_1d(np.asarray(eigenvalues, dtype=complex))
    bmat = np.atleast_2d(np.asarray(b, dtype=complex))
    if bmat.shape[0] != eig.size:
        raise InvalidParameterError("b must have one row per eigenvalue")
    sigma_max = float(np.linalg.svd(bmat, compute_uv=False)[0]) if bmat.size else 0.0
    thresh = rank_tol * sigma_max
    for g in _group_close(eig, eq_tol):
        rows = bmat[g]
        if len(g) > rows.shape[1]:
            return False
        sv = np.linalg.svd(rows, compute_uv=False)
        if np.sum(sv > thresh) < len(g):
            return False
    return True


def check_kalman(sys: SpectralSystem, n0: int) -> bool:
    """Controllability of the retained (diagonal, delayed-input) block.

    True iff every group of coinciding retained eigenvalues has input rows
    of full rank; for a single input this reduces to pairwise distinct
    eigenvalues and nonzero input gains.
    """
    if not 1 <= n0 <= sys.n_max:
        raise InvalidParameterError(
            f"n0 must satisfy 1 <= n0 <= n_max = {sys.n_max}, got {n0}")
    return pbh_controllable(sys.eigenvalues[:n0], sys.input_coeffs[:n0])


def _simpson_grid(L: float, n_quad: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite Simpson 1/3 rule on [0, L]."""
    if n_quad < 2 or n_quad % 2:
        raise InvalidParameterError(
            f"n_quad must be a positive even integer, got {n_quad}")
    xi = np.linspace(0.0, L, n_quad + 1)
    w = np.full(n_quad + 1, 2.0)
    w[1::2] = 4.0
    w[[0, -1]] = 1.0
    return xi, w * (L / n_quad / 3.0)


def project_profile(sys: SpectralSystem, profile: Callable[[np.ndarray], np.ndarray],
                    n_modes: int, n_quad: int = 2048) -> np.ndarray:
    """First n_modes modal coefficients <profile, psi_n> of a spatial profile.

    Args:
        sys: plant with an attached basis evaluator.
        profile: callable evaluating the spatial profile on an array.
        n_modes: number of coefficients, 1 <= n_modes <= n_max.
        n_quad: even number of composite Simpson panels over (0, L).
    """
    if sys.basis is None:
        raise InvalidParameterError("system has no basis evaluator attached")
    if not 1 <= n_modes <= sys.n_max:
        raise InvalidParameterError(f"n_modes must be in [1, {sys.n_max}]")
    xi, w = _simpson_grid(sys.domain_length, n_quad)
    pvals = np.asarray(profile(xi), dtype=complex)
    rows = np.stack([np.conj(sys.basis(k, xi)) for k in range(1, n_modes + 1)])
    return (rows * pvals[None, :]) @ w


def reconstruct(sys: SpectralSystem, coeffs: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Evaluate sum_n coeffs[n-1] * basis_n on a spatial grid.

    The shipped plant is real-valued; imaginary residues beyond 1e-10 are
    rejected rather than silently dropped.
    """
    if sys.basis is None:
        raise InvalidParameterError("system has no basis evaluator attached")
    coeffs = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    if coeffs.size > sys.n_max:
        raise InvalidParameterError("more coefficients than retained modes")
    xi = np.asarray(xi, dtype=float)
    out = np.zeros_like(xi, dtype=complex)
    for k, ck in enumerate(coeffs, start=1):
        out += ck * sys.basis(k, xi)
    scale = max(1.0, float(np.abs(out).max(initial=0.0)))
    if float(np.abs(out.imag).max(initial=0.0)) > 1e-10 * scale:
        raise InvalidParameterError("reconstruction has a non-negligible imaginary part")
    return out.real
