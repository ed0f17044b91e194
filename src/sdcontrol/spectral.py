"""Modal representation of diagonal boundary-controlled plants.

A plant is described by its eigenvalues, the modal input gains produced by
lifting the boundary actuation into the domain, and the frame bounds of the
eigenvector basis.  The one concrete builder shipped here is a 1-D
reaction-diffusion rod with Dirichlet actuation at both ends; its
eigenfunctions are the orthonormal sine basis, so both frame bounds are 1.
"""

from __future__ import annotations

import math
import operator
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
]

# basis callable: (mode index n >= 1, points array) -> values array
BasisFn = Callable[[int, np.ndarray], np.ndarray]


def _frozen_array(value, what: str, dtype=complex) -> np.ndarray:
    """A read-only copy of the argument `what`, every entry finite."""
    try:
        out = np.array(value, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise InvalidParameterError(f"{what} must be numeric: {exc}") from None
    finite = np.isfinite(out)
    if np.count_nonzero(finite) < out.size:
        at = np.unravel_index(np.argmin(finite), out.shape)
        raise InvalidParameterError(f"{what} must be finite, got {out[at]} "
                                    f"at index {[int(i) for i in at]}")
    out.setflags(write=False)
    return out


def _run_dtype(*arrays) -> type:
    """The dtype of a run's arrays: float when the imaginary part of every
    entry of the arrays is exactly 0.0, complex otherwise.  There is no
    tolerance: data whose imaginary parts are merely tiny stay complex."""
    if any(np.iscomplexobj(a) and a.imag.any() for a in arrays):
        return complex
    return float


def _finite_float(value, what: str, low: float = -math.inf,
                  strict: bool = False) -> float:
    """The argument `what` as a float that is finite and at least low, or,
    when strict, above low = 0 (positive)."""
    try:
        x = float(value)
        if math.isfinite(x) and (x > low if strict else x >= low):
            return x
    except (TypeError, ValueError):
        pass
    bound = ("" if low == -math.inf else "positive and " if strict
             else "nonnegative and " if low == 0 else f"at least {low} and ")
    raise InvalidParameterError(f"{what} must be {bound}finite, got {value}")


def _count(value, what: str, low: int, high: float = math.inf) -> int:
    """The argument `what` as an int in [low, high]: numpy integers pass,
    2.0 does not."""
    try:
        n = operator.index(value)
    except TypeError:
        n = low - 1
    if low <= n <= high:
        return n
    raise InvalidParameterError(
        f"{what} must be an integer in [{low}, {high}], got {value}")


@dataclass(frozen=True, eq=False)
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
            required by project_profile.
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
        names = ("eigenvalues", "input_coeffs", "lifting_coeffs",
                 "lifting_norm_B", "lifting_norm_AB", "lifting_gram")
        # the modal data is complex, the lifting norms and Gram matrix real
        eig, b, lift, nb, nab, gram = (
            _frozen_array(getattr(self, name), name, complex if i < 3 else float)
            for i, name in enumerate(names))
        eig, b, lift = np.atleast_1d(eig), np.atleast_2d(b), np.atleast_2d(lift)
        if eig.ndim != 1 or eig.size == 0:
            raise InvalidParameterError("eigenvalues must be a nonempty vector")
        if np.any(np.diff(eig.real) > 1e-12 * np.maximum(1.0, np.abs(eig.real[:-1]))):
            raise InvalidParameterError(
                "eigenvalues must be sorted by nonincreasing real part")
        if b.shape[0] != eig.size or lift.shape != b.shape:
            raise InvalidParameterError(
                "input/lifting coefficient rows must match the eigenvalue count")
        lower = _finite_float(self.riesz_lower, "riesz_lower", 0.0, strict=True)
        _finite_float(self.riesz_upper, "riesz_upper", lower)
        _finite_float(self.domain_length, "domain_length", 0.0, strict=True)
        m = b.shape[1]
        if nb.shape != (m,) or nab.shape != (m,) or gram.shape != (m, m):
            raise InvalidParameterError("lifting norm/Gram shapes must match input_dim")
        for name, value in zip(names, (eig, b, lift, nb, nab, gram)):
            object.__setattr__(self, name, value)

    @property
    def n_max(self) -> int:
        return self.eigenvalues.size

    @property
    def input_dim(self) -> int:
        return self.input_coeffs.shape[1]


@dataclass(frozen=True)
class TruncationSpec:
    """Split into n0 actively controlled modes and a stable residual.

    alpha is the decay margin of the discarded part: Re lam_n <= -alpha for
    every n > n0.
    """

    n0: int
    alpha: float

    def __post_init__(self):
        _count(self.n0, "n0", 0)
        _finite_float(self.alpha, "alpha", 0.0, strict=True)


def build_heat_system(a: float, c: float, L: float,
                      n_max: int = 10) -> SpectralSystem:
    """Build the modal model of a boundary-actuated reaction-diffusion rod.

    The plant is X_t = a X_xx + c X on (0, L) with Dirichlet actuation
    X(0) = u_1, X(L) = u_2.  Lifting the actuation with the linear-in-space
    profile u_1 + (u_2 - u_1) xi / L gives, in the orthonormal sine basis,

        lam_n = c - a n^2 pi^2 / L^2,
        input_coeffs[n-1] = a n pi sqrt(2/L^3) * (1, (-1)^{n+1}).

    Args:
        a: diffusivity, positive and finite.
        c: reaction coefficient, finite.
        L: domain length, positive and finite.
        n_max: number of retained modes, at least 1.

    Returns:
        SpectralSystem with frame bounds 1 (orthonormal basis) and the
        sine-basis evaluator attached.
    """
    a = _finite_float(a, "diffusivity a", 0.0, strict=True)
    c = _finite_float(c, "reaction coefficient c")
    L = _finite_float(L, "domain length L", 0.0, strict=True)
    n_max = _count(n_max, "n_max", 1)

    n = np.arange(1, n_max + 1)
    # in float64, so that an extreme L gives inf or 0 where Python floats
    # raise; SpectralSystem rejects what is not finite
    ell = np.float64(L)
    with np.errstate(all="ignore"):
        lam = c - a * n ** 2 * np.pi ** 2 / ell ** 2
        sign = (-1.0) ** (n + 1)
        b_col = a * n * np.pi * np.sqrt(2.0 / ell ** 3)
        input_coeffs = np.column_stack([b_col, sign * b_col])
        lift_col = np.sqrt(2.0 * ell) / (n * np.pi)
        lifting_coeffs = np.column_stack([lift_col, sign * lift_col])

        # closed forms for the linear lifting profiles e(xi) = 1 - xi/L and
        # xi/L: ||e||^2 = L/3 for both, <e1, e2> = L/6, and the generator
        # acts on the lifting as multiplication by c (the profiles are
        # harmonic).
        norm_B = np.full(2, np.sqrt(ell / 3.0))
        norm_AB = np.full(2, abs(c) * np.sqrt(ell / 3.0))
        gram = (ell / 6.0) * np.array([[2.0, 1.0], [1.0, 2.0]])
    if not b_col.any():
        # 1/L^3 (or a) underflows: no mode has an input, which no n0 mends
        raise InvalidParameterError(
            f"a = {a}, L = {L} leave every input coefficient "
            f"a n pi sqrt(2/L^3) at 0: the rod has no input")

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
    n0 = _count(n0, "n0", 0, sys.n_max - 1)
    worst = float(sys.eigenvalues.real[n0:].max())
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


def pbh_controllable(eigenvalues: np.ndarray, b: np.ndarray) -> bool:
    """Eigenvector-wise controllability test for a diagonal pair.

    For each group of coinciding eigenvalues (relative tolerance 1e-9) the
    corresponding rows of b must have full row rank; rank is decided by
    singular values above 1e-9 times the largest singular value of b.
    """
    eig = np.atleast_1d(_frozen_array(eigenvalues, "eigenvalues"))
    bmat = np.atleast_2d(_frozen_array(b, "b"))
    if bmat.shape[0] != eig.size:
        raise InvalidParameterError("b must have one row per eigenvalue")
    sigma_max = float(np.linalg.svd(bmat, compute_uv=False)[0]) if bmat.size else 0.0
    thresh = 1e-9 * sigma_max
    for g in _group_close(eig, 1e-9):
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
    n0 = _count(n0, "n0", 1, sys.n_max)
    return pbh_controllable(sys.eigenvalues[:n0], sys.input_coeffs[:n0])


# composite Simpson panels of project_profile (an even count)
_SIMPSON_PANELS = 2048


def _simpson_grid(L: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite Simpson 1/3 rule on [0, L]."""
    n = _SIMPSON_PANELS
    xi = np.linspace(0.0, L, n + 1)
    w = np.full(n + 1, 2.0)
    w[1::2] = 4.0
    w[[0, -1]] = 1.0
    return xi, w * (L / n / 3.0)


def project_profile(sys: SpectralSystem, profile: Callable[[np.ndarray], np.ndarray],
                    n_modes: int) -> np.ndarray:
    """First n_modes modal coefficients <profile, psi_n> of a spatial profile.

    The inner products use the composite Simpson rule with 2048 panels on
    [0, L].

    Args:
        sys: plant with an attached basis evaluator.
        profile: callable evaluating the spatial profile on an array.
        n_modes: number of coefficients, 1 <= n_modes <= n_max.
    """
    if sys.basis is None:
        raise InvalidParameterError("system has no basis evaluator attached")
    n_modes = _count(n_modes, "n_modes", 1, sys.n_max)
    xi, w = _simpson_grid(sys.domain_length)
    pvals = _frozen_array(profile(xi), "profile values")
    rows = np.stack([np.conj(sys.basis(k, xi)) for k in range(1, n_modes + 1)])
    return (rows * pvals[None, :]) @ w
