"""Closed-loop simulation of the modal plant with delayed ramped feedback.

The integrated state couples a scalar subsystem x with the first n_modes
modal coefficients of the plant:

    x'   = -a1 x + (b1/L) <eta1, X> + c1 v(t)
    c_n' = lam_n c_n + sum_k b_{n,k} u_k(t - D) + d_n(t),
    d    = a2 x theta1 + b2 arctan((d2/L) <eta2, X>) theta2 + c2 v theta3,

with u = phi(t) K Z(t) fed by the predictor state.  Time stepping is
classical fixed-step RK4, run in blocks by the discrete delay loop of
`_loop`; this module records the run and writes it.

A run is real arithmetic when its data are real: float64 when the
simulated eigenvalues and input rows and the initial state all have
imaginary parts exactly 0.0, as the shipped rod's do, and the design's
row solver is real (its eigenvalues, B and K are), and complex otherwise,
with no tolerance and no option.  The histories, the stepper's tables and
its arctan follow it, and V's quadratic forms are real when P and Z are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _csv
from ._loop import (_check_rk4_stability, _lagged, _ones_from, _RK4Step,
                    _row_solver)
from .certificates import CertificateBundle, evaluate_V
from .errors import (
    InsufficientDataError,
    InvalidParameterError,
    SimulationDivergedError,
)
from .predictor import PredictorDesign
from .spectral import (SpectralSystem, _count, _finite_float, _frozen_array,
                       project_profile)

__all__ = [
    "SimConfig",
    "CouplingFields",
    "Trajectory",
    "simulate",
    "decay_fit",
    "iss_envelope_check",
    "write_csv",
    "case_study_fields",
    "case_study_disturbance",
    "case_study_initial_profile",
]

# rows per block of the recorded quantities, so that their (rows, modes)
# temporaries stay small whatever the run length
_BLOCK_ROWS = 1024


def case_study_disturbance(t):
    """Exogenous input of the built-in case study, at a time or elementwise
    over an array of times."""
    return np.sin(2.0 * t) * np.sin(5.0 * t)


def case_study_initial_profile(L: float) -> Callable[[np.ndarray], np.ndarray]:
    """Cubic initial condition of the built-in case study."""
    def profile(xi):
        xi = np.asarray(xi, dtype=float)
        return -5.0 * xi * (L / 2.0 - xi) * (L - xi)
    return profile


@dataclass(frozen=True)
class SimConfig:
    """Integrator settings.

    disturbance selects the exogenous input v: "none" (v = 0),
    "case-study" (sin 2t sin 5t), or any callable t -> v(t).
    """

    dt: float = 1e-3
    t_end: float = 10.0
    n_modes: int = 10
    record_stride: int = 1
    disturbance: str | Callable[[float], float] = "case-study"

    def __post_init__(self):
        _finite_float(self.dt, "dt", 0.0, strict=True)
        _finite_float(self.t_end, "t_end", 0.0)
        _count(self.n_modes, "n_modes", 1)
        _count(self.record_stride, "record_stride", 1)
        if not (callable(self.disturbance) or (
                isinstance(self.disturbance, str)
                and self.disturbance in ("none", "case-study"))):
            raise InvalidParameterError(
                "disturbance must be 'none', 'case-study' or a callable, "
                f"got {self.disturbance!r}")

    def v_function(self) -> Callable[[float], float]:
        if callable(self.disturbance):
            return self.disturbance
        if self.disturbance == "case-study":
            return case_study_disturbance
        return lambda t: np.zeros(np.shape(t))


@dataclass(frozen=True, eq=False)
class CouplingFields:
    """Interconnection data: scalar gains plus projected spatial profiles."""

    a1: float
    b1: float
    c1: float
    a2: float
    b2: float
    c2: float
    d2: float
    domain_length: float
    eta1: np.ndarray
    eta2: np.ndarray
    theta1: np.ndarray
    theta2: np.ndarray
    theta3: np.ndarray

    def __post_init__(self):
        for name in ("b1", "c1", "a2", "b2", "c2", "d2"):
            _finite_float(getattr(self, name), name)
        for name in ("a1", "domain_length"):
            _finite_float(getattr(self, name), name, 0.0, strict=True)
        n = np.size(self.eta1)
        for name in ("eta1", "eta2", "theta1", "theta2", "theta3"):
            arr = np.atleast_1d(_frozen_array(getattr(self, name), name, float))
            if arr.shape != (n,):
                raise InvalidParameterError("profile vectors must share one length")
            object.__setattr__(self, name, arr)

    @property
    def n_modes(self) -> int:
        return self.eta1.size


def case_study_fields(sys: SpectralSystem, n_modes: int, a1: float,
                      b1: float, c1: float, a2: float, b2: float, c2: float,
                      d2: float) -> CouplingFields:
    """Projected interconnection of the built-in case study.

    Uses the unit-norm profiles sqrt(6 xi (L - xi)) / L^{3/2} (sensing and
    feedback bump), sqrt(2 xi) / L and sqrt(2 (L - xi)) / L (ramps).
    """
    L = sys.domain_length
    bump, ramp_up, ramp_down = (
        _assert_real(project_profile(sys, fn, n_modes), "profile projection")
        for fn in (lambda xi: np.sqrt(6.0 * xi * (L - xi)) / L ** 1.5,
                   lambda xi: np.sqrt(2.0 * xi) / L,
                   lambda xi: np.sqrt(2.0 * (L - xi)) / L))
    return CouplingFields(
        a1=a1, b1=b1, c1=c1, a2=a2, b2=b2, c2=c2, d2=d2,
        domain_length=L,
        eta1=bump, eta2=bump, theta1=ramp_up, theta2=bump, theta3=ramp_down,
    )


def _assert_real(value, what: str, axis: int | None = None):
    """The real part of value, whose imaginary part must be below 1e-10 of
    max(1, max |value|); with an axis, of each slice along it.  A real
    array, as every array of a real run is, passes unchecked."""
    arr = np.asarray(value)
    if not np.iscomplexobj(arr):
        return arr
    scale = np.maximum(1.0, np.abs(arr).max(axis=axis, keepdims=True,
                                            initial=0.0))
    if (np.abs(arr.imag) > 1e-10 * scale).any():
        raise InvalidParameterError(f"{what} has a non-negligible imaginary part")
    return arr.real


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded closed-loop run.

    Arrays are aligned by row; x, norm_x, norm_d and V are real.  u, coeffs
    and z have the run's dtype: float64 on a real run, one whose
    eigenvalues, input rows, gain and initial state all have imaginary
    parts exactly 0.0 (the shipped plant's), complex otherwise.
    """

    t: np.ndarray
    x: np.ndarray
    coeffs: np.ndarray
    norm_x: np.ndarray
    u: np.ndarray
    norm_d: np.ndarray
    V: np.ndarray
    z: np.ndarray
    dt: float
    delay: float
    t0: float
    n0: int
    has_certificate: bool

    def __len__(self) -> int:
        return int(self.t.size)


def _half_step_v(config: SimConfig, n_steps: int) -> np.ndarray:
    """v at the half-step times k dt / 2, k = 0 .. 2 n_steps: the step from
    row r reads v_half[2 r:2 r + 3], and row i's own value is v_half[2 i].
    A named disturbance's function takes all the times as one array; a
    callable is called once per time."""
    k = np.arange(2 * n_steps + 1)
    t = k // 2 * config.dt + k % 2 * (config.dt / 2)
    v_fn = config.v_function()
    if not callable(config.disturbance):
        return v_fn(t)
    return _frozen_array([v_fn(x) for x in t.tolist()],
                         "v at the half-step times k dt / 2", float)


def _row_norms(c: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row of c, with no |c|^2 temporary."""
    return np.sqrt(np.einsum("ij,ij->i", c.conj(), c).real)


def simulate(config: SimConfig, sys: SpectralSystem, design: PredictorDesign,
             fields: CouplingFields | None, x0: float, x0_coeffs,
             bundle: CertificateBundle | None = None) -> Trajectory:
    """Run the closed loop from t = 0 to t_end.

    The feedback u(t) = phi(t) K Z(t) ramps in over [0, t0], since phi
    rises from 0 to 1 there, and the plant first feels it at t = D: until
    then the delayed input reads the zero history before t = 0.

    The steps run in the blocks of `_loop`, with the row solver the design
    keeps for dt, which `invert_artstein` shares.  After the loop the state
    history is checked for finiteness once, which names its first
    non-finite row; the recorded rows are then read out of the histories,
    and their norms and V are computed over blocks of them.  v is
    evaluated once per grid time and once per half step: one array
    expression for a named disturbance, one call per time for a callable.

    Args:
        fields: interconnection, or None for a plant-only run.
        x0: scalar subsystem initial value.
        x0_coeffs: n_modes initial modal coefficients.
        bundle: certificate weights; when given, the Lyapunov functional is
            recorded per row, otherwise the V column is zero.

    Raises:
        InvalidParameterError: an argument is out of range, including a
            non-finite initial state or disturbance value and a dt outside
            the RK4 stability region of a decaying simulated mode.
        SimulationDivergedError: the state or a recorded norm left the
            finite range.
    """
    n = _count(config.n_modes, "n_modes", design.n0, sys.n_max)
    if fields is not None and fields.n_modes != n:
        raise InvalidParameterError(
            f"fields cover {fields.n_modes} modes, config asks for {n}")
    if design.delay <= 0:
        raise InvalidParameterError("simulation requires a positive delay")
    if config.dt >= design.delay:
        raise InvalidParameterError(
            f"dt = {config.dt} must be smaller than the delay {design.delay}")
    if bundle is not None and design.lyap is None:
        raise InvalidParameterError(
            "certificate recording needs a design with a Lyapunov matrix")

    dt = config.dt
    _check_rk4_stability(sys, n, dt, None if fields is None else fields.a1)

    delay = design.delay
    n0 = design.n0
    coeffs = _frozen_array(x0_coeffs, "x0_coeffs")
    if coeffs.shape != (n,):
        raise InvalidParameterError(f"x0_coeffs must have shape ({n},)")
    s0 = np.append(_finite_float(x0, "x0"), coeffs)

    n_steps = int(math.floor(config.t_end / dt + 1e-9))
    rows = np.append(np.arange(0, n_steps, config.record_stride), n_steps) \
        if n_steps > 0 else np.zeros(0, dtype=int)

    # the input u, the predictor state Z and the state s = (x, c_1..c_n)
    # share the solver's zero pad: row k sits at pad + k
    solve = _row_solver(design, dt)
    pad = solve.pad
    dtype = solve.run_dtype(sys.eigenvalues[:n], sys.input_coeffs[:n], s0)
    rk4 = _RK4Step(sys, design, fields, n, dt, dtype)
    u_hist = np.zeros((pad + n_steps + 1, sys.input_dim), dtype)
    z_hist = np.zeros((pad + n_steps + 1, n0), dtype)
    s_hist = np.zeros((pad + n_steps + 1, n + 1), dtype)
    s_hist[pad] = s0.real if dtype is float else s0
    z_hist[pad] = s_hist[pad, 1:n0 + 1]
    phi = design.transition.phi(np.arange(n_steps + 1) * dt)
    ones = _ones_from(phi)
    v_half = None if fields is None else _half_step_v(config, n_steps)

    # a diverging state overflows on its way to inf and runs on as inf or
    # NaN; the finiteness check after the loop, not numpy's warning,
    # reports its first non-finite row
    with np.errstate(over="ignore", invalid="ignore"):
        for a in range(0, n_steps, rk4.block):
            end = min(a + rk4.block, n_steps)
            s = s_hist[pad + a:pad + end + 1]
            rk4.advance(u_hist, a, v_half, s)
            new = slice(pad + a + 1, pad + end + 1)
            z_hist[new], u_hist[new] = solve(
                u_hist, a, s[1:, 1:n0 + 1], phi[a + 1:end + 1], ones)
    finite = np.isfinite(s_hist[pad:]).all(axis=1)
    if not finite.all():
        raise SimulationDivergedError(
            f"state became non-finite at t = {np.argmin(finite) * dt:.6g}")

    t = rows * dt
    # at stride 1 the recorded rows are views of the histories, not copies
    take = slice(pad, pad + rows.size) if config.record_stride == 1 \
        else pad + rows
    s_rec = s_hist[take]
    x_rec, c_rec = s_rec[:, 0], s_rec[:, 1:]
    nx_rec, nd_rec, v_rec = (np.zeros(rows.size) for _ in range(3))
    if fields is not None:
        mat, e_row, t2, cv = rk4.terms
        d_map = np.array([mat[1:, 0], t2[1:], cv[1:]])
    with np.errstate(over="ignore", invalid="ignore"):
        for a in range(0, rows.size, _BLOCK_ROWS):
            blk = slice(a, a + _BLOCK_ROWS)
            nx_rec[blk] = _row_norms(c_rec[blk])
            if fields is not None:
                d = np.column_stack([x_rec[blk], np.arctan(s_rec[blk] @ e_row),
                                     v_half[2 * rows[blk]]]) @ d_map
                nd_rec[blk] = _row_norms(
                    _assert_real(d, "coupling term", axis=1))
            if bundle is not None:
                v_rec[blk] = evaluate_V(
                    sys, design, bundle, z_hist, dt, rows[blk], c_rec[blk],
                    _lagged(u_hist, pad + rows[blk], delay / dt))
    bad = ~(np.isfinite(nx_rec) & np.isfinite(nd_rec) & np.isfinite(v_rec))
    if bad.any():
        raise SimulationDivergedError(
            f"recorded norms became non-finite at t = "
            f"{t[np.argmax(bad)]:.6g}")

    return Trajectory(
        t=t, x=_assert_real(x_rec, "scalar state"), coeffs=c_rec,
        norm_x=nx_rec, u=u_hist[take], norm_d=nd_rec, V=v_rec,
        z=z_hist[take], dt=dt, delay=delay, t0=design.transition.t0, n0=n0,
        has_certificate=bundle is not None,
    )


def decay_fit(traj: Trajectory, t_start: float) -> tuple[float, float]:
    """Least-squares exponential fit norm_x ~ amplitude * exp(-rate * t).

    Only samples with t >= t_start and norm_x > 0 enter the fit; at least
    10 are required.  t_start must be finite.
    """
    t_start = _finite_float(t_start, "t_start")
    mask = (traj.t >= t_start - 1e-12) & (traj.norm_x > 0.0)
    if int(mask.sum()) < 10:
        raise InsufficientDataError(
            f"need at least 10 usable samples after t = {t_start}, "
            f"got {int(mask.sum())}")
    slope, intercept = np.polyfit(traj.t[mask], np.log(traj.norm_x[mask]), 1)
    return float(-slope), float(math.exp(intercept))


def iss_envelope_check(traj: Trajectory, bundle: CertificateBundle,
                       d_sup: float) -> tuple[bool, float]:
    """Check V(t) against its certified decay-plus-offset envelope.

    For every recorded t >= D + t0 the inequality

        V(t) <= exp(-2 kappa0 (t - D - t0)) V(D + t0)
                + C6 / (2 kappa0) * d_sup^2

    must hold within 5 percent slack; d_sup must be finite and
    nonnegative.  Returns (ok, worst ratio).
    """
    if not traj.has_certificate:
        raise InvalidParameterError("trajectory carries no recorded V")
    d_sup = _finite_float(d_sup, "d_sup", 0.0)
    t_on = traj.delay + traj.t0
    mask = traj.t >= t_on - 1e-12
    if int(mask.sum()) < 2:
        raise InsufficientDataError(
            f"no recorded samples beyond t = {t_on}")
    v_on = float(np.interp(t_on, traj.t, traj.V))
    t_rel = traj.t[mask] - t_on
    rhs = (np.exp(-2.0 * bundle.kappa0 * t_rel) * v_on
           + bundle.C6 / (2.0 * bundle.kappa0) * d_sup ** 2)
    v_seg = traj.V[mask]
    tiny = 1e-300
    ratios = v_seg / np.maximum(rhs, tiny)
    worst = float(ratios.max())
    return worst <= 1.05, worst


def write_csv(traj: Trajectory, path) -> None:
    """Write the trajectory as CSV: t,x,normX,V,u1..um,normd,c1..cN.

    Every value is written byte for byte as `'%.12g' % v` gives it, 12
    significant digits; rows end with a bare newline.  Values in fixed
    notation are formatted by a vectorized kernel in blocks of rows, the
    others (exponent notation, nan, inf, near rounding ties) by `'%.12g'`
    itself; see `_csv`.
    """
    header = (["t", "x", "normX", "V"]
              + [f"u{j + 1}" for j in range(traj.u.shape[1])]
              + ["normd"]
              + [f"c{k + 1}" for k in range(traj.coeffs.shape[1])])
    columns = [traj.t, traj.x, traj.norm_x, traj.V,
               _assert_real(traj.u, "recorded input"), traj.norm_d,
               _assert_real(traj.coeffs, "recorded coefficients")]
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        _csv.write_rows(fh, columns)
