"""Closed-loop simulation of the modal plant with delayed ramped feedback.

The integrated state couples a scalar subsystem x with the first n_modes
modal coefficients of the plant:

    x'   = -a1 x + (b1/L) <eta1, X> + c1 v(t)
    c_n' = lam_n c_n + sum_k b_{n,k} u_k(t - D) + d_n(t),
    d    = a2 x theta1 + b2 arctan((d2/L) <eta2, X>) theta2 + c2 v theta3,

with u = phi(t) K Z(t) fed by the predictor state.  Time stepping is
classical fixed-step RK4.  The input u, the predictor state Z and the
state are plain arrays indexed by step that share one zero pad ahead of
t = 0 (`predictor._history_pad`): row i, at time i dt, sits at pad + i.
The stepper and the predictor read u's rows, with B folded into their
constant tables.  Delayed inputs at the stage times are fixed 2-point
interpolations of that history, and the predictor integral uses trapezoid
weights that are constant on the grid.  Its endpoint weight makes each new
input implicit.

The drift is linear in the state apart from one scalar arctan, so an RK4
step is linear in its inputs (state, delayed-input rows, v at the stage
times) and in the four stage arctans.  Those maps are built once per run
(`_RK4Step`); a step is then two small matrix-vector products and four
scalar arctans.  The input that drives the plant, u(t - D), is fixed one
delay ahead, so up to floor(D / dt) consecutive steps read no input row
they reach themselves.  The loop therefore advances the state by blocks of
at most that many rows (and at most 32), one stepper call per block: a
coupled block takes its steps one by one, while a plant-only block, whose
step is diagonal in the modes, is one linear recurrence per mode, summed by
a doubling scan; either way the block's states go straight into the state
history.  After each block the loop checks its states for finiteness once
and solves all of its predictor rows as one block lower-triangular system
(`_RowSolver`): the ramp scales the system's columns and a window cut at
t = 0 only corrects the weight on row 0.  The recorded rows are indexed
out of the histories after the loop, and their norms and V are computed
vectorized over blocks of them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .certificates import CertificateBundle, _lyapunov_rows
from .errors import (
    InsufficientDataError,
    InvalidParameterError,
    SimulationDivergedError,
)
from .predictor import (PredictorDesign, _history_pad, _lagged, _RowSolver,
                        _SOLVE_ROWS, _split_steps)
from .spectral import SpectralSystem, project_profile

__all__ = [
    "SimConfig",
    "CouplingFields",
    "Trajectory",
    "simulate",
    "decay_fit",
    "iss_envelope_check",
    "write_csv",
    "case_study_fields",
    "decoupled_fields",
    "case_study_disturbance",
    "case_study_initial_profile",
]

# rows per block of the recorded quantities and of the CSV writer, so that
# their (rows, modes) temporaries and row tuples stay small whatever the
# run length
_BLOCK_ROWS = 1024


def case_study_disturbance(t: float) -> float:
    """Exogenous input of the built-in case study."""
    return math.sin(2.0 * t) * math.sin(5.0 * t)


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
        # written so that NaN fails as well
        if not 0 < self.dt < math.inf:
            raise InvalidParameterError(
                f"dt must be positive and finite, got {self.dt}")
        if not 0 <= self.t_end < math.inf:
            raise InvalidParameterError(
                f"t_end must be nonnegative and finite, got {self.t_end}")
        if self.n_modes < 1:
            raise InvalidParameterError("n_modes must be at least 1")
        if self.record_stride < 1:
            raise InvalidParameterError("record_stride must be at least 1")
        if isinstance(self.disturbance, str) and \
                self.disturbance not in ("none", "case-study"):
            raise InvalidParameterError(
                f"unknown disturbance selector {self.disturbance!r}")

    def v_function(self) -> Callable[[float], float]:
        if callable(self.disturbance):
            return self.disturbance
        if self.disturbance == "case-study":
            return case_study_disturbance
        return lambda t: 0.0


@dataclass(frozen=True)
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
        if not np.isfinite([self.a1, self.b1, self.c1, self.a2, self.b2,
                            self.c2, self.d2, self.domain_length]).all():
            raise InvalidParameterError(
                "coupling gains and domain_length must be finite")
        if self.a1 <= 0:
            raise InvalidParameterError(f"a1 must be positive, got {self.a1}")
        if self.domain_length <= 0:
            raise InvalidParameterError("domain_length must be positive")
        n = np.atleast_1d(np.asarray(self.eta1, dtype=float)).size
        for name in ("eta1", "eta2", "theta1", "theta2", "theta3"):
            arr = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            if arr.shape != (n,) or not np.isfinite(arr).all():
                raise InvalidParameterError(
                    "profile vectors must be finite and share one length")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        # the profiles stacked once, in the dtype of the state they meet
        object.__setattr__(self, "_etas", np.vstack(
            [self.eta1, self.eta2]).astype(complex))
        object.__setattr__(self, "_thetas", np.vstack(
            [self.theta1, self.theta2, self.theta3]).astype(complex))

    @property
    def n_modes(self) -> int:
        return int(self.eta1.size)


def _profile_real(sys: SpectralSystem, fn, n_modes: int) -> np.ndarray:
    coeffs = project_profile(sys, fn, n_modes)
    if float(np.abs(coeffs.imag).max(initial=0.0)) > 1e-10:
        raise InvalidParameterError("profile projection is not real")
    return coeffs.real


def case_study_fields(sys: SpectralSystem, n_modes: int, a1: float,
                      b1: float, c1: float, a2: float, b2: float, c2: float,
                      d2: float) -> CouplingFields:
    """Projected interconnection of the built-in case study.

    Uses the unit-norm profiles sqrt(6 xi (L - xi)) / L^{3/2} (sensing and
    feedback bump), sqrt(2 xi) / L and sqrt(2 (L - xi)) / L (ramps).
    """
    L = sys.domain_length
    bump = _profile_real(
        sys, lambda xi: np.sqrt(6.0 * xi * (L - xi)) / L ** 1.5, n_modes)
    ramp_up = _profile_real(
        sys, lambda xi: np.sqrt(2.0 * xi) / L, n_modes)
    ramp_down = _profile_real(
        sys, lambda xi: np.sqrt(2.0 * (L - xi)) / L, n_modes)
    return CouplingFields(
        a1=a1, b1=b1, c1=c1, a2=a2, b2=b2, c2=c2, d2=d2,
        domain_length=L,
        eta1=bump, eta2=bump, theta1=ramp_up, theta2=bump, theta3=ramp_down,
    )


def decoupled_fields(n_modes: int, a1: float = 1.5,
                     domain_length: float = 1.0) -> CouplingFields:
    """Interconnection with all coupling gains zero (plant-only runs)."""
    z = np.zeros(n_modes)
    return CouplingFields(
        a1=a1, b1=0.0, c1=0.0, a2=0.0, b2=0.0, c2=0.0, d2=0.0,
        domain_length=domain_length,
        eta1=z, eta2=z, theta1=z, theta2=z, theta3=z,
    )


def _drift(fields: CouplingFields, x, coeffs, v):
    """Scalar drift f1 and modal disturbance f2 of the interconnection.

    x, v and coeffs describe one state, or a batch: x and v of shape
    (rows,) with coeffs of shape (rows, n).
    """
    inner1, inner2 = fields._etas @ coeffs.T
    f1 = -fields.a1 * x + (fields.b1 / fields.domain_length) * inner1 \
        + fields.c1 * v
    bent = np.arctan((fields.d2 / fields.domain_length) * inner2)
    f2 = np.array([fields.a2 * x, fields.b2 * bent, fields.c2 * v]).T \
        @ fields._thetas
    return f1, f2


def _assert_real(value, what: str, axis: int | None = None):
    """The real part of value, whose imaginary part must be below 1e-10 of
    max(1, max |value|); with an axis, of each slice along it."""
    arr = np.asarray(value)
    scale = np.maximum(1.0, np.abs(arr).max(axis=axis, keepdims=True,
                                            initial=0.0))
    if (np.abs(arr.imag) > 1e-10 * scale).any():
        raise InvalidParameterError(f"{what} has a non-negligible imaginary part")
    return arr.real


class _RK4Step:
    """RK4 step of the coupled state s = (x, c_1..c_n), set up once per run.

    The drift is s' = M s + arctan(e . s) t2 + F(t): M holds -a1, the
    sensing row, a2 theta1 and the eigenvalues, e = (0, (d2/L) eta2),
    t2 = (0, b2 theta2), and F = (c1 v, B u(t - D) + c2 v theta3).  One step
    is therefore linear in the step inputs X = (s, the u history rows the
    three stage lags read, v at the three stage times) and in the four
    stage values a_k = arctan(e . s_k).  Running the four-stage recursion
    once on matrices gives

        s_new = R X + G a,   e . s_k = E_k X + sum_{j < k} T_kj a_j,

    so a step is one E X, four scalar arctans in sequence and one
    [R G] (X, a).  A plant-only run has no arctans and no v: s_new = R X,
    and R is diagonal in the modes, so `advance` runs a block of its steps
    as one scan per mode.

    The delayed inputs at the stage times t - D, t - D + dt/2 and t - D + dt
    are fixed 2-point interpolations of the input history u, in the padded
    layout of `_history_pad`: row k of the history sits at index pad + k.
    The interpolation weights and B are folded into R and E, so X holds the
    m-wide u rows themselves.  A single step (`__call__`) advances `state`,
    a view of the work vector (X, a); `advance` reads and writes a block of
    rows of a state history.
    """

    def __init__(self, sys: SpectralSystem, design: PredictorDesign,
                 fields: CouplingFields | None, n: int, dt: float):
        b_n = sys.input_coeffs[:n]
        m = b_n.shape[1]
        self.coupled = fields is not None
        lags = [_split_steps(design.delay / dt - lead)
                for lead in (0.0, 0.5, 1.0)]
        self.pad = _history_pad(design.delay, dt)
        # a lag (k, f) reads B (f u[r + k - 1] + (1 - f) u[r + k]); the step
        # reads the history rows r + lo .. r + hi - 1
        lags = [(self.pad - q, f) for q, f in lags]
        self.lo = min(k - (f > 0) for k, f in lags)
        self.hi = max(k for k, _ in lags) + 1
        # the step from row r reads no row after r + hi - 1 - pad, so the
        # steps from rows a .. a + ahead - 1 read no row after a
        self.ahead = self.pad - self.hi + 2
        dim, n_hist = n + 1, (self.hi - self.lo) * m
        n_x = dim + n_hist + (3 if self.coupled else 0)
        width = n_x + (4 if self.coupled else 0)

        mat = np.zeros((dim, dim), dtype=complex)
        mat[1:, 1:] = np.diag(sys.eigenvalues[:n])
        e_row = t2 = cv = np.zeros(dim, dtype=complex)
        if self.coupled:
            ell = fields.domain_length
            mat[0, 0] = -fields.a1
            mat[0, 1:] = fields.b1 / ell * fields.eta1
            mat[1:, 0] = fields.a2 * fields.theta1
            e_row = np.concatenate([[0.0], fields.d2 / ell * fields.eta2])
            t2 = np.concatenate([[0.0], fields.b2 * fields.theta2])
            cv = np.concatenate([[fields.c1], fields.c2 * fields.theta3])

        # the four stages on matrices, as maps of (X, a): s_k, its arctan
        # argument e . s_k and the slope k_k = M s_k + F_j + a_k t2, where
        # F_j is B u and v at stage lag j (0, 1, 1, 2); acc sums
        # k1 + 2 k2 + 2 k3 + k4
        s1 = np.eye(dim, width, dtype=complex)
        acc = np.zeros_like(s1)
        args = []
        for stage, (h, j, weight) in enumerate(
                ((0.0, 0, 1.0), (dt / 2, 1, 2.0), (dt / 2, 1, 2.0),
                 (dt, 2, 1.0))):
            s_k = s1 + h * k_k if stage else s1
            args.append(e_row @ s_k)
            k_k = mat @ s_k
            k, f = lags[j]
            col = dim + (k - self.lo) * m
            k_k[1:, col:col + m] += (1.0 - f) * b_n
            if f:
                k_k[1:, col - m:col] += f * b_n
            if self.coupled:
                k_k[:, dim + n_hist + j] += cv
                k_k[:, n_x + stage] += t2
            acc += weight * k_k
        self.op = s1 + dt / 6 * acc
        # the arctan arguments: E on X, and T (strictly lower) on a
        args = np.array(args)
        self.e_op = np.ascontiguousarray(args[:, :n_x])
        self.tri = tuple(args[:, n_x:][np.tril_indices(4, -1)].tolist()) \
            if self.coupled else ()

        self.work = np.zeros(width, dtype=complex)
        self.state = self.work[:dim]
        self.inputs = self.work[:n_x]
        self.hist = self.work[dim:dim + n_hist]
        self.v = self.work[dim + n_hist:n_x]
        self.a = self.work[n_x:]

        # the most steps one `advance` takes: the steps read no row they
        # reach, and the row solver takes at most _SOLVE_ROWS rows
        self.block = min(self.ahead, _SOLVE_ROWS)
        if not self.coupled:
            # a plant-only op is diagonal in the modes: the modes step as
            # c <- rho c + sum_l u[r + lo + l] H_l, with H_l = lag_w[l]
            # of shape (m, n)
            self.rho = np.diag(self.op)[1:]
            lag_w = self.op[1:, dim:dim + n_hist].reshape(n, -1, m)
            self.lag_w = lag_w.transpose(1, 2, 0).copy()
            # rho^k for the doubling rounds k = 1, 2, 4, .. < block
            self.squares = [self.rho]
            while 1 << len(self.squares) < self.block:
                self.squares.append(self.squares[-1] ** 2)

    def __call__(self, u: np.ndarray, r: int, v=None) -> None:
        """Step `state` from row r of the padded input history u to row
        r + 1.

        A coupled step takes v at its three stage times in `v`.
        """
        self.hist[:] = u[r + self.lo:r + self.hi].ravel()
        if self.coupled:
            self.v[:] = v
            g0, g1, g2, g3 = (self.e_op @ self.inputs).tolist()
            t10, t20, t21, t30, t31, t32 = self.tri
            a0 = cmath.atan(g0)
            a1 = cmath.atan(g1 + t10 * a0)
            a2 = cmath.atan(g2 + t20 * a0 + t21 * a1)
            self.a[:] = (a0, a1, a2,
                         cmath.atan(g3 + t30 * a0 + t31 * a1 + t32 * a2))
        self.state[:] = self.op @ self.work

    def advance(self, u: np.ndarray, a: int, v_half, s: np.ndarray) -> None:
        """Step s[0], the state at row a, into s[1:] (at most `block` rows)
        from the padded input history u; s[p] gets the state at row a + p.

        A coupled block loads `state` once and takes one `__call__` per
        step, with v_half[2 r:2 r + 3] the v values of the step from row r.
        On a plant-only run the block is one linear recurrence per mode,
        s_{p+1} = rho s_p + f_p, with the forcing f_p read from the history
        rows the block already has; a doubling scan sums it (Blelloch,
        CMU-CS-90-190, 1990).
        """
        b = len(s) - 1
        if self.coupled:
            self.state[:] = s[0]
            for p, r in enumerate(range(a, a + b), 1):
                self(u, r, v_half[2 * r:2 * r + 3])
                s[p] = self.state
            return
        lo = a + self.lo
        f = u[lo:lo + b] @ self.lag_w[0]
        for lag, w in enumerate(self.lag_w[1:], 1):
            f += u[lo + lag:lo + lag + b] @ w
        f[0] += self.rho * s[0, 1:]
        # after the round with step k, f[p] sums rho^(p - q) f_q over the
        # 2k latest q <= p; rho s_a rides in f_0
        k = 1
        for rho_k in self.squares:
            if k >= b:
                break
            f[k:] += rho_k * f[:-k]
            k *= 2
        s[1:, 0] = s[0, 0]
        s[1:, 1:] = f


@dataclass(frozen=True)
class Trajectory:
    """Recorded closed-loop run.

    Arrays are aligned by row; x, norm_x, u, norm_d and V are real, coeffs
    and z keep the internal complex dtype (imaginary parts are negligible
    for the shipped plant).
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


def _check_rk4_stability(sys: SpectralSystem, n_modes: int, dt: float,
                         a1: float | None = None) -> None:
    # RK4 amplification 1 + z + z^2/2 + z^3/6 + z^4/24 at z = dt lam; a
    # decaying rate must not be amplified (on the real axis dt |lam| < 2.785).
    # The rates are the simulated modes' and, with an interconnection
    # (a1 given), the scalar subsystem's -a1.
    rates = sys.eigenvalues[:n_modes]
    if a1 is not None:
        rates = np.append(rates, -a1)
    z_rk = dt * rates
    z_rk = z_rk[z_rk.real < 0]
    amp = np.abs(1 + z_rk * (1 + z_rk / 2 * (1 + z_rk / 3 * (1 + z_rk / 4))))
    if amp.size and float(amp.max()) >= 1.0:
        worst = complex(z_rk[int(np.argmax(amp))])
        raise InvalidParameterError(
            f"dt = {dt} is outside the RK4 stability region: the rate with "
            f"dt lambda = {worst:.6g} is amplified by {float(amp.max()):.6g} "
            f"per step")


def simulate(config: SimConfig, sys: SpectralSystem, design: PredictorDesign,
             fields: CouplingFields | None, x0: float, x0_coeffs,
             bundle: CertificateBundle | None = None) -> Trajectory:
    """Run the closed loop from t = 0 to t_end.

    The feedback u(t) = phi(t) K Z(t) ramps in over [0, t0], since phi
    rises from 0 to 1 there, and the plant first feels it at t = D: until
    then the delayed input reads the zero history before t = 0.

    The steps run in blocks of min(floor(D / dt), 32) rows, none of which
    reads an input row of its own block, with one stepper call per block
    (on a plant-only run, a per-mode scan), which writes the block's
    states into the state history.  After a block its states are checked
    for finiteness and its predictor rows are solved together as one
    block lower-triangular system, ramp rows and rows whose window reaches
    past t = 0 included.  The recorded rows are read out of the histories
    at the end.  v is evaluated once per grid time and once per half step.

    Args:
        fields: interconnection, or None for a plant-only run.
        x0: scalar subsystem initial value.
        x0_coeffs: n_modes initial modal coefficients.
        bundle: certificate weights; when given, the Lyapunov functional is
            recorded per row, otherwise the V column is zero.

    Raises:
        InvalidParameterError: an argument is out of range, including a
            non-finite initial state and a dt outside the RK4 stability
            region of a decaying simulated mode.
        SimulationDivergedError: the state or a recorded norm left the
            finite range.
    """
    n = config.n_modes
    if not design.n0 <= n <= sys.n_max:
        raise InvalidParameterError(
            f"n_modes must lie in [{design.n0}, {sys.n_max}], got {n}")
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
    v_fn = config.v_function()
    coeffs = np.asarray(x0_coeffs, dtype=complex)
    if coeffs.shape != (n,):
        raise InvalidParameterError(f"x0_coeffs must have shape ({n},)")
    if not (np.isfinite(x0) and np.isfinite(coeffs).all()):
        raise InvalidParameterError("x0 and x0_coeffs must be finite")

    n_steps = int(math.floor(config.t_end / dt + 1e-9))
    rows = np.append(np.arange(0, n_steps, config.record_stride), n_steps) \
        if n_steps > 0 else np.zeros(0, dtype=int)

    # the input u, the predictor state Z and the state s = (x, c_1..c_n)
    # share one zero pad: row k sits at pad + k.  A block of steps reads no
    # input row of its own, so it runs first and the rows it reaches are
    # solved together after it
    pad = _history_pad(delay, dt)
    rk4 = _RK4Step(sys, design, fields, n, dt)
    solve = _RowSolver(design, dt)
    u_hist = np.zeros((pad + n_steps + 1, sys.input_dim), dtype=complex)
    z_hist = np.zeros((pad + n_steps + 1, n0), dtype=complex)
    s_hist = np.zeros((pad + n_steps + 1, n + 1), dtype=complex)
    s_hist[pad, 0], s_hist[pad, 1:], z_hist[pad] = x0, coeffs, coeffs[:n0]
    phi = design.transition.phi(np.arange(n_steps + 1) * dt)
    # v once at each half-step time k dt / 2: the step from row r reads
    # v_half[2 r:2 r + 3], and row i's own value is v_half[2 i]
    v_half = None
    if fields is not None:
        v_half = np.fromiter(
            (v_fn(k // 2 * dt + k % 2 * (dt / 2))
             for k in range(2 * n_steps + 1)), float, 2 * n_steps + 1)

    # a diverging state overflows on its way to inf; the finiteness check,
    # not numpy's warning, reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for a in range(0, n_steps, rk4.block):
            end = min(a + rk4.block, n_steps)
            s = s_hist[pad + a:pad + end + 1]
            rk4.advance(u_hist, a, v_half, s)
            if not np.isfinite(s).all():
                bad = np.argmin(np.isfinite(s).all(axis=1))
                raise SimulationDivergedError(
                    f"state became non-finite at t = {(a + bad) * dt:.6g}")
            new = slice(pad + a + 1, pad + end + 1)
            z_hist[new], u_hist[new] = solve(
                u_hist, a, s[1:, 1:n0 + 1], phi[a + 1:end + 1])

    t = rows * dt
    # at stride 1 the recorded rows are views of the histories, not copies
    take = slice(pad, pad + rows.size) if config.record_stride == 1 \
        else pad + rows
    x_rec, c_rec = s_hist[take, 0], s_hist[take, 1:]
    nx_rec, nd_rec, v_rec = (np.zeros(rows.size) for _ in range(3))
    with np.errstate(over="ignore", invalid="ignore"):
        for a in range(0, rows.size, _BLOCK_ROWS):
            blk = slice(a, a + _BLOCK_ROWS)
            nx_rec[blk] = np.linalg.norm(c_rec[blk], axis=1)
            if fields is not None:
                d = _drift(fields, x_rec[blk], c_rec[blk],
                           v_half[2 * rows[blk]])[1]
                nd_rec[blk] = np.linalg.norm(
                    _assert_real(d, "coupling term", axis=1), axis=1)
            if bundle is not None:
                v_rec[blk] = _lyapunov_rows(
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
    10 are required.
    """
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

    must hold within 5 percent slack.  Returns (ok, worst ratio).
    """
    if not traj.has_certificate:
        raise InvalidParameterError("trajectory carries no recorded V")
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


_CSV_PRECISION = ".12g"


def write_csv(traj: Trajectory, path) -> None:
    """Write the trajectory as CSV: t,x,normX,V,u1..um,normd,c1..cN.

    Values carry 12 significant digits; rows end with a bare newline.
    """
    header = (["t", "x", "normX", "V"]
              + [f"u{j + 1}" for j in range(traj.u.shape[1])]
              + ["normd"]
              + [f"c{k + 1}" for k in range(traj.coeffs.shape[1])])
    columns = [traj.t, traj.x, traj.norm_x, traj.V,
               _assert_real(traj.u, "recorded input"), traj.norm_d,
               _assert_real(traj.coeffs, "recorded coefficients")]
    row_format = ",".join(["%" + _CSV_PRECISION] * len(header)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for a in range(0, len(traj), _BLOCK_ROWS):
            block = np.column_stack([col[a:a + _BLOCK_ROWS] for col in columns])
            fh.writelines(row_format % tuple(row) for row in block.tolist())
