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
step is linear in the state, in its forcing (the delayed-input rows and v
at the stage times) and in the four stage arctans.  Those maps are built
once per run (`_RK4Step`).  The input that drives the plant, u(t - D), is
fixed one delay ahead, so up to floor(D / dt) consecutive steps read no
input row they reach themselves.  The loop therefore advances the state by
blocks of at most that many rows (and at most 32), one stepper call per
block, which first forms the forcing of all of the block's steps, one
product per delayed-input row.  A coupled block then takes its steps one
by one, each two small matrix-vector products and four scalar arctans,
while a plant-only block, whose step is diagonal, is one linear recurrence
per state entry, summed by a doubling scan; either way the block's states
go straight into the state history.  After each block the loop checks its
states for finiteness once and solves all of its predictor rows as one
block lower-triangular system (`predictor._RowSolver`): the ramp scales the
system's columns and a window cut at t = 0 only corrects the weight on row
0.  The solver is the design's own, built on the first run at a step and
shared with `invert_artstein`; it keeps the inverse of each ramp block's
system, so a later run at the same step inverts nothing.  The recorded
rows are indexed out of the histories after the loop, and their
norms and V are computed vectorized over blocks of them.

A run is real arithmetic when its data are real.  Its dtype is chosen once
(`spectral._run_dtype`): float64 when the simulated eigenvalues and input
rows and the initial state all have imaginary parts exactly 0.0, as the
shipped rod's do, and the design's row solver is real (its eigenvalues, B
and K are), and complex otherwise, with no tolerance and no option.  The
histories, the stepper's tables and its arctan (math.atan or cmath.atan)
follow it, and V's quadratic forms are real when P and Z are.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .certificates import CertificateBundle, evaluate_V
from .errors import (
    InsufficientDataError,
    InvalidParameterError,
    SimulationDivergedError,
)
from .predictor import (PredictorDesign, _history_pad, _lagged, _row_solver,
                        _SOLVE_ROWS, _taps)
from .spectral import (SpectralSystem, _count, _finite_float, _frozen_array,
                       _run_dtype, project_profile)

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
        _finite_float(self.dt, "dt", 0.0, strict=True)
        _finite_float(self.t_end, "t_end", 0.0)
        _count(self.n_modes, "n_modes", 1)
        _count(self.record_stride, "record_stride", 1)
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


def _coupling_terms(fields: CouplingFields):
    """(M, e, t2, cv): the interconnection adds M s + arctan(e . s) t2 + v cv
    to the drift of s = (x, c_1..c_n), M holding -a1, the sensing row
    (b1/L) eta1 and a2 theta1, with e = (0, (d2/L) eta2), t2 = (0, b2 theta2)
    and cv = (c1, c2 theta3); its modal part is the disturbance d."""
    ell = fields.domain_length
    mat = np.zeros((fields.n_modes + 1,) * 2)
    mat[0, 0] = -fields.a1
    mat[0, 1:] = fields.b1 / ell * fields.eta1
    mat[1:, 0] = fields.a2 * fields.theta1
    return (mat, np.concatenate([[0.0], fields.d2 / ell * fields.eta2]),
            np.concatenate([[0.0], fields.b2 * fields.theta2]),
            np.concatenate([[fields.c1], fields.c2 * fields.theta3]))


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


class _RK4Step:
    """RK4 steps of the coupled state s = (x, c_1..c_n), set up once per run.

    The drift is s' = M s + arctan(e . s) t2 + v cv + (0, B u(t - D)), with
    the interconnection's terms (`_coupling_terms`) and the eigenvalues on
    M's diagonal.  One step is therefore linear in s, in its forcing inputs
    (the u history rows the three stage lags read and v at the three stage
    times) and in the four stage values a_k = arctan(e . s_k).  Running the
    four-stage recursion once on matrices gives

        s_new = R s + F + G a,   e . s_k = E_k s + F_k + sum_{j < k} T_kj a_j,

    with the forcing (F, F_1..F_4) linear in the forcing inputs.  The
    delayed inputs at the stage times t - D, t - D + dt/2 and t - D + dt
    are fixed 2-point interpolations (`_taps`) of the input history u, in
    the padded layout of `_history_pad`: row k of the history sits at index
    pad + k.  The interpolation weights and B are folded into one table W_l
    per history row the stage lags read, so that the forcing of the step
    from row r is sum_l u[r + lo + l] W_l, plus v at its stage times times
    their columns.  A plant-only run has no arctans and no v: s_new =
    R s + F, and R is diagonal.  The tables take the run's dtype, float or
    complex (`spectral._run_dtype`), and so does the arctan: math.atan on
    a real run, cmath.atan on a complex one.
    """

    def __init__(self, sys: SpectralSystem, design: PredictorDesign,
                 fields: CouplingFields | None, n: int, dt: float,
                 dtype: type):
        lam, b_n = sys.eigenvalues[:n], sys.input_coeffs[:n]
        if dtype is float:
            lam, b_n = lam.real, b_n.real
        m = b_n.shape[1]
        self.coupled = fields is not None
        self.pad = _history_pad(design.delay, dt)
        # stage lag j reads sum w u[r + k] over its taps (k, w); the step
        # reads the history rows r + lo .. r + hi - 1
        taps = [[(self.pad - back, w) for back, w in
                 _taps(design.delay / dt - lead)] for lead in (0.0, 0.5, 1.0)]
        self.lo = min(k for tap in taps for k, _ in tap)
        hi = max(k for tap in taps for k, _ in tap) + 1
        # the step from row r reads no row after r + hi - 1 - pad, so the
        # steps from rows a .. a + ahead - 1 read no row after a
        self.ahead = self.pad - hi + 2
        dim, n_hist = n + 1, (hi - self.lo) * m
        width = dim + n_hist + (7 if self.coupled else 0)

        mat = np.zeros((dim, dim), dtype)
        e_row = t2 = cv = np.zeros(dim)
        if self.coupled:
            coupling, e_row, t2, cv = _coupling_terms(fields)
            mat += coupling
        mat[1:, 1:] += np.diag(lam)

        # the four stages on matrices, as maps of (s, u rows, v, a): s_k,
        # its arctan argument e . s_k and the slope k_k = M s_k + F_j +
        # a_k t2, where F_j is B u and v at stage lag j (0, 1, 1, 2); acc
        # sums k1 + 2 k2 + 2 k3 + k4
        s1 = np.eye(dim, width, dtype=dtype)
        acc = np.zeros_like(s1)
        args = []
        for stage, (h, j, weight) in enumerate(
                ((0.0, 0, 1.0), (dt / 2, 1, 2.0), (dt / 2, 1, 2.0),
                 (dt, 2, 1.0))):
            s_k = s1 + h * k_k if stage else s1
            args.append(e_row @ s_k)
            k_k = mat @ s_k
            for k, w in taps[j]:
                col = dim + (k - self.lo) * m
                k_k[1:, col:col + m] += w * b_n
            if self.coupled:
                k_k[:, dim + n_hist + j] += cv
                k_k[:, width - 4 + stage] += t2
            acc += weight * k_k
        # the rows of the new state and, on a coupled run, of the four
        # arctan arguments
        op = np.vstack([s1 + dt / 6 * acc] + (args if self.coupled else []))
        # W_l as (lag, u entry, row)
        self.lag_w = op[:, dim:dim + n_hist].reshape(
            len(op), -1, m).transpose(1, 2, 0).copy()

        # the most steps one `advance` takes: the steps read no row they
        # reach, and the row solver takes at most _SOLVE_ROWS rows
        self.block = min(self.ahead, _SOLVE_ROWS)
        if self.coupled:
            self.s_w = op[:, :dim].T.copy()
            self.v_w = op[:, dim + n_hist:width - 4].T.copy()
            # [I G], for (h[:dim], a)
            self.a_w = np.hstack([np.eye(dim), op[:dim, width - 4:]])
            self.tri = tuple(
                op[dim:, width - 4:][np.tril_indices(4, -1)].tolist())
            self.atan = math.atan if dtype is float else cmath.atan
        else:
            # rho^k for the doubling rounds k = 1, 2, 4, .. < block
            self.squares = [np.diag(op)]
            while 1 << len(self.squares) < self.block:
                self.squares.append(self.squares[-1] ** 2)

    def advance(self, u: np.ndarray, a: int, v_half, s: np.ndarray) -> None:
        """Step s[0], the state at row a, into s[1:] (at most `block` rows)
        from the padded input history u; s[p] gets the state at row a + p.

        The steps read no input row the block reaches, so the forcing of
        every step is formed first: one product per history lag and, on a
        coupled run, v_half[2 r:2 r + 3], the v values of the step from row
        r, times their columns.  A coupled block then takes its steps one
        by one: h = s_p [R E]^T + f_p holds the new state before G a and
        the four arctan arguments before their T terms; the arctans a
        overwrite those, and s_{p+1} = [I G] h = h[:dim] + G a.  On a
        plant-only run the block is one linear recurrence per entry of s,
        s_{p+1} = rho s_p + f_p with rho = diag R (x's entry is 1 and its
        forcing 0); a doubling scan sums it (Blelloch, CMU-CS-90-190,
        1990).
        """
        b = len(s) - 1
        lo = a + self.lo
        f = u[lo:lo + b] @ self.lag_w[0]
        for lag, w in enumerate(self.lag_w[1:], 1):
            f += u[lo + lag:lo + lag + b] @ w
        if self.coupled:
            dim = s.shape[1]
            f += v_half[np.arange(2 * a, 2 * (a + b), 2)[:, None]
                        + (0, 1, 2)] @ self.v_w
            t10, t20, t21, t30, t31, t32 = self.tri
            atan = self.atan
            for p, f_p in enumerate(f):
                h = s[p] @ self.s_w
                h += f_p
                g0, g1, g2, g3 = h[dim:].tolist()
                a0 = atan(g0)
                a1 = atan(g1 + t10 * a0)
                a2 = atan(g2 + t20 * a0 + t21 * a1)
                h[dim:] = a0, a1, a2, atan(
                    g3 + t30 * a0 + t31 * a1 + t32 * a2)
                np.dot(self.a_w, h, out=s[p + 1])
            return
        # after the round with step k, f[p] sums rho^(p - q) f_q over the
        # 2k latest q <= p; rho s_a rides in f_0
        f[0] += self.squares[0] * s[0]
        k = 1
        for rho_k in self.squares:
            if k >= b:
                break
            f[k:] += rho_k * f[:-k]
            k *= 2
        s[1:] = f


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


def _check_rk4_stability(sys: SpectralSystem, n_modes: int, dt: float,
                         a1: float | None = None) -> None:
    # RK4 amplification 1 + z + z^2/2 + z^3/6 + z^4/24 at z = dt lam; a
    # decaying rate must not be amplified (on the real axis dt |lam| <
    # 2.7852935, the root of 1 + z/2 + z^2/6 + z^3/24).  The rates are the
    # simulated modes' and, with an interconnection (a1 given), the scalar
    # subsystem's -a1.  A polynomial that overflows is rejected.
    rates = sys.eigenvalues[:n_modes]
    if a1 is not None:
        rates = np.append(rates, -a1)
    z_rk = dt * rates
    z_rk = z_rk[z_rk.real < 0]
    with np.errstate(over="ignore", invalid="ignore"):
        amp = np.abs(1 + z_rk * (1 + z_rk / 2 * (1 + z_rk / 3
                                                 * (1 + z_rk / 4))))
    if amp.size and not float(amp.max()) < 1.0:
        # an overflow is NaN (inf times a zero imaginary part): it reads
        # as inf
        amp = np.nan_to_num(amp, nan=np.inf)
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
    past t = 0 included, by the row solver the design keeps for dt (built
    on the first run, shared with `invert_artstein`).  The recorded rows
    are read out of the histories at the end.  v is evaluated once per
    grid time and once per half step.

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
    v_fn = config.v_function()
    coeffs = _frozen_array(x0_coeffs, "x0_coeffs")
    if coeffs.shape != (n,):
        raise InvalidParameterError(f"x0_coeffs must have shape ({n},)")
    if not np.isfinite(x0):
        raise InvalidParameterError("x0 must be finite")
    s0 = np.append(x0, coeffs)

    n_steps = int(math.floor(config.t_end / dt + 1e-9))
    rows = np.append(np.arange(0, n_steps, config.record_stride), n_steps) \
        if n_steps > 0 else np.zeros(0, dtype=int)

    # the input u, the predictor state Z and the state s = (x, c_1..c_n)
    # share one zero pad: row k sits at pad + k.  A block of steps reads no
    # input row of its own, so it runs first and the rows it reaches are
    # solved together after it
    pad = _history_pad(delay, dt)
    solve = _row_solver(design, dt)
    # real arithmetic when the run's data and the row solver are real
    dtype = solve.dtype if solve.dtype is complex else _run_dtype(
        sys.eigenvalues[:n], sys.input_coeffs[:n], s0)
    rk4 = _RK4Step(sys, design, fields, n, dt, dtype)
    u_hist = np.zeros((pad + n_steps + 1, sys.input_dim), dtype)
    z_hist = np.zeros((pad + n_steps + 1, n0), dtype)
    s_hist = np.zeros((pad + n_steps + 1, n + 1), dtype)
    s_hist[pad] = s0.real if dtype is float else s0
    z_hist[pad] = s_hist[pad, 1:n0 + 1]
    phi = design.transition.phi(np.arange(n_steps + 1) * dt)
    # v once at each half-step time k dt / 2: the step from row r reads
    # v_half[2 r:2 r + 3], and row i's own value is v_half[2 i]
    v_half = None
    if fields is not None:
        v_half = _frozen_array([v_fn(k // 2 * dt + k % 2 * (dt / 2))
                                for k in range(2 * n_steps + 1)],
                               "v at the half-step times k dt / 2", float)

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
    s_rec = s_hist[take]
    x_rec, c_rec = s_rec[:, 0], s_rec[:, 1:]
    nx_rec, nd_rec, v_rec = (np.zeros(rows.size) for _ in range(3))
    if fields is not None:
        mat, e_row, t2, cv = _coupling_terms(fields)
        d_map = np.array([mat[1:, 0], t2[1:], cv[1:]])
    with np.errstate(over="ignore", invalid="ignore"):
        for a in range(0, rows.size, _BLOCK_ROWS):
            blk = slice(a, a + _BLOCK_ROWS)
            nx_rec[blk] = np.linalg.norm(c_rec[blk], axis=1)
            if fields is not None:
                d = np.column_stack([x_rec[blk], np.arctan(s_rec[blk] @ e_row),
                                     v_half[2 * rows[blk]]]) @ d_map
                nd_rec[blk] = np.linalg.norm(
                    _assert_real(d, "coupling term", axis=1), axis=1)
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
