"""The discrete delay loop: the history layout, the predictor window, the
block rule, the row solver and the RK4 stepper.

Every history (the input u, the predictor state Z and the state
s = (x, c_1..c_n)) is a plain array indexed by step, zero before t = 0,
behind one shared zero pad: row i, at time i dt, sits at pad + i
(`_history_pad`).  Delayed values between rows are fixed 2-point
interpolations (`_taps`, `_lagged`), and the predictor integral
int_{t-D}^{t} exp((t - s - D) A) B u(s) ds is the trapezoid rule, whose
weights are constant on the grid (`_window_weights`); its endpoint weight
makes each new input implicit.

The input that drives the plant, u(t - D), is fixed one delay ahead, so up
to floor(D / dt) consecutive steps read no input row they reach.  The loop
therefore runs in blocks of rows = min(floor(D / dt), 64) rows (1 when
D < dt), the one block rule, held by the design's row solver
(`_RowSolver.rows`).  `simulate` advances the state by a block with one
stepper call (`_RK4Step.advance`), which forms the forcing of all of the
block's steps as one product of their delayed-input windows, and then
solves the block's predictor rows with one solver call.  `invert_artstein`
solves the same blocks from the same rows, so the two share the solver
and every ramp inverse it keeps.  Only a plant-only block whose power
tables would leave float64's range is shorter (`_POWER_DECADES`).  A
coupled block takes its steps one by one, each one small matrix-vector
product and four scalar arctans; a plant-only block, whose step is
diagonal, is one linear recurrence per state entry, summed in closed
form.  A solver call solves the block's rows as one block lower-triangular
system: the ramp scales its columns, and a window cut at t = 0 only
corrects the weight on row 0.  The design keeps one solver
(`_row_solver`), built on the first call at a step, and the solver keeps
the inverse of each ramp block's system, so a later run at the same step
inverts nothing.

Every table takes the run's dtype: float64 when the data are real
(`spectral._run_dtype`), complex otherwise (`_RowSolver.run_dtype`).
"""

from __future__ import annotations

import cmath
import math
from typing import TYPE_CHECKING

import numpy as np

from .errors import InvalidParameterError
from .spectral import _run_dtype

if TYPE_CHECKING:
    from .predictor import PredictorDesign
    from .simulate import CouplingFields
    from .spectral import SpectralSystem

# the most rows of a block, whose tables grow with the square of its rows.
# Ensemble workload's simulate and invert_artstein against 32 rows, with
# one D = 0.1237 run's peak memory (two-core Xeon, Python 3.11, numpy 2.4,
# one BLAS thread): a cap of 48 rows -23 % (+0.4 MB), 64 -26 % (+1.3 MB),
# 80 -28 % (+1.9 MB), the whole window (123 rows) -29 % (+4.5 MB)
_MOST_ROWS = 64

# decades within which a plant-only block keeps its power tables rho^-q and
# rho^(p - 1) (`_RK4Step`), far from float64's overflow at 1e308
_POWER_DECADES = 150


def _split_steps(x: float) -> tuple[int, float]:
    """Whole and fractional part of a step count x >= 0, snapping a part
    within 1e-9 of 0 or 1 to 0.  The snap reads only x - floor(x), which is
    exact, so x and x - 1 (the stepper's lags) split alike."""
    j = math.floor(x)
    f = x - j
    if f >= 1.0 - 1e-9:
        return j + 1, 0.0
    return j, (f if f > 1e-9 else 0.0)


def _window_weights(lam, delay: float, dt: float) -> np.ndarray:
    """Fixed quadrature weights of the predictor window on a uniform grid.

    The weights w give the trapezoid rule

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


class _RowSolver:
    """Predictor states and inputs of consecutive rows, solved in blocks.

    With w the constant window weights, row i's predictor state is
    Z_i = Y_i + sum_j w[j] B u[i - j] and u_i = phi_i K Z_i, with the
    design's B and K.  A window cut at t = 0, that of a row i < len(w) - 1,
    differs from that table only in its weight on row 0: dt/2
    exp((i dt - D) lam) in place of w[i], and 0 for row 0 itself, so
    Z_0 = Y_0, which the callers set.  `cut` holds that difference, times
    B, for each such row from row 1 on.

    A call solves the rows a + 1 .. a + b (a >= 0, b <= rows) from their
    Y and phi and the padded input history rows up to a; it writes
    nothing.  Their Z satisfy one block lower-triangular system

        (I - L Phi) Z = Y + older + cut u[0],

    where L holds diag(w[j]) B K at distance j below the diagonal,
    Phi = diag(phi) scales its block columns (the ramp), and older is the
    window sum over the rows before the call.  The tables are built for
    `rows` rows (the block rule): one block-Toeplitz table of the weights
    times B from the u rows the windows reach to the rows' Z, which gives
    older and L, and the inverse of I - L; since the system is lower
    triangular, the leading principal sub-blocks serve fewer rows.  A call
    whose rows all lie where phi stays 1, as its caller finds once per run
    (`_ones_from`), is then two matrix-vector products and u = Z K^T.  A
    block whose phi is the design's own ramp inverts its `rows`-row
    I - L Phi on first use and keeps the inverse, keyed by a: at most one
    per ramp row, ceil(t0 / dt) in all.  Any other phi solves its
    I - L Phi directly and keeps nothing.  Every table, the gain included,
    is in self.dtype: float when the design's eigenvalues, B and K are
    real, and complex otherwise.  The solver holds no reference to the
    design, so the design's slot makes no cycle.
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
        # the block rule: one delay window, at least 1 row, at most 64
        self.rows = rows = min(max(_split_steps(design.delay / dt)[0], 1),
                               _MOST_ROWS)
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

    def run_dtype(self, *arrays) -> type:
        """The dtype of a run on the given data: complex when the tables
        are, else `spectral._run_dtype` of the arrays."""
        return complex if self.dtype is complex else _run_dtype(*arrays)

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


class _RK4Step:
    """RK4 steps of the coupled state s = (x, c_1..c_n), set up once per run.

    The drift is s' = M s + arctan(e . s) t2 + v cv + (0, B u(t - D)), with
    the interconnection's terms (`_coupling_terms`, kept as `terms`, None
    on a plant-only run) and the eigenvalues on M's diagonal.  One step is
    therefore linear in s, in its forcing inputs (the u history rows the
    three stage lags read and v at the three stage times) and in the four
    stage values a_k = arctan(e . s_k).  Running the four-stage recursion
    once on matrices gives

        s_new = R s + F + G a,   e . s_k = E_k s + F_k + sum_{j < k} T_kj a_j,

    with the forcing (F, F_1..F_4) linear in the forcing inputs.  The
    stage lags' `_taps` and B are folded into one table W whose row (l, j)
    weights entry j of the history row r + lo + l, so that the forcing of
    the step from row r is the rows r + lo .. r + hi - 1, flattened, times
    W, plus v at its stage times times their columns.  A plant-only run
    has no arctans and no v: s_new = R s + F, and R is diagonal.  Its
    block, the row solver's rows, is cut to 1 + 150 / max |log10 |rho||
    steps (rho = diag R, `_POWER_DECADES`), which binds only near the
    complex roots of the RK4 polynomial (a decaying real mode has
    |rho| >= 0.27) or for a mode that grows by more than 240 per step;
    rho = 0 gives one-step blocks.  The tables take the run's dtype, and
    so does the arctan: math.atan on a real run, cmath.atan on a complex
    one.
    """

    def __init__(self, sys: SpectralSystem, design: PredictorDesign,
                 fields: CouplingFields | None, n: int, dt: float,
                 dtype: type):
        lam, b_n = sys.eigenvalues[:n], sys.input_coeffs[:n]
        if dtype is float:
            lam, b_n = lam.real, b_n.real
        m = b_n.shape[1]
        self.coupled = fields is not None
        solve = _row_solver(design, dt)
        # the step from row r reads no u row after r + 1 - floor(D / dt), so
        # a block of at most floor(D / dt) rows reads none it reaches
        self.pad, self.block = solve.pad, solve.rows
        # stage lag j reads sum w u[r + k] over its taps (k, w); the step
        # reads the history rows r + lo .. r + hi - 1
        taps = [[(self.pad - back, w) for back, w in
                 _taps(design.delay / dt - lead)] for lead in (0.0, 0.5, 1.0)]
        self.lo = min(k for tap in taps for k, _ in tap)
        hi = max(k for tap in taps for k, _ in tap) + 1
        dim, n_hist = n + 1, (hi - self.lo) * m
        width = dim + n_hist + (7 if self.coupled else 0)

        mat = np.zeros((dim, dim), dtype)
        e_row = t2 = cv = np.zeros(dim)
        self.terms = None
        if self.coupled:
            self.terms = coupling, e_row, t2, cv = _coupling_terms(fields)
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
        # W as ((lag, u entry), row)
        self.lag_w = op[:, dim:dim + n_hist].T.copy()

        if self.coupled:
            self.s_w = op[:, :dim].T.copy()
            self.v_w = op[:, dim + n_hist:width - 4].T.copy()
            # [I G]^T, for s_new = (h[:dim], a) [I G]^T, and the map of
            # (h[:dim], a) to the next step's h before its forcing
            self.a_w = np.vstack([np.eye(dim), op[:dim, width - 4:].T])
            self.carry = self.a_w @ self.s_w
            self.tri = tuple(
                op[dim:, width - 4:][np.tril_indices(4, -1)].tolist())
            self.atan = math.atan if dtype is float else cmath.atan
        else:
            self.rho = np.diag(op).copy()
            # rho^-q and rho^(p - 1) stay within 1e+-_POWER_DECADES when
            # (block - 1) max |log10 |rho|| does not exceed it, so the block
            # is bounded before any power is taken; rho = 0 or an infinite
            # rho leaves one-row blocks
            with np.errstate(divide="ignore"):
                decades = float(np.abs(np.log10(np.abs(self.rho))).max())
            if (self.block - 1) * decades > _POWER_DECADES:
                self.block = int(1 + _POWER_DECADES / decades)
            q = np.arange(self.block)[:, None]
            self.rise, self.fall = self.rho ** -q, self.rho ** q

    def advance(self, u: np.ndarray, a: int, v_half, s: np.ndarray) -> None:
        """Step s[0], the state at row a, into s[1:] (at most `block` rows)
        from the padded input history u, a C-contiguous array; s[p] gets
        the state at row a + p.

        The forcing of every step is formed first: one product of W with a
        strided view of u whose row p is the history window of the step
        from row a + p, and, on a coupled run, v_half[2 r:2 r + 3], the v
        values of the step from row r, times their columns.  A coupled
        block then takes its steps one by one: h_p = s_p [R E]^T + f_p
        holds the new state before G a and the four arctan arguments
        before their T terms; the arctans a overwrite those, and
        s_{p+1} = (h_p[:dim], a) [I G]^T.  So h_{p+1} = h_p C + f_{p+1} with
        C = [I G]^T [R E]^T: each step is one product and one add, and the
        block's states are one product of its h rows with [I G]^T after
        its steps.  On a plant-only run the block is one linear recurrence
        per entry of s, s_{p+1} = rho s_p + f_p with rho = diag R (x's
        entry is 1 and its forcing 0), whose sum has the closed form
        s_{a+p} = rho^(p-1) (rho s_a + sum_{q<p} rho^-q f_q): one
        cumulative sum between two multiplications by power tables.
        """
        b = len(s) - 1
        # overlapping windows of u's rows, with no copy
        f = np.ndarray((b, len(self.lag_w)), u.dtype, u,
                       (a + self.lo) * u.strides[0], u.strides) @ self.lag_w
        if self.coupled:
            dim = s.shape[1]
            f += v_half[np.arange(2 * a, 2 * (a + b), 2)[:, None]
                        + (0, 1, 2)] @ self.v_w
            t10, t20, t21, t30, t31, t32 = self.tri
            atan, carry = self.atan, self.carry
            nxt = s[0] @ self.s_w
            for h in f:
                h += nxt
                g0, g1, g2, g3 = h[dim:].tolist()
                a0 = atan(g0)
                a1 = atan(g1 + t10 * a0)
                a2 = atan(g2 + t20 * a0 + t21 * a1)
                h[dim:] = a0, a1, a2, atan(
                    g3 + t30 * a0 + t31 * a1 + t32 * a2)
                nxt = h @ carry
            np.matmul(f, self.a_w, out=s[1:])
            return
        f *= self.rise[:b]
        f[0] += self.rho * s[0]
        # the cumulative sum down the rows; ufunc.accumulate skips
        # np.cumsum's Python wrapper
        np.add.accumulate(f, out=f)
        np.multiply(f, self.fall[:b], out=s[1:])
