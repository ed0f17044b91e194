"""Checks of every operation's output, made apart from the program.

Plant data are rebuilt from the closed forms, matrix functions come from
numpy and scipy.linalg, and the certificate algebra is redone here.  Each
check raises CheckFailed with a message naming what disagreed.  This module
is imported only after set-up has been timed.
"""

from __future__ import annotations

import configparser
import math

import numpy as np
import scipy.linalg

from workloads import COUPLING, L, A_DIFF

REPORT_KEYS = ("beta", "gamma1", "gamma2", "C1", "C2g1", "C3g2", "C4", "C5",
               "C6", "kappa0", "small_gain_constant", "margin")
ARTIFACTS = ("case_study.ini", "validate.txt", "design.txt", "gain.csv",
             "certificate.txt", "trajectory.csv", "summary.txt")


class CheckFailed(AssertionError):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(a: float, b: float, rel: float, what: str) -> None:
    _require(abs(a - b) <= rel * max(abs(a), abs(b), 1e-300),
             f"{what}: {a!r} != {b!r}")


def heat_modes(a: float, c: float, length: float, n: int):
    """lambda_n = c - a n^2 pi^2 / L^2, b_n = a n pi sqrt(2/L^3) (1, (-1)^(n+1))."""
    k = np.arange(1, n + 1)
    lam = c - a * k ** 2 * np.pi ** 2 / length ** 2
    col = a * k * np.pi * np.sqrt(2.0 / length ** 3)
    return lam, np.column_stack([col, (-1.0) ** (k + 1) * col])


def closed_loop(lam, b, delay, gain):
    """A + exp(-D A) B K for the diagonal retained block."""
    return np.diag(lam).astype(complex) + \
        (np.exp(-delay * lam)[:, None] * b) @ np.asarray(gain, dtype=complex)


def _match_poles(matrix, poles, what: str) -> None:
    """Eigenvalues equal the poles; a double pole moves eigenvalues by
    about sqrt(eps), hence the tolerance."""
    eig = list(np.linalg.eigvals(matrix))
    _require(len(eig) == len(poles), f"{what}: {len(eig)} eigenvalues for "
                                     f"{len(poles)} poles")
    for p in poles:
        j = min(range(len(eig)), key=lambda i: abs(eig[i] - p))
        _require(abs(eig[j] - p) <= 1e-5 * max(1.0, abs(p)),
                 f"{what}: eigenvalue {eig[j]:.10g} for pole {p}")
        eig.pop(j)


def _coupling_product(cfg: dict) -> float:
    """d1 ct1 + d2 of the scalar/plant interconnection."""
    d1 = abs(cfg["a2"])
    ct1 = 2.0 * abs(cfg["b1"]) / (cfg["a1"] * cfg["L"])
    d2 = abs(cfg["b2"] * cfg["d2"]) / cfg["L"]
    return d1 * ct1 + d2


# --- case-study ---------------------------------------------------------

def check_case_study(result) -> None:
    _require(result.exit_code == 4, f"exit code {result.exit_code}, "
                                    "expected 4 (margin not positive)")
    out = result.out_dir
    for name in ARTIFACTS:
        _require((out / name).is_file(), f"missing artifact {name}")

    ini = configparser.ConfigParser(inline_comment_prefixes=(";",))
    ini.read(out / "case_study.ini")

    def num(section, key):
        return float(ini[section][key])

    a, c, length = num("plant", "a"), num("plant", "c"), num("plant", "L")
    n0 = int(ini["truncation"]["N0"])
    delay = num("control", "D")
    poles = [complex(p) for p in ini["control"]["poles"].split(",")]
    dt, t_end = num("simulation", "dt"), num("simulation", "T_end")
    n_modes = int(ini["simulation"]["N_modes"])
    coup = {k: num("coupling", k) for k in COUPLING}
    coup["L"] = length

    lam, b = heat_modes(a, c, length, n0)
    gain = np.loadtxt(out / "gain.csv", delimiter=",", ndmin=2)
    _match_poles(closed_loop(lam, b, delay, gain), poles,
                 "gain.csv closed loop")

    lines = (out / "certificate.txt").read_text().splitlines()
    pairs = [line.split(" = ") for line in lines]
    _require(tuple(k for k, _ in pairs) == REPORT_KEYS,
             f"certificate keys {[k for k, _ in pairs]}")
    cert = {k: float(v) for k, v in pairs}
    check_small_gain(cert["C4"], cert["C6"], cert["kappa0"],
                     cert["small_gain_constant"])
    margin = 1.0 - _coupling_product(coup) * cert["small_gain_constant"]
    _close(cert["margin"], margin, 1e-12, "certificate margin")
    _require(cert["margin"] < 0.0, f"margin {cert['margin']} is not negative")

    with open(out / "trajectory.csv") as fh:
        header = fh.readline().rstrip("\n")
    m = b.shape[1]
    expected = ",".join(["t", "x", "normX", "V"]
                        + [f"u{j}" for j in range(1, m + 1)] + ["normd"]
                        + [f"c{k}" for k in range(1, n_modes + 1)])
    _require(header == expected, f"trajectory header {header!r}")
    data = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
    rows = round(t_end / dt) + 1
    _require(data.shape == (rows, 5 + m + n_modes),
             f"trajectory shape {data.shape}, expected {rows} rows")
    t, norm_x, v, norm_d = data[:, 0], data[:, 2], data[:, 3], data[:, 4 + m]
    coeffs = data[:, 5 + m:]
    err = np.abs(norm_x - np.linalg.norm(coeffs, axis=1))
    _require(bool(np.all(err <= 1e-10 * np.maximum(norm_x, 1e-12))),
             f"normX differs from ||c|| by up to {err.max():.3g}")
    bound = cert["C4"] * np.sqrt(v)
    _require(bool(np.all(norm_x <= bound * (1.0 + 1e-9))),
             "normX exceeds C4 sqrt(V)")
    check_iss_envelope(t, v, norm_d, delay + num("control", "t0"),
                       cert["kappa0"], cert["C6"])


def check_small_gain(c4, c6, kappa0, sgc) -> None:
    _close(sgc, c4 * math.sqrt(c6 / (2.0 * kappa0)), 1e-12,
           "small-gain constant C4 sqrt(C6 / 2 kappa0)")


def check_iss_envelope(t, v, norm_d, t_on, kappa0, c6) -> None:
    """V(t) <= 1.05 (exp(-2 kappa0 (t - t_on)) V(t_on) + C6/(2 kappa0) d^2)."""
    after = t >= t_on - 1e-12
    v_on = float(np.interp(t_on, t, v))
    rhs = (np.exp(-2.0 * kappa0 * (t[after] - t_on)) * v_on
           + c6 / (2.0 * kappa0) * float(norm_d.max()) ** 2)
    worst = float((v[after] / rhs).max())
    _require(worst <= 1.05, f"ISS envelope exceeded: worst ratio {worst:.4g}")


# --- design-sweep -------------------------------------------------------

def check_design(result, compute_constants) -> None:
    """compute_constants is the program's function, evaluated at a feasible
    point formed here that the search's start scan also evaluates."""
    draw, design, bundle = result.draw, result.design, result.bundle
    lam, b = heat_modes(A_DIFF, draw.c, L, 10)
    _require(bool(lam[draw.n0 - 1] > 0 > lam[draw.n0]),
             f"expected {draw.n0} unstable modes")
    _close(result.alpha, -lam[draw.n0], 1e-12, "decay margin alpha")
    _require(result.controllable, "retained block reported uncontrollable")
    n0 = draw.n0
    a_cl = closed_loop(lam[:n0], b[:n0], draw.delay, design.gain)
    _match_poles(a_cl, draw.poles, "closed loop")
    _require(float(np.abs(a_cl - design.a_cl).max())
             <= 1e-10 * max(1.0, float(np.abs(a_cl).max())),
             "a_cl differs from A + exp(-DA) B K")
    ref = scipy.linalg.solve_continuous_lyapunov(a_cl.conj().T,
                                                 -np.eye(n0))
    _require(float(np.abs(design.lyap - ref).max())
             <= 1e-8 * float(np.abs(ref).max()),
             "Lyapunov matrix differs from solve_continuous_lyapunov")

    # the sine basis is orthonormal: both frame bounds are 1
    eig_p = np.linalg.eigvalsh(ref)
    _close(bundle.lam_min_P, float(eig_p[0]), 1e-8, "lam_min(P)")
    _close(bundle.lam_max_P, float(eig_p[-1]), 1e-8, "lam_max(P)")
    # the identities use the bundle's own lam(P); C2g1 and C3g2 are
    # differences that the search drives toward zero, so they are compared
    # on the scale of their terms
    lmin, lmax = bundle.lam_min_P, bundle.lam_max_P
    beta, g1, g2 = bundle.beta, bundle.gamma1, bundle.gamma2
    bk2 = bundle.norm_BK ** 2
    alpha = -lam[n0]
    _require(0.0 < beta < 1.0, f"beta {beta} outside (0, 1)")
    _require(g1 > bundle.C1 / lmin, "gamma1 <= C1 / lam_min(P)")
    _require(g2 > bk2 / lmin, "gamma2 <= ||BK||^2 / lam_min(P)")
    _require(g2 > bundle.C5 / (1.0 - beta), "gamma2 <= C5 / (1 - beta)")
    _require(abs(bundle.C2g1 - (g1 * lmin - bundle.C1)) <= 1e-12 * g1 * lmin,
             "C2g1 != gamma1 lam_min(P) - C1")
    _require(abs(bundle.C3g2 - (g2 * lmin - bk2)) <= 1e-12 * g2 * lmin,
             "C3g2 != gamma2 lam_min(P) - ||BK||^2")
    _close(bundle.C4, math.sqrt(2.0) + bundle.norm_BK / math.sqrt(bundle.C3g2),
           1e-12, "C4")
    kappa0 = 0.5 * min((1.0 - beta) / lmax,
                       (1.0 - beta - bundle.C5 / g2) / lmax, alpha / 2.0)
    _close(bundle.kappa0, kappa0, 1e-9, "kappa0")
    c6 = (2.0 * (1.0 + bk2) / alpha
          + (g1 * (1.0 + draw.delay) + g2) * lmax ** 2 / beta)
    _close(bundle.C6, c6, 1e-12, "C6")
    _require(bundle.kappa0 > 0.0, "kappa0 is not positive")
    check_small_gain(bundle.C4, bundle.C6, bundle.kappa0,
                     bundle.small_gain_constant)
    coup = dict(COUPLING, L=L)
    _close(result.margin,
           1.0 - _coupling_product(coup) * bundle.small_gain_constant, 1e-12,
           "small-gain margin")

    g1_min = bundle.C1 / lmin
    g2_min = max(bk2 / lmin, bundle.C5 / 0.5)
    start = compute_constants(result.system, design, 0.5,
                              3.0 * g1_min, 3.0 * g2_min)
    _require(bundle.small_gain_constant
             <= start.small_gain_constant * (1.0 + 1e-9),
             f"optimum {bundle.small_gain_constant:.6g} worse than the start "
             f"point's {start.small_gain_constant:.6g}")


# --- ensemble -----------------------------------------------------------

def check_ensemble(result) -> None:
    traj, design, draw = result.traj, result.design, result.draw
    n0 = design.n0
    _require(bool(np.all(np.isfinite(traj.coeffs.view(float))))
             and bool(np.all(np.isfinite(traj.norm_x))), "state not finite")
    _require(float(traj.norm_x[-1]) <= 0.1 * float(traj.norm_x.max()),
             f"state did not decay: final {traj.norm_x[-1]:.3g}, "
             f"peak {traj.norm_x.max():.3g}")

    lam, b = heat_modes(A_DIFF, 2.5, L, n0)
    a_cl = closed_loop(lam, b, draw.delay, design.gain)
    after = np.flatnonzero(traj.t >= design.transition.t0 - 1e-12)
    t1 = after[0]
    tau = traj.t[after] - traj.t[t1]
    prop = scipy.linalg.expm(tau[:, None, None] * a_cl[None])
    z_ref = prop @ traj.z[t1]
    err = np.linalg.norm(traj.z[after] - z_ref, axis=1) \
        / np.linalg.norm(z_ref, axis=1)
    # relative to the decaying Z the error grows with t: 1e-6 to 5e-6 at
    # the end of the run, below 1e-5 on seeds 1-40
    _require(float(err.max()) <= 5e-5,
             f"Z after the ramp differs from expm(A_cl t) Z(t1) by "
             f"{err.max():.3g} (relative)")

    scale = float(np.abs(traj.u).max())
    du = float(np.abs(result.u_inv - traj.u).max())
    _require(du <= 1e-7 * scale,
             f"invert_artstein differs from the recorded u by {du:.3g} "
             f"(scale {scale:.3g})")
