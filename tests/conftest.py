"""Shared fixtures: the reaction-diffusion case study and its closed-loop runs.

The heavy simulations are session-scoped so the module tests and the
acceptance gate share a single run of each variant.
"""

import math

import numpy as np
import pytest

import sdcontrol as sd

CASE = dict(a=5.0, c=2.5, L=2 * np.pi, n_max=10)
COUPLINGS = dict(a1=1.5, b1=0.5, c1=0.2, a2=0.7, b2=0.55, c2=10.0, d2=0.45)


def synthetic_system(eigs, b=None, m_r=1.0, M_r=1.0):
    """Hand-built diagonal plant with unit lifting data, for unit tests."""
    eigs = np.asarray(eigs, dtype=complex)
    n = eigs.size
    if b is None:
        b = np.ones((n, 1), dtype=complex)
    b = np.asarray(b, dtype=complex)
    lift = np.ones_like(b)
    return sd.SpectralSystem(
        eigenvalues=eigs, input_coeffs=b, lifting_coeffs=lift,
        riesz_lower=m_r, riesz_upper=M_r, domain_length=1.0,
        lifting_norm_B=np.ones(b.shape[1]), lifting_norm_AB=np.ones(b.shape[1]),
        lifting_gram=np.eye(b.shape[1]), basis=None)


def zero_gain_fields(n_modes, a1=1.5, domain_length=1.0):
    """Interconnection with every coupling gain and profile zero."""
    z = np.zeros(n_modes)
    return sd.CouplingFields(a1=a1, b1=0.0, c1=0.0, a2=0.0, b2=0.0, c2=0.0,
                             d2=0.0, domain_length=domain_length, eta1=z,
                             eta2=z, theta1=z, theta2=z, theta3=z)


@pytest.fixture(scope="session")
def heat_sys():
    return sd.build_heat_system(**CASE)


@pytest.fixture(scope="session")
def design(heat_sys):
    return sd.design_predictor(heat_sys, n0=2, delay=0.1,
                               poles=[-3.0, -3.0], t0=0.2)


@pytest.fixture(scope="session")
def bundle(heat_sys, design):
    return sd.optimize_parameters(heat_sys, design)


@pytest.fixture(scope="session")
def fields(heat_sys):
    return sd.case_study_fields(heat_sys, n_modes=10, **COUPLINGS)


@pytest.fixture(scope="session")
def x0_coeffs(heat_sys):
    L = heat_sys.domain_length
    return sd.project_profile(
        heat_sys, lambda xi: -5.0 * xi * (L / 2 - xi) * (L - xi), 10)


@pytest.fixture(scope="session")
def disturbed_traj(heat_sys, design, fields, x0_coeffs, bundle):
    cfg = sd.SimConfig(dt=1e-3, t_end=10.0, n_modes=10,
                       disturbance="case-study")
    return sd.simulate(cfg, heat_sys, design, fields, x0=-2.0,
                       x0_coeffs=x0_coeffs, bundle=bundle)


@pytest.fixture(scope="session")
def quiet_traj(heat_sys, design, fields, x0_coeffs, bundle):
    """v == 0 but the interconnection feedback still active."""
    cfg = sd.SimConfig(dt=1e-3, t_end=10.0, n_modes=10, disturbance="none")
    return sd.simulate(cfg, heat_sys, design, fields, x0=-2.0,
                       x0_coeffs=x0_coeffs, bundle=bundle)


@pytest.fixture(scope="session")
def dzero_traj(heat_sys, design, x0_coeffs, bundle):
    """d == 0: exogenous input off and the feedback coupling gains zeroed."""
    f0 = sd.case_study_fields(heat_sys, n_modes=10,
                              **{**COUPLINGS, "a2": 0.0, "b2": 0.0})
    cfg = sd.SimConfig(dt=1e-3, t_end=10.0, n_modes=10, disturbance="none")
    return sd.simulate(cfg, heat_sys, design, f0, x0=-2.0,
                       x0_coeffs=x0_coeffs, bundle=bundle)


@pytest.fixture(scope="session")
def open_loop_traj(heat_sys, x0_coeffs):
    des0 = sd.zero_gain_design(heat_sys, n0=2, delay=0.1, t0=0.2)
    fz = zero_gain_fields(10, domain_length=heat_sys.domain_length)
    cfg = sd.SimConfig(dt=1e-3, t_end=4.0, n_modes=10, disturbance="none")
    return sd.simulate(cfg, heat_sys, des0, fz, x0=-2.0,
                       x0_coeffs=x0_coeffs)


def closed_loop_ode(design, y0, t_end, dt):
    """Integrate the delayed finite-dimensional loop dY = A Y + B u(t-D).

    The input is the ramped predictor feedback u = phi K Z computed with the
    same trapezoid-endpoint implicit update the simulator uses, so the
    recorded (Y, u) pair is consistent with the inversion operator's
    quadrature.  The input history is a plain array read by its own index
    arithmetic, and the window's trapezoid weights are built here from its
    nodes, apart from the library's window weights.  Returns (times,
    Y samples, u samples).
    """
    lam = design.eigenvalues
    b = design.b_n0
    gain = design.gain
    edab = np.exp(-design.delay * lam)[:, None] * b
    delay = design.delay
    n0 = design.n0
    m = b.shape[1]
    phi = design.transition.phi

    nsteps = int(round(t_end / dt))
    y = np.asarray(y0, dtype=complex).copy()
    times = np.arange(nsteps + 1) * dt
    ys = np.zeros((nsteps + 1, n0), dtype=complex)
    us = np.zeros((nsteps + 1, m), dtype=complex)

    # the window [t1 - D, t1 - dt] of step i holds its two ends and the
    # grid nodes j = i + 1 + q for q0 <= q <= -2, so its nodes relative to
    # t1, its kernel exp((t1 - D - s) A) and its trapezoid weights are the
    # same at every step; so is the endpoint matrix once the ramp is done.
    # The last weight takes the endpoint term dt/2 of the implicit update
    q0 = math.floor(-delay / dt + 1e-9) + 1
    nodes = np.concatenate([[-delay], np.arange(q0, -1) * dt, [-dt]])
    gaps = np.diff(nodes) / 2.0
    weights = np.concatenate([gaps, [dt / 2.0]]) \
        + np.concatenate([[0.0], gaps])
    w_kern = weights[:, None] * np.exp(np.outer(-delay - nodes, lam))
    # b u at each grid row, behind zero rows for the window before t = 0
    pad = len(nodes)
    bus = np.zeros((pad + nsteps + 1, n0), dtype=complex)
    ys[0] = y
    us[0] = float(phi(0.0)) * (gain @ y)
    bus[pad] = b @ us[0]
    eye = np.eye(n0, dtype=complex)
    half_ebk = (dt / 2.0) * (edab @ gain)
    inv_on = np.linalg.inv(eye - half_ebk)
    phi1s = phi(np.arange(nsteps) * dt + dt)  # phi(t1) of every step

    def u_at(t):
        # linear between samples, zero before t = 0
        x = t / dt
        if x < -1e-9:
            return np.zeros(m, dtype=complex)
        j = math.floor(x + 1e-9)
        f = x - j
        return us[j] if f <= 1e-9 else (1.0 - f) * us[j] + f * us[j + 1]

    for i in range(nsteps):
        t = i * dt
        t1 = t + dt
        lo, hi = t1 - delay, t1 - dt
        # dY = A Y + B u(t - D) at the RK4 stage times t, t + dt/2, t1
        bu0 = b @ u_at(t - delay)
        bu_mid = b @ u_at(t + dt / 2 - delay)
        u_lo = u_at(lo)
        bu1 = b @ u_lo
        k1 = lam * y + bu0
        k2 = lam * (y + dt / 2 * k1) + bu_mid
        k3 = lam * (y + dt / 2 * k2) + bu_mid
        k4 = lam * (y + dt * k3) + bu1
        y = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)

        # window [t1 - D, t1 - dt]: its ends plus the grid nodes inside;
        # its upper end is grid row i
        k0 = math.floor(lo / dt + 1e-9) + 1
        assert (k0, math.ceil(hi / dt - 1e-9)) == (i + 1 + q0, i), \
            "window nodes moved"
        known = w_kern[0] * (b @ u_lo) + np.einsum(
            "jk,jk->k", w_kern[1:], bus[pad + k0:pad + i + 1])
        phi1 = float(phi1s[i])
        if phi1 == 1.0:
            z = inv_on @ (y + known)
        else:
            z = np.linalg.solve(eye - phi1 * half_ebk, y + known)
        ys[i + 1] = y
        us[i + 1] = phi1 * (gain @ z)
        bus[pad + i + 1] = b @ us[i + 1]
    return times, ys, us


def random_design(rng, n0=None, m=None, delay=None):
    """A random controllable diagonal plant wrapped in a predictor design,
    and the poles its gain places."""
    n0 = n0 or int(rng.integers(1, 4))
    m = m or int(rng.integers(1, 3))
    delay = delay or float(rng.uniform(0.05, 0.5))
    while True:
        lam = rng.uniform(-3.0, 1.0, n0)
        if n0 == 1 or np.abs(np.subtract.outer(lam, lam))[
                np.triu_indices(n0, 1)].min() > 0.1:
            break
    b = rng.uniform(0.5, 2.0, (n0, m)) * rng.choice([-1.0, 1.0], (n0, m))
    poles = np.sort(rng.uniform(-4.0, -0.5, n0)).astype(complex)
    gain = sd.place_poles(lam, np.exp(-delay * lam)[:, None] * b, poles)
    return sd.PredictorDesign(
        eigenvalues=lam, b_n0=b.astype(complex), delay=delay, gain=gain,
        transition=sd.TransitionSignal(0.2)), poles
