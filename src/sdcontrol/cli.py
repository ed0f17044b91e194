"""Command line interface.

Subcommands: validate, design, certify, simulate, case-study.  Exit codes:
0 success, 1 configuration error, 2 violated plant assumption, 3 gain
synthesis failure, 4 infeasible certificate (or nonpositive
interconnection margin), 5 diverged simulation.  Verbosity is controlled
by the SDC_LOG environment variable (error, info, debug).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys as _sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .certificates import (
    compute_constants,
    coupling_constants,
    optimize_parameters,
    render_certificate,
    small_gain_margin,
)
from .config import (
    CASE_STUDY_INI,
    RunConfig,
    case_study_run_config,
    load_config,
)
from .errors import (
    AssumptionViolatedError,
    CertificateParameterError,
    ConfigError,
    InfeasibleCertificateError,
    InsufficientDataError,
    InvalidParameterError,
    SimulationDivergedError,
    SynthesisFailureError,
    ToolkitError,
)
from .predictor import (
    _place_retained,
    design_predictor,
    solve_lyapunov,
    zero_gain_design,
)
from .simulate import (
    SimConfig,
    _check_rk4_stability,
    case_study_fields,
    case_study_initial_profile,
    decay_fit,
    iss_envelope_check,
    simulate,
    write_csv,
)
from .spectral import (
    build_heat_system,
    check_kalman,
    check_truncation,
    project_profile,
)

log = logging.getLogger("sdcontrol")

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO,
               "debug": logging.DEBUG}


def _setup_logging() -> None:
    raw = os.environ.get("SDC_LOG", "info").strip().lower()
    level = _LOG_LEVELS.get(raw)
    if level is None:
        level = logging.INFO
    logging.basicConfig(level=level,
                        format="%(levelname)s %(name)s: %(message)s")
    if raw not in _LOG_LEVELS:
        log.warning("unknown SDC_LOG value %r, using info", raw)


def _exit_code(exc: ToolkitError) -> int:
    if isinstance(exc, (ConfigError, InvalidParameterError)):
        return 1
    if isinstance(exc, AssumptionViolatedError):
        return 2
    if isinstance(exc, SynthesisFailureError):
        return 3
    if isinstance(exc, (InfeasibleCertificateError, CertificateParameterError)):
        return 4
    if isinstance(exc, SimulationDivergedError):
        return 5
    return 1


def _build_system(cfg: RunConfig, n_max: int | None = None):
    p = cfg.plant
    return build_heat_system(p.a, p.c, p.L, n_max if n_max else p.n_max)


def _fmt_complex(z: complex) -> str:
    z = complex(z)
    if abs(z.imag) < 1e-12 * max(1.0, abs(z.real)):
        return format(z.real, ".12g")
    return f"{z.real:.12g}{z.imag:+.12g}j"


def _validation_report(cfg: RunConfig, sys_) -> tuple[str, bool]:
    lines = [
        "eigenvalues: " + ", ".join(_fmt_complex(z) for z in sys_.eigenvalues),
        f"N0 = {cfg.truncation.n0}",
    ]
    trunc = check_truncation(sys_, cfg.truncation.n0)  # may raise
    lines.append(f"alpha = {trunc.alpha:.12g}")
    ok = cfg.truncation.n0 == 0 or check_kalman(sys_, cfg.truncation.n0)
    lines.append(f"kalman: {'controllable' if ok else 'UNCONTROLLABLE'}")
    return "\n".join(lines) + "\n", ok


def cmd_validate(cfg: RunConfig) -> int:
    sys_ = _build_system(cfg)
    report, ok = _validation_report(cfg, sys_)
    print(report, end="")
    if not ok:
        log.error("the retained block is not controllable")
        return 2
    return 0


def _write_design(out_dir: Path, gain, a_cl, lyap) -> None:
    """gain.csv plus design.txt; lyap is None when a_cl is not Hurwitz."""
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "gain.csv", "w", newline="") as fh:
        for row in np.atleast_2d(gain):
            fh.write(",".join(repr(float(v.real)) for v in row) + "\n")
    lines = ["gain K (rows = input channels):"]
    for row in np.atleast_2d(gain):
        lines.append("  " + ", ".join(_fmt_complex(v) for v in row))
    spec = np.linalg.eigvals(a_cl)
    lines.append("closed-loop spectrum: "
                 + ", ".join(_fmt_complex(z) for z in spec))
    hurwitz = bool(spec.real.max() < 0)
    lines.append(f"hurwitz: {str(hurwitz).lower()}")
    if lyap is not None:
        residual = float(np.abs(a_cl.conj().T @ lyap + lyap @ a_cl
                                + np.eye(a_cl.shape[0])).max())
        lines.append("lyapunov P:")
        for row in np.atleast_2d(lyap):
            lines.append("  " + ", ".join(_fmt_complex(v) for v in row))
        lines.append(f"lyapunov residual = {residual:.6g}")
    else:
        lines.append("lyapunov P: not computed (closed loop is not Hurwitz)")
    (out_dir / "design.txt").write_text("\n".join(lines) + "\n")


def cmd_design(cfg: RunConfig, out_dir: Path) -> int:
    sys_ = _build_system(cfg)
    check_truncation(sys_, cfg.truncation.n0)
    if cfg.truncation.n0 < 1:
        raise AssumptionViolatedError("design requires N0 >= 1")
    if not check_kalman(sys_, cfg.truncation.n0):
        raise SynthesisFailureError("the retained block is not controllable")

    *_, gain, a_cl = _place_retained(sys_, cfg.truncation.n0,
                                     cfg.control.delay, cfg.control.poles)
    if float(np.linalg.eigvals(a_cl).real.max()) >= 0:
        _write_design(out_dir, gain, a_cl, None)
        log.error("closed-loop spectrum is not Hurwitz; design is unusable")
        return 3
    _write_design(out_dir, gain, a_cl, solve_lyapunov(a_cl))
    log.info("design written to %s", out_dir / "design.txt")
    return 0


def _make_design(cfg: RunConfig, sys_, open_loop: bool = False):
    if cfg.truncation.n0 < 1:
        raise AssumptionViolatedError("feedback design requires N0 >= 1")
    if open_loop:
        return zero_gain_design(sys_, cfg.truncation.n0, cfg.control.delay,
                                cfg.control.t0)
    return design_predictor(sys_, cfg.truncation.n0, cfg.control.delay,
                            cfg.control.poles, cfg.control.t0)


def _make_bundle(cfg: RunConfig, sys_, design):
    cert = cfg.certificate
    if not cert.optimize:
        return compute_constants(sys_, design, cert.beta, cert.gamma1,
                                 cert.gamma2)
    return optimize_parameters(sys_, design)


def _coupling_from_config(cfg: RunConfig):
    c = cfg.coupling
    return coupling_constants(c.a1, c.b1, c.c1, c.a2, c.b2, c.c2, c.d2,
                              cfg.plant.L)


def _write_certificate(cfg: RunConfig, out_dir: Path, bundle) -> int:
    margin = small_gain_margin(bundle, _coupling_from_config(cfg))
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "certificate.txt").write_text(render_certificate(bundle, margin))
    log.info("certificate written to %s", out_dir / "certificate.txt")
    if margin <= 0:
        log.warning("interconnection margin %.6g is not positive; "
                    "the coupled loop is not certified (simulation is "
                    "still permitted)", margin)
        return 4
    return 0


def cmd_certify(cfg: RunConfig, out_dir: Path) -> int:
    sys_ = _build_system(cfg)
    check_truncation(sys_, cfg.truncation.n0)
    design = _make_design(cfg, sys_)
    return _write_certificate(cfg, out_dir, _make_bundle(cfg, sys_, design))


def _initial_state(cfg: RunConfig, sys_, n_modes: int):
    init = cfg.initial
    if init.pde_profile == "cubic":
        profile = case_study_initial_profile(sys_.domain_length)
        coeffs = project_profile(sys_, profile, n_modes)
        return init.x0, coeffs.real
    if init.pde_profile == "coeffs":
        coeffs = np.zeros(n_modes)
        given = np.asarray(init.coeffs, dtype=float)
        if given.size > n_modes:
            raise ConfigError(
                f"initial coeffs list longer than N_modes = {n_modes}")
        coeffs[:given.size] = given
        return init.x0, coeffs
    return init.x0, np.zeros(n_modes)


def _run_simulation(cfg: RunConfig, sys_, design, bundle,
                    no_disturbance: bool):
    coup = cfg.coupling
    n_modes = cfg.simulation.n_modes
    disturbance = "none" if no_disturbance else coup.disturbance
    a2 = 0.0 if no_disturbance else coup.a2
    b2 = 0.0 if no_disturbance else coup.b2
    fields = case_study_fields(sys_, n_modes, a1=coup.a1, b1=coup.b1,
                               c1=coup.c1, a2=a2, b2=b2, c2=coup.c2,
                               d2=coup.d2)
    sim_cfg = SimConfig(dt=cfg.simulation.dt, t_end=cfg.simulation.t_end,
                        n_modes=n_modes,
                        record_stride=cfg.simulation.record_stride,
                        disturbance=disturbance)
    x0, coeffs0 = _initial_state(cfg, sys_, n_modes)
    return simulate(sim_cfg, sys_, design, fields, x0, coeffs0, bundle)


def _summary_report(cfg: RunConfig, traj, bundle) -> str:
    lines = [
        f"steps recorded = {len(traj)}",
        f"dt = {traj.dt:.12g}",
        f"t_end = {cfg.simulation.t_end:.12g}",
    ]
    if len(traj):
        u_mag = np.abs(traj.u)
        lines.append(f"max input magnitude = "
                     f"{float(u_mag.max(initial=0.0)):.12g}")
        lines.append(f"sup disturbance norm = {float(traj.norm_d.max()):.12g}")
        lines.append(f"final state norm = {float(traj.norm_x[-1]):.12g}")
        t_on = traj.delay + traj.t0
        try:
            rate, amp = decay_fit(traj, t_on)
            lines.append(f"decay fit after t = {t_on:.12g}: rate = "
                         f"{rate:.12g}, amplitude = {amp:.12g}")
        except InsufficientDataError:
            lines.append("decay fit: not enough samples")
        if traj.has_certificate and bundle is not None:
            try:
                ok, worst = iss_envelope_check(traj, bundle,
                                               float(traj.norm_d.max()))
                verdict = "ok" if ok else "VIOLATED"
                lines.append(f"iss envelope: {verdict} "
                             f"(worst ratio = {worst:.12g})")
            except InsufficientDataError:
                lines.append("iss envelope: not enough samples")
    return "\n".join(lines) + "\n"


def _write_simulation(cfg: RunConfig, out_dir: Path, traj, bundle) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / cfg.simulation.output
    write_csv(traj, csv_path)
    (out_dir / "summary.txt").write_text(_summary_report(cfg, traj, bundle))
    log.info("trajectory written to %s", csv_path)


def cmd_simulate(cfg: RunConfig, out_dir: Path, no_disturbance: bool = False,
                 open_loop: bool = False) -> int:
    sys_ = _build_system(cfg)
    _check_rk4_stability(sys_, cfg.simulation.n_modes, cfg.simulation.dt)
    check_truncation(sys_, cfg.truncation.n0)
    design = _make_design(cfg, sys_, open_loop=open_loop)
    bundle = None if open_loop else _make_bundle(cfg, sys_, design)
    traj = _run_simulation(cfg, sys_, design, bundle, no_disturbance)
    _write_simulation(cfg, out_dir, traj, bundle)
    return 0


def cmd_case_study(out_dir: Path, no_disturbance: bool = False,
                   open_loop: bool = False, t_end: float | None = None) -> int:
    cfg = case_study_run_config()
    if t_end is not None:
        cfg = replace(cfg, simulation=replace(cfg.simulation, t_end=t_end))
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "case_study.ini").write_text(CASE_STUDY_INI)

    # the plant, the design and the certificate are built once and shared
    # by the design, certificate and simulation writers
    sys_ = _build_system(cfg)
    report, ok = _validation_report(cfg, sys_)
    (out_dir / "validate.txt").write_text(report)
    print(report, end="")
    if not ok:
        return 2

    design = _make_design(cfg, sys_, open_loop=open_loop)
    bundle = None
    certify_code = 0
    if open_loop:
        (out_dir / "design.txt").write_text(
            "open-loop run: gain K = 0, no certificate\n")
    else:
        _write_design(out_dir, design.gain, design.a_cl, design.lyap)
        bundle = _make_bundle(cfg, sys_, design)
        # a nonpositive interconnection margin (exit 4) still permits the
        # plant-side certificate and the simulation, so keep going
        certify_code = _write_certificate(cfg, out_dir, bundle)

    traj = _run_simulation(cfg, sys_, design, bundle, no_disturbance)
    _write_simulation(cfg, out_dir, traj, bundle)
    return certify_code


def main(argv=None) -> int:
    _setup_logging()
    parser = argparse.ArgumentParser(
        prog="sdcontrol",
        description="Design, certify and simulate delayed boundary feedback "
                    "for diagonal modal plants.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True,
                           help="path to the INI run configuration")
        p.add_argument("--out", default=".",
                       help="output directory (default: current)")

    add_common(sub.add_parser("validate",
                              help="check spectrum, truncation and "
                                   "controllability assumptions"))
    add_common(sub.add_parser("design",
                              help="synthesize the delay-compensating gain"))
    add_common(sub.add_parser("certify",
                              help="compute the stability certificate"))
    p_sim = sub.add_parser("simulate", help="run the closed loop")
    add_common(p_sim)
    p_sim.add_argument("--no-disturbance", action="store_true",
                       help="disable the exogenous input and the injected "
                            "disturbance coupling")
    p_sim.add_argument("--open-loop", action="store_true",
                       help="run with zero gain (no feedback)")
    p_case = sub.add_parser("case-study",
                            help="run the built-in reaction-diffusion "
                                 "case study end to end")
    add_common(p_case, needs_config=False)
    p_case.add_argument("--no-disturbance", action="store_true",
                        help="disable the exogenous input and the injected "
                             "disturbance coupling")
    p_case.add_argument("--open-loop", action="store_true",
                        help="run with zero gain (no feedback)")

    args = parser.parse_args(argv)
    out_dir = Path(args.out)

    try:
        if args.command == "case-study":
            return cmd_case_study(out_dir,
                                  no_disturbance=args.no_disturbance,
                                  open_loop=args.open_loop)
        cfg = load_config(args.config)
        if args.command == "validate":
            return cmd_validate(cfg)
        if args.command == "design":
            return cmd_design(cfg, out_dir)
        if args.command == "certify":
            return cmd_certify(cfg, out_dir)
        if args.command == "simulate":
            return cmd_simulate(cfg, out_dir,
                                no_disturbance=args.no_disturbance,
                                open_loop=args.open_loop)
        raise ConfigError(f"unknown command {args.command!r}")
    except ToolkitError as exc:
        code = _exit_code(exc)
        log.error("%s (exit %d)", exc, code)
        return code


def entry() -> None:
    _sys.exit(main())


if __name__ == "__main__":
    entry()
