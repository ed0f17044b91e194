"""Command line interface.

Subcommands: validate, design, certify, simulate, case-study.  Every
command runs the stages validate (truncation and Kalman checks), design
(predictor gain and Lyapunov matrix), certify (certificate and
interconnection margin) and simulate (the closed loop) in that order, up
to its own stage, on one plant.  Only the command's own stage writes
artifacts and sets the exit code; case-study writes those of every stage.
Exit codes (each error's ``exit_code``): 0 success, 1 configuration
error (a run file that `load_config` rejects: a missing, unknown,
malformed, non-finite or inconsistent key or section), 2 violated plant
assumption, 3 gain synthesis failure (an uncontrollable retained block,
non-Hurwitz poles or an ill-conditioned P), 4 infeasible certificate (or
nonpositive interconnection margin), 5 diverged simulation.  Verbosity is
controlled by the SDC_LOG environment variable (error, info, debug).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys as _sys
from pathlib import Path

import numpy as np

from . import __version__
from ._loop import _check_rk4_stability
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
    InsufficientDataError,
    SynthesisFailureError,
    ToolkitError,
)
from .predictor import design_predictor, zero_gain_design
from .simulate import (
    SimConfig,
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


def _write_design(out_dir: Path, design, open_loop: bool) -> None:
    """gain.csv plus design.txt; an open-loop run writes design.txt only."""
    out_dir.mkdir(parents=True, exist_ok=True)
    if open_loop:
        (out_dir / "design.txt").write_text(
            "open-loop run: gain K = 0, no certificate\n")
        return
    gain, a_cl, lyap = design.gain, design.a_cl, design.lyap
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
    log.info("design written to %s", out_dir / "design.txt")


def _write_certificate(cfg: RunConfig, out_dir: Path, bundle) -> int:
    coupling = coupling_constants(**cfg.coupling.gains(), L=cfg.plant.L)
    margin = small_gain_margin(bundle, coupling)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "certificate.txt").write_text(render_certificate(bundle, margin))
    log.info("certificate written to %s", out_dir / "certificate.txt")
    if margin <= 0:
        log.warning("interconnection margin %.6g is not positive; "
                    "the coupled loop is not certified (simulation is "
                    "still permitted)", margin)
        return 4
    return 0


def _initial_state(cfg: RunConfig, sys_, n_modes: int):
    init = cfg.initial
    if init.pde_profile == "cubic":
        profile = case_study_initial_profile(sys_.domain_length)
        coeffs = project_profile(sys_, profile, n_modes)
        return init.x0, coeffs.real
    if init.pde_profile == "coeffs":
        coeffs = np.zeros(n_modes)
        coeffs[:len(init.coeffs)] = init.coeffs
        return init.x0, coeffs
    return init.x0, np.zeros(n_modes)


def _run_simulation(cfg: RunConfig, sys_, design, bundle,
                    no_disturbance: bool):
    n_modes = cfg.simulation.n_modes
    disturbance = "none" if no_disturbance else cfg.coupling.disturbance
    gains = cfg.coupling.gains()
    if no_disturbance:
        gains.update(a2=0.0, b2=0.0)
    fields = case_study_fields(sys_, n_modes, **gains)
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


def _run(cfg: RunConfig, out_dir: Path, last: str,
         no_disturbance: bool = False, open_loop: bool = False,
         write_all: bool = False) -> int:
    """Run the stages validate, design, certify, simulate up to `last`.

    The plant is built once and each stage runs once, in that order.  Only
    the last stage writes its artifacts and sets the exit code; with
    write_all (case-study) every stage writes, validate.txt included.
    Returns 4 when a written certificate has a nonpositive margin; other
    failures raise.
    """
    def writes(stage: str) -> bool:
        return write_all or stage == last

    p = cfg.plant
    sys_ = build_heat_system(p.a, p.c, p.L, p.n_max)
    if last == "simulate":
        # before the weight search, which a dt outside the region would waste
        _check_rk4_stability(sys_, cfg.simulation.n_modes,
                             cfg.simulation.dt, cfg.coupling.a1)

    report, controllable = _validation_report(cfg, sys_)
    if writes("validate"):
        print(report, end="")
        if write_all:
            (out_dir / "validate.txt").write_text(report)
    if not controllable:
        error = (AssumptionViolatedError if writes("validate")
                 else SynthesisFailureError)
        raise error("the retained block is not controllable")
    if last == "validate":
        return 0

    n0, ctl = cfg.truncation.n0, cfg.control
    if n0 < 1:
        raise AssumptionViolatedError("feedback design requires N0 >= 1")
    if open_loop:
        design = zero_gain_design(sys_, n0, ctl.delay, ctl.t0)
    else:
        design = design_predictor(sys_, n0, ctl.delay, ctl.poles, ctl.t0)
    if writes("design"):
        _write_design(out_dir, design, open_loop)
    if not open_loop and design.lyap is None:
        raise SynthesisFailureError(
            "closed-loop spectrum is not Hurwitz; design is unusable")
    if last == "design":
        return 0

    code, bundle = 0, None
    if not open_loop:
        cert = cfg.certificate
        bundle = (optimize_parameters(sys_, design) if cert.optimize else
                  compute_constants(sys_, design, cert.beta, cert.gamma1,
                                    cert.gamma2))
        if writes("certify"):
            # a nonpositive interconnection margin (exit 4) still permits
            # the simulation
            code = _write_certificate(cfg, out_dir, bundle)
    if last == "certify":
        return code

    traj = _run_simulation(cfg, sys_, design, bundle, no_disturbance)
    _write_simulation(cfg, out_dir, traj, bundle)
    return code


def cmd_case_study(out_dir: Path, no_disturbance: bool = False,
                   open_loop: bool = False) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "case_study.ini").write_text(CASE_STUDY_INI)
    return _run(case_study_run_config(), out_dir, "simulate", no_disturbance,
                open_loop, write_all=True)


def main(argv=None) -> int:
    _setup_logging()
    parser = argparse.ArgumentParser(
        prog="sdcontrol",
        description="Design, certify and simulate delayed boundary feedback "
                    "for diagonal modal plants.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
            ("validate", "check spectrum, truncation and controllability "
                         "assumptions"),
            ("design", "synthesize the delay-compensating gain"),
            ("certify", "compute the stability certificate"),
            ("simulate", "run the closed loop"),
            ("case-study", "run the built-in reaction-diffusion case study "
                           "end to end")):
        p = sub.add_parser(name, help=text)
        if name != "case-study":
            p.add_argument("--config", required=True,
                           help="path to the INI run configuration")
        p.add_argument("--out", default=".",
                       help="output directory (default: current)")
        if name in ("simulate", "case-study"):
            p.add_argument("--no-disturbance", action="store_true",
                           help="disable the exogenous input and the "
                                "injected disturbance coupling")
            p.add_argument("--open-loop", action="store_true",
                           help="run with zero gain (no feedback)")

    args = parser.parse_args(argv)
    out_dir = Path(args.out)

    flags = dict(no_disturbance=getattr(args, "no_disturbance", False),
                 open_loop=getattr(args, "open_loop", False))
    try:
        if args.command == "case-study":
            return cmd_case_study(out_dir, **flags)
        return _run(load_config(args.config), out_dir, args.command, **flags)
    except ToolkitError as exc:
        log.error("%s (exit %d)", exc, exc.exit_code)
        return exc.exit_code


def entry() -> None:
    _sys.exit(main())


if __name__ == "__main__":
    entry()
