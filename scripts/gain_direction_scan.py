#!/usr/bin/env python3
"""Scan rank-one gain directions and optimize the certificate for each.

The synthesis fixes K = q*k with a deterministic direction q; this script
maps how the optimized certified gain depends on the direction angle for
the two-input case study (its plant, delay, ramp and poles), which shows
the floor of the achievable small-gain constant over the whole rank-one
family.
"""

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sdcontrol import (build_heat_system, case_study_run_config,
                       optimize_parameters, place_poles, zero_gain_design)
from sdcontrol.errors import ToolkitError


def rank_one_design(sys_, theta, poles, delay, t0):
    """Design with an explicit direction angle instead of the default seed.

    k0 places the poles on the single-input pair (A, B q), so K = q k0
    exp(D A) places them on (A, exp(-D A) B), as in design_predictor.
    """
    base = zero_gain_design(sys_, len(poles), delay, t0)
    q = np.array([[math.cos(theta)], [math.sin(theta)]])
    lam = base.eigenvalues
    return replace(base, gain=q @ place_poles(lam, base.b_n0 @ q, poles)
                   * np.exp(delay * lam))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--theta-min", type=float, default=5.0, help="degrees")
    ap.add_argument("--theta-max", type=float, default=85.0)
    ap.add_argument("--steps", type=int, default=17)
    args = ap.parse_args()

    cfg = case_study_run_config()
    plant, ctl = cfg.plant, cfg.control
    sys_ = build_heat_system(plant.a, plant.c, plant.L, plant.n_max)
    print(f"{'theta_deg':>10} {'|K|':>10} {'sg_const':>12}")
    best = (None, math.inf)
    for deg in np.linspace(args.theta_min, args.theta_max, args.steps):
        theta = math.radians(float(deg))
        try:
            design = rank_one_design(sys_, theta, ctl.poles, ctl.delay,
                                     ctl.t0)
            bundle = optimize_parameters(sys_, design)
        except (ToolkitError, np.linalg.LinAlgError) as exc:
            print(f"{deg:10.2f}  failed: {exc}")
            continue
        k_norm = float(np.linalg.norm(design.gain, 2))
        print(f"{deg:10.2f} {k_norm:10.4f} {bundle.small_gain_constant:12.4f}")
        # the scan is mirror-symmetric about 45 deg: values within a
        # relative 1e-9 tie, and the first angle of a tie is kept
        sgc = bundle.small_gain_constant
        if sgc < best[1] and not math.isclose(sgc, best[1], rel_tol=1e-9):
            best = (float(deg), sgc)
    if best[0] is not None:
        print(f"best direction {best[0]:.2f} deg, "
              f"small_gain_constant {best[1]:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
