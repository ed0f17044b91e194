#!/usr/bin/env python3
"""Sweep the input delay and track the certificate constants.

The plant, the retained modes, the poles, the ramp and the coupling are
the built-in case study's.  For each delay the predictor gain is
re-synthesized, the certificate weights are re-optimized, and one line of
constants is printed.
Illustrates how the certified gain C4*sqrt(C6/(2*kappa0)) and the
interconnection margin degrade with the delay.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sdcontrol import (build_heat_system, case_study_run_config,
                       coupling_constants, design_predictor,
                       optimize_parameters, small_gain_margin)
from sdcontrol.errors import ToolkitError


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--d-min", type=float, default=0.02)
    ap.add_argument("--d-max", type=float, default=0.5)
    ap.add_argument("--steps", type=int, default=13)
    ap.add_argument("--csv", default=None, help="optional output CSV path")
    args = ap.parse_args()

    cfg = case_study_run_config()
    plant, ctl = cfg.plant, cfg.control
    sys_ = build_heat_system(plant.a, plant.c, plant.L, plant.n_max)
    coupling = coupling_constants(**cfg.coupling.gains(), L=plant.L)

    rows = []
    print(f"{'D':>8} {'|K|':>10} {'kappa0':>10} {'sg_const':>10} {'margin':>10}")
    for delay in np.linspace(args.d_min, args.d_max, args.steps):
        try:
            design = design_predictor(sys_, cfg.truncation.n0, float(delay),
                                      ctl.poles, ctl.t0)
            bundle = optimize_parameters(sys_, design)
        except ToolkitError as exc:
            print(f"{delay:8.3f}  failed: {exc}")
            continue
        margin = small_gain_margin(bundle, coupling)
        k_norm = float(np.linalg.norm(design.gain, 2))
        print(f"{delay:8.3f} {k_norm:10.4f} {bundle.kappa0:10.4f} "
              f"{bundle.small_gain_constant:10.4f} {margin:10.4f}")
        rows.append((float(delay), k_norm, bundle.kappa0,
                     bundle.small_gain_constant, margin))

    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("D,normK,kappa0,small_gain_constant,margin\n")
            for row in rows:
                fh.write(",".join(f"{v:.12g}" for v in row) + "\n")
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
