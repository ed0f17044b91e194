"""The three workloads: seeded inputs, the timed operation, its raw result.

Each workload builds, from the seed, one *round*: a fixed list of
operations.  A run repeats that round, so every run with one seed does the
same operations in the same order, and per-operation counts repeat exactly.
Only the standard library and the program are imported here, so that
building the inputs counts toward set-up time without loading anything the
program itself does not load.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import random
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

# module objects, looked up at call time so a traced run sees its wrappers;
# the package itself rebinds the name ``simulate`` to the function
cli = importlib.import_module("sdcontrol.cli")
certificates = importlib.import_module("sdcontrol.certificates")
predictor = importlib.import_module("sdcontrol.predictor")
simulate = importlib.import_module("sdcontrol.simulate")
spectral = importlib.import_module("sdcontrol.spectral")

L = 2.0 * math.pi
A_DIFF = 5.0
COUPLING = dict(a1=1.5, b1=0.5, c1=0.2, a2=0.7, b2=0.55, c2=10.0, d2=0.45)


def _strata(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """One uniform draw in each of n equal bins of [lo, hi], shuffled.

    Stratifying keeps the mix of cheap and costly operations in a round
    nearly the same for every seed, so the median operation time does not
    move with the seed.
    """
    pts = [lo + (hi - lo) * (k + rng.random()) / n for k in range(n)]
    rng.shuffle(pts)
    return pts


# --- case-study ---------------------------------------------------------

@dataclass
class CaseStudyResult:
    out_dir: Path
    exit_code: int
    stdout: str


class CaseStudy:
    """`sdcontrol case-study` at the shipped settings, through cli.main.

    The inputs are the shipped configuration, so the seed changes nothing.
    """

    name = "case-study"

    def __init__(self, seed: int, scratch: Path):
        self.scratch = scratch
        self.round = [None]

    def run(self, op) -> CaseStudyResult:
        out = Path(tempfile.mkdtemp(prefix="case-study-", dir=self.scratch))
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["case-study", "--out", str(out)])
        return CaseStudyResult(out, code, buf.getvalue())

    def cleanup(self, result: CaseStudyResult) -> None:
        shutil.rmtree(result.out_dir, ignore_errors=True)


# --- design-sweep -------------------------------------------------------

@dataclass(frozen=True)
class DesignDraw:
    kind: str            # single | distinct | repeated | conjugate
    c: float             # reaction coefficient
    n0: int              # number of unstable modes, all of them retained
    delay: float
    poles: tuple


@dataclass(frozen=True)
class DesignResult:
    draw: DesignDraw
    system: object
    alpha: float
    controllable: bool
    design: object
    bundle: object
    margin: float


class DesignSweep:
    """One certified design per operation, over seeded plants and poles.

    A round holds 18 draws of each pole kind.  With one unstable mode
    (c in [1.5, 4.5]) the single pole is real; with two (c in [5.5, 10.5])
    the pair is distinct real, repeated real or complex conjugate.  The
    delay lies in [0.02, 0.5].  Every continuous parameter is stratified
    over the draws of its kind.
    """

    name = "design-sweep"
    PER_KIND = 18

    def __init__(self, seed: int, scratch: Path):
        rng = random.Random(f"design-sweep:{seed}")
        k = self.PER_KIND
        ops = []
        for kind in ("single", "distinct", "repeated", "conjugate"):
            n0 = 1 if kind == "single" else 2
            cs = _strata(rng, k, 1.5, 4.5) if n0 == 1 else \
                _strata(rng, k, 5.5, 10.5)
            delays = _strata(rng, k, 0.02, 0.5)
            if kind == "conjugate":
                re, im = _strata(rng, k, -5.0, -1.5), _strata(rng, k, 0.5, 3.0)
                poles = [(complex(r, w), complex(r, -w)) for r, w in zip(re, im)]
            elif kind == "distinct":
                top, gap = _strata(rng, k, -4.0, -1.5), _strata(rng, k, 0.5, 2.5)
                poles = [(t - g, t) for t, g in zip(top, gap)]
            else:
                p = _strata(rng, k, -6.0, -1.5)
                poles = [(x,) * n0 for x in p]
            ops += [DesignDraw(kind, c, n0, d, pl)
                    for c, d, pl in zip(cs, delays, poles)]
        rng.shuffle(ops)
        self.round = ops
        self.coupling = certificates.coupling_constants(L=L, **COUPLING)

    def run(self, draw: DesignDraw) -> DesignResult:
        system = spectral.build_heat_system(A_DIFF, draw.c, L, 10)
        spec = spectral.check_truncation(system, draw.n0)
        controllable = spectral.check_kalman(system, draw.n0)
        design = predictor.design_predictor(system, draw.n0, draw.delay,
                                           draw.poles, 0.2)
        bundle = certificates.optimize_parameters(system, design)
        margin = certificates.small_gain_margin(bundle, self.coupling)
        return DesignResult(draw, system, spec.alpha, controllable, design,
                            bundle, margin)

    def cleanup(self, result) -> None:
        pass


# --- ensemble -----------------------------------------------------------

@dataclass(frozen=True)
class EnsembleDraw:
    delay: float
    n_modes: int
    x0_coeffs: tuple


@dataclass(frozen=True)
class EnsembleResult:
    draw: EnsembleDraw
    design: object
    traj: object
    u_inv: object
    sim_s: float
    inv_s: float


class Ensemble:
    """Plant-only closed-loop runs followed by the Artstein inversion.

    The plant is the case-study rod with 40 modes, n0 = 2 and poles -3, -3;
    the designs for the delay set are fixed inputs built at set-up.  A
    round runs every delay once.  0.0625 and 0.1237 are not whole numbers
    of steps, so their predictor windows end in a partial quadrature
    panel.  The number of simulated modes is stratified over [10, 40]
    (dt max|lambda| stays below the RK4 bound of 2.785 up to 47 modes) and
    the initial modal state is Gaussian with a 1/n envelope.  The largest
    delay, whose inversion uses the most memory, runs first in the round.
    """

    name = "ensemble"
    DELAYS = (0.04, 0.05, 0.0625, 0.1, 0.1237)
    DT = 1e-3
    T_END = 2.0

    def __init__(self, seed: int, scratch: Path):
        rng = random.Random(f"ensemble:{seed}")
        self.system = spectral.build_heat_system(A_DIFF, 2.5, L, 40)
        self.designs = {d: predictor.design_predictor(
            self.system, 2, d, (-3.0, -3.0), 0.2) for d in self.DELAYS}
        k = len(self.DELAYS)
        modes = [round(x) for x in _strata(rng, k, 10.0, 40.0)]
        rest = [d for d in self.DELAYS if d != max(self.DELAYS)]
        rng.shuffle(rest)
        delays = [max(self.DELAYS)] + rest
        self.round = [
            EnsembleDraw(d, n, tuple(rng.gauss(0.0, 1.0) / j
                                     for j in range(1, n + 1)))
            for d, n in zip(delays, modes)]

    def run(self, draw: EnsembleDraw) -> EnsembleResult:
        design = self.designs[draw.delay]
        cfg = simulate.SimConfig(dt=self.DT, t_end=self.T_END,
                                 n_modes=draw.n_modes, disturbance="none")
        t0 = time.perf_counter()
        traj = simulate.simulate(cfg, self.system, design, None, 0.0,
                                 list(draw.x0_coeffs))
        t1 = time.perf_counter()
        u_inv = predictor.invert_artstein(design, traj.t,
                                          traj.coeffs[:, :design.n0])
        t2 = time.perf_counter()
        return EnsembleResult(draw, design, traj, u_inv, t1 - t0, t2 - t1)

    def cleanup(self, result) -> None:
        pass


WORKLOADS = {w.name: w for w in (CaseStudy, DesignSweep, Ensemble)}
