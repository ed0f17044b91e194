"""The scripts in scripts/ run end to end with tiny arguments; the
benchmark-pair summarizer runs on canned result lines."""

import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sdcontrol as sd

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args, cwd):
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, cwd=cwd,
                          timeout=300)


def numeric_rows(lines):
    return [[float(v) for v in line.split()] for line in lines]


def test_delay_sweep(tmp_path):
    proc = run_script("delay_sweep.py", "--steps", "2", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["D", "|K|", "kappa0", "sg_const", "margin"]
    rows = numeric_rows(lines[1:])
    assert [row[0] for row in rows] == [0.02, 0.5]
    for delay, k_norm, kappa0, sgc, margin in rows:
        assert k_norm > 0.0 and kappa0 > 0.0 and sgc > 0.0
        assert np.isfinite(margin)
    # a longer delay costs certified gain
    assert rows[1][3] > rows[0][3]


def test_delay_sweep_long_delays(tmp_path):
    # D = 2.5 builds with a huge constant; from there P's conditioning, not
    # the controllability of the block, ends the sweep
    proc = run_script("delay_sweep.py", "--d-min", "2.5", "--d-max", "6",
                      "--steps", "3", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    row = numeric_rows(lines[1:2])[0]
    assert row[0] == 2.5 and 1e14 < row[3] < 1e16
    for line, delay in zip(lines[2:], ("4.250", "6.000")):
        assert line.split()[:2] == [delay, "failed:"]
        assert f"failed: delay D = {float(delay)}: " in line
        assert "cond(P)" in line
    assert len(lines) == 4


def test_gain_direction_scan(tmp_path):
    proc = run_script("gain_direction_scan.py", "--steps", "2", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["theta_deg", "|K|", "sg_const"]
    rows = numeric_rows(lines[1:3])
    assert [row[0] for row in rows] == [5.0, 85.0]
    assert all(row[1] > 0.0 and row[2] > 0.0 for row in rows)
    best = min(rows, key=lambda row: row[2])
    assert lines[3] == (f"best direction {best[0]:.2f} deg, "
                        f"small_gain_constant {best[2]:.4f}")
    assert len(lines) == 4


def test_gain_direction_scan_mirror_tie(tmp_path):
    # the scan is mirror-symmetric about 45 deg: 30 and 60 deg tie up to
    # roundoff (33.12255339335352 and 33.1225533933535), and the first
    # angle of a tie is the best direction
    proc = run_script("gain_direction_scan.py", "--theta-min", "30",
                      "--theta-max", "60", "--steps", "2", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("best direction 30.00 deg")


def test_gain_direction_scan_library_direction(tmp_path):
    # place_poles's first nudged direction, (1/sqrt2 + 0.1, 1/sqrt2), the
    # one the case study takes: the script's rank-one design must certify
    # the library design's small-gain constant
    deg = math.degrees(math.atan2(math.sqrt(0.5), math.sqrt(0.5) + 0.1))
    proc = run_script("gain_direction_scan.py", "--theta-min", repr(deg),
                      "--theta-max", repr(deg), "--steps", "1", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    cfg = sd.case_study_run_config()
    plant, ctl = cfg.plant, cfg.control
    sys_ = sd.build_heat_system(plant.a, plant.c, plant.L, plant.n_max)
    design = sd.design_predictor(sys_, cfg.truncation.n0, ctl.delay,
                                 ctl.poles, ctl.t0)
    sgc = sd.optimize_parameters(sys_, design).small_gain_constant
    row = proc.stdout.splitlines()[1].split()
    assert row[0] == f"{deg:.2f}"
    assert row[2] == f"{sgc:.4f}"


def test_gain_direction_scan_symmetric_direction(tmp_path):
    # at 45 deg the collapsed input B q misses mode 2, on the delay-free
    # pair as on any rescaling of it, so the placement itself reports the
    # uncontrollable pair
    proc = run_script("gain_direction_scan.py", "--theta-min", "45",
                      "--theta-max", "45", "--steps", "1", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1:] == [
        "     45.00  failed: the pair (A, B) is not controllable"]


def test_run_case_study(tmp_path):
    out = tmp_path / "out"
    proc = run_script("run_case_study.py", "--t-end", "0.3", "--out",
                      str(out), cwd=tmp_path)
    # the shipped interconnection is not certified: exit 4, artifacts kept
    assert proc.returncode == 4, proc.stderr
    assert proc.stdout.splitlines()[-1] == \
        f"done, exit code 4, artifacts in {out}/"
    assert sorted(p.name for p in out.iterdir()) == sorted([
        "case_study.ini", "validate.txt", "design.txt", "gain.csv",
        "certificate.txt", "trajectory.csv", "summary.txt"])
    data = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
    assert data.shape == (301, 17)
    np.testing.assert_allclose(data[-1, 0], 0.3)
    assert "steps recorded = 301" in (out / "summary.txt").read_text()


def load_script(name):
    spec = importlib.util.spec_from_file_location(name[:-3], SCRIPTS / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_line(op_s, rss, failed=0):
    """A result line as bench/run.py prints it last."""
    return json.dumps({"correct": True, "attempted": 100, "failed": failed,
                       "metrics": {"op_s_p50": {"value": op_s, "unit": "s"},
                                   "peak_rss_mb": {"value": rss,
                                                   "unit": "MB"}}})


def test_bench_pairs_summary():
    # canned result lines of four pairs; no benchmark runs
    bench = load_script("bench_pairs.py")
    stdout = "ensemble ok\n" + bench_line(0.008, 40.0) + "\n"
    assert bench.last_result(stdout)["metrics"]["op_s_p50"]["value"] == 0.008
    parent = [(0.008, 40.0), (0.010, 41.0), (0.009, 40.5), (0.007, 40.0)]
    change = [(0.005, 39.0), (0.006, 41.5), (0.004, 39.5), (0.0075, 39.0)]
    pairs = {"ensemble": [
        (bench.last_result(bench_line(*p)),
         bench.last_result(bench_line(*c, failed=1 if i == 0 else 0)))
        for i, (p, c) in enumerate(zip(parent, change))]}
    out = bench.summarize(pairs, {"op_s_p50": "lower",
                                  "peak_rss_mb": "lower"})["ensemble"]
    assert out["pairs"] == 4 and out["correct"]
    assert out["failed"] == {"parent": 0, "change": 1}
    op = out["metrics"]["op_s_p50"]
    assert op["unit"] == "s"
    # inclusive quartiles of 0.007, 0.008, 0.009, 0.010
    assert op["parent"] == pytest.approx(
        {"median": 0.0085, "q1": 0.00775, "q3": 0.00925})
    assert op["change"]["median"] == pytest.approx(0.0055)
    assert op["change_better_pairs"] == 3
    assert out["metrics"]["peak_rss_mb"]["change_better_pairs"] == 3
    # the file is rewritten after every pair, the first one included
    first = bench.summarize({"ensemble": pairs["ensemble"][:1]}, {})
    assert first["ensemble"]["metrics"]["op_s_p50"]["parent"] == {
        "median": 0.008, "q1": 0.008, "q3": 0.008}
