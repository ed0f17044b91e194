"""The scripts in scripts/ run end to end with tiny arguments."""

import subprocess
import sys
from pathlib import Path

import numpy as np

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


def test_gain_direction_scan_symmetric_direction(tmp_path):
    # at 45 deg the collapsed input misses mode 2, so the placement itself
    # reports the uncontrollable pair
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
