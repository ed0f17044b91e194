"""Command line workflows: exit codes, artifacts, determinism."""

import logging
import os
import subprocess
import sys

import numpy as np
import pytest

import sdcontrol as sd
from sdcontrol import cli
from sdcontrol.cli import cmd_case_study, main
from sdcontrol.config import CASE_STUDY_INI

from test_config import ini_with


def write_cfg(tmp_path, text=CASE_STUDY_INI, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_cli(tmp_path, *args, text=CASE_STUDY_INI):
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    command = [args[0], "--config", cfg, "--out", str(out)] + list(args[1:])
    return main(command), out


class TestValidate:
    def test_case_study_passes(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, "validate")
        assert code == 0
        report = capsys.readouterr().out
        assert "alpha = 8.75" in report
        assert "kalman: controllable" in report
        assert "1.25" in report and "-2.5" in report and "-8.75" in report

    def test_unstable_tail_exits_two(self, tmp_path, caplog):
        text = ini_with(truncation={"N0": 0}, control={"poles": ""})
        # an empty pole list is fine when no modes are retained
        with caplog.at_level(logging.ERROR):
            code, _ = run_cli(tmp_path, "validate", text=text)
        assert code == 2
        assert "discarded mode" in caplog.text

    def test_missing_key_exits_one(self, tmp_path, caplog):
        text = ini_with(plant={"L": None})
        with caplog.at_level(logging.ERROR):
            code, _ = run_cli(tmp_path, "validate", text=text)
        assert code == 1
        assert "'L' in section [plant]" in caplog.text


class TestDesign:
    def test_case_study_artifacts(self, tmp_path):
        code, out = run_cli(tmp_path, "design")
        assert code == 0
        gain = np.loadtxt(out / "gain.csv", delimiter=",")
        assert gain.shape == (2, 2)
        report = (out / "design.txt").read_text()
        assert "hurwitz: true" in report
        spectrum_line = next(l for l in report.splitlines()
                             if l.startswith("closed-loop spectrum:"))
        values = [complex(v.strip()) for v in
                  spectrum_line.split(":", 1)[1].split(",")]
        np.testing.assert_allclose(sorted(v.real for v in values),
                                   [-3.0, -3.0], atol=1e-6)
        assert max(abs(v.imag) for v in values) < 1e-6
        resid_line = next(l for l in report.splitlines()
                          if "residual" in l)
        assert float(resid_line.split("=")[1]) < 1e-9

    def test_gain_matches_library_design(self, tmp_path, design):
        _, out = run_cli(tmp_path, "design")
        gain = np.loadtxt(out / "gain.csv", delimiter=",")
        np.testing.assert_allclose(gain, design.gain.real, rtol=1e-12)

    def test_unstable_poles_flagged(self, tmp_path, caplog):
        text = ini_with(control={"poles": "1, 2"})
        with caplog.at_level(logging.ERROR):
            code, out = run_cli(tmp_path, "design", text=text)
        assert code == 3
        assert (out / "gain.csv").exists()
        report = (out / "design.txt").read_text()
        assert "hurwitz: false" in report
        assert "not computed" in report

    def test_overflowing_delay_exits_one(self, tmp_path, caplog):
        # D = 400 overflows exp(-D lam) for lam = -2.5; the run used to end
        # in numpy's LinAlgError
        text = ini_with(control={"D": 400.0})
        with caplog.at_level(logging.ERROR):
            code, out = run_cli(tmp_path, "design", text=text)
        assert code == 1
        assert "D = 400" in caplog.text
        assert not (out / "gain.csv").exists()

    @pytest.mark.parametrize("delay, code", [
        (2.6, 0), (3.0, 0), (6.0, 3), (200.0, 1)])
    def test_long_delay_matrix(self, tmp_path, caplog, delay, code):
        # the retained block is controllable at every delay: D = 6 fails on
        # the conditioning of P and D = 200 overflows exp(-D A) B K, and
        # neither is reported as uncontrollable
        text = ini_with(control={"D": delay})
        with caplog.at_level(logging.ERROR):
            got, out = run_cli(tmp_path, "design", text=text)
        assert got == code
        assert "not controllable" not in caplog.text
        if code == 0:
            assert "hurwitz: true" in (out / "design.txt").read_text()
        else:
            assert f"delay D = {delay}" in caplog.text
        if code == 3:
            assert "cond(P)" in caplog.text

    def test_double_pole_at_zero_exits_three(self, tmp_path, caplog):
        # a double pole at 0 is placed but is not Hurwitz; the Kalman branch
        # is TestExitCodeMatrix::test_uncontrollable_retained_block
        text = ini_with(control={"poles": "0, 0"})
        with caplog.at_level(logging.ERROR):
            code, _ = run_cli(tmp_path, "design", text=text)
        assert code == 3


class TestCertify:
    def test_case_study_margin_not_positive(self, tmp_path, caplog):
        with caplog.at_level(logging.WARNING):
            code, out = run_cli(tmp_path, "certify")
        assert code == 4
        assert "not positive" in caplog.text
        report = sd.parse_certificate((out / "certificate.txt").read_text())
        assert report["margin"] < 0
        assert 4.0 <= report["small_gain_constant"] <= 15.0

    def test_manual_weights_skip_optimizer(self, tmp_path, heat_sys, design):
        text = ini_with(certificate={"optimize": "false", "beta": 0.4131,
                                     "gamma1": 106.3290, "gamma2": 337.1938})
        code, out = run_cli(tmp_path, "certify", text=text)
        assert code == 4
        report = sd.parse_certificate((out / "certificate.txt").read_text())
        direct = sd.compute_constants(heat_sys, design,
                                      0.4131, 106.3290, 337.1938)
        assert report["beta"] == 0.4131
        assert report["gamma1"] == 106.3290
        assert report["gamma2"] == 337.1938
        assert report["small_gain_constant"] == direct.small_gain_constant
        assert report["kappa0"] == direct.kappa0

    def test_weights_with_optimize_true_exit_one(self, tmp_path, caplog):
        # the optimizer would silently be skipped for the given weights
        text = ini_with(certificate={"optimize": "true", "beta": 0.4131,
                                     "gamma1": 106.3290, "gamma2": 337.1938})
        with caplog.at_level(logging.ERROR):
            code, out = run_cli(tmp_path, "certify", text=text)
        assert code == 1
        assert "all of beta" in caplog.text
        assert not (out / "certificate.txt").exists()

    def test_weak_coupling_certifies(self, tmp_path):
        text = ini_with(coupling={"a2": 0.07, "b2": 0.055})
        code, out = run_cli(tmp_path, "certify", text=text)
        assert code == 0
        report = sd.parse_certificate((out / "certificate.txt").read_text())
        assert report["margin"] > 0

    def test_deterministic_artifact(self, tmp_path):
        _, out1 = run_cli(tmp_path, "certify")
        second = tmp_path / "again"
        second.mkdir()
        _, out2 = run_cli(second, "certify")
        assert (out1 / "certificate.txt").read_bytes() == \
            (out2 / "certificate.txt").read_bytes()


class TestSimulate:
    SHORT = ini_with(simulation={"T_end": 1.0, "output": "run.csv"})

    def test_artifacts_and_exit_zero(self, tmp_path):
        code, out = run_cli(tmp_path, "simulate", text=self.SHORT)
        assert code == 0
        csv = (out / "run.csv").read_text().splitlines()
        assert csv[0].startswith("t,x,normX,V,u1,u2,normd,c1")
        assert len(csv) == 1 + 1001
        summary = (out / "summary.txt").read_text()
        assert "steps recorded = 1001" in summary
        assert "max input magnitude" in summary

    def test_header_only_at_zero_horizon(self, tmp_path):
        text = ini_with(simulation={"T_end": 0.0})
        code, out = run_cli(tmp_path, "simulate", text=text)
        assert code == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert len(lines) == 1
        assert "steps recorded = 0" in (out / "summary.txt").read_text()

    def test_no_disturbance_decays(self, tmp_path):
        text = ini_with(simulation={"T_end": 2.0})
        code, out = run_cli(tmp_path, "simulate", "--no-disturbance",
                            text=text)
        assert code == 0
        summary = (out / "summary.txt").read_text()
        rate_line = next(l for l in summary.splitlines() if "decay fit" in l)
        rate = float(rate_line.split("rate =")[1].split(",")[0])
        assert rate > 0.5
        data = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
        assert data[-1, 2] < 0.05 * data[0, 2]
        assert "iss envelope: ok" in summary

    def test_open_loop_grows(self, tmp_path):
        text = ini_with(simulation={"T_end": 2.0})
        code, out = run_cli(tmp_path, "simulate", "--open-loop",
                            "--no-disturbance", text=text)
        assert code == 0
        summary = (out / "summary.txt").read_text()
        assert "iss envelope" not in summary
        data = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
        # open loop records no certificate functional and no input
        assert np.all(data[:, 3] == 0.0)
        assert np.all(data[:, 4] == 0.0) and np.all(data[:, 5] == 0.0)
        # the unstable first mode grows at its open-loop eigenvalue rate
        t, c1 = data[:, 0], data[:, 7]
        slope = np.polyfit(t, np.log(np.abs(c1)), 1)[0]
        assert slope == pytest.approx(1.25, rel=0.05)

    def test_deterministic_csv(self, tmp_path):
        _, out1 = run_cli(tmp_path, "simulate", text=self.SHORT)
        second = tmp_path / "again"
        second.mkdir()
        _, out2 = run_cli(second, "simulate", text=self.SHORT)
        assert (out1 / "run.csv").read_bytes() == \
            (out2 / "run.csv").read_bytes()

    def test_coeff_initial_state(self, tmp_path):
        text = ini_with(simulation={"T_end": 0.0},
                        initial={"pde_profile": "coeffs",
                                 "coeffs": "1.0, 2.0", "x0": 0.5})
        code, out = run_cli(tmp_path, "simulate", text=text)
        assert code == 0

    def test_too_many_initial_coeffs(self, tmp_path, caplog):
        text = ini_with(simulation={"T_end": 0.0},
                        initial={"pde_profile": "coeffs",
                                 "coeffs": ", ".join(["1"] * 11)})
        with caplog.at_level(logging.ERROR):
            code, _ = run_cli(tmp_path, "simulate", text=text)
        assert code == 1
        assert "longer than N_modes" in caplog.text

    def test_rk4_unstable_dt_rejected_before_synthesis(self, tmp_path,
                                                       caplog, monkeypatch):
        # 48 modes at dt = 1e-3 put the fastest mode outside the RK4 region;
        # the run must stop before the weight search
        def no_search(*args, **kwargs):
            raise AssertionError("the weight search ran")

        monkeypatch.setattr(cli, "optimize_parameters", no_search)
        text = ini_with(plant={"N_max": 48},
                        simulation={"N_modes": 48, "T_end": 0.1})
        with caplog.at_level(logging.ERROR):
            code, out = run_cli(tmp_path, "simulate", text=text)
        assert code == 1
        assert "RK4 stability region" in caplog.text
        assert not (out / "trajectory.csv").exists()

    def test_rk4_unstable_scalar_rate_rejected_before_synthesis(
            self, tmp_path, caplog, monkeypatch):
        # dt a1 = 3 puts the scalar subsystem outside the RK4 region; the
        # run used to overflow and exit 5 after the weight search
        def no_search(*args, **kwargs):
            raise AssertionError("the weight search ran")

        monkeypatch.setattr(cli, "optimize_parameters", no_search)
        text = ini_with(coupling={"a1": 3000.0}, simulation={"T_end": 2.0})
        with caplog.at_level(logging.ERROR):
            code, out = run_cli(tmp_path, "simulate", text=text)
        assert code == 1
        assert "RK4 stability region" in caplog.text
        assert not (out / "trajectory.csv").exists()


DESIGN_FILES = ["design.txt", "gain.csv"]
CERT_FILES = ["certificate.txt"]
SIM_FILES = ["summary.txt", "trajectory.csv"]

# per config: (exit code, sorted artifact names) of validate, design,
# certify and simulate; every run stops at T_end = 0.3
EXIT_MATRIX = {
    "case-study": ({}, [(0, []), (0, DESIGN_FILES), (4, CERT_FILES),
                        (0, SIM_FILES)]),
    "N0=0": ({"truncation": {"N0": 0}, "control": {"poles": ""}},
             [(2, []), (2, []), (2, []), (2, [])]),
    "poles 1, 2": ({"control": {"poles": "1, 2"}},
                   [(0, []), (3, DESIGN_FILES), (3, []), (3, [])]),
    "poles 0, 0": ({"control": {"poles": "0, 0"}},
                   [(0, []), (3, DESIGN_FILES), (3, []), (3, [])]),
    "48 modes": ({"plant": {"N_max": 48}, "simulation": {"N_modes": 48}},
                 [(0, []), (0, DESIGN_FILES), (4, CERT_FILES), (1, [])]),
    "a1=3000": ({"coupling": {"a1": 3000.0}},
                [(0, []), (0, DESIGN_FILES), (0, CERT_FILES), (1, [])]),
    "weak coupling": ({"coupling": {"a2": 0.07, "b2": 0.055}},
                      [(0, []), (0, DESIGN_FILES), (0, CERT_FILES),
                       (0, SIM_FILES)]),
    "infeasible weights": ({"certificate": {"optimize": "false",
                                            "beta": 0.5, "gamma1": 1.0,
                                            "gamma2": 1.0}},
                           [(0, []), (0, DESIGN_FILES), (4, []), (4, [])]),
    # C6 overflows at a finite gamma1: no certificate is written, where a
    # NaN margin would read as certified
    "C6=inf": ({"certificate": {"optimize": "false", "beta": 0.001,
                                "gamma1": 1e308, "gamma2": 1000.0},
                "coupling": {"a2": 0.0, "b2": 0.0}},
               [(0, []), (0, DESIGN_FILES), (4, []), (4, [])]),
    # placement overflows: a synthesis failure, not numpy's LinAlgError
    "poles -1e308": ({"control": {"poles": "-1e308, -1e308"}},
                     [(0, []), (3, []), (3, []), (3, [])]),
    # rejected when the file is loaded, before any stage runs
    "D=nan": ({"control": {"D": "nan"}}, [(1, [])] * 4),
    "dt=inf": ({"simulation": {"dt": "inf"}}, [(1, [])] * 4),
    "key T_ned": ({"simulation": {"T_ned": 0.5}}, [(1, [])] * 4),
    "section [intial]": ({"intial": {"x0": -2.0}}, [(1, [])] * 4),
    "beta=-1": ({"certificate": {"optimize": "false", "beta": -1.0,
                                 "gamma1": 1.0, "gamma2": 1.0}},
                [(1, [])] * 4),
    "output ''": ({"simulation": {"output": ""}}, [(1, [])] * 4),
    "output nosuchdir/t.csv": ({"simulation": {"output": "nosuchdir/t.csv"}},
                               [(1, [])] * 4),
    "output summary.txt": ({"simulation": {"output": "summary.txt"}},
                           [(1, [])] * 4),
}


def run_commands(tmp_path, text):
    """(exit code, sorted artifact names) of each of the four commands."""
    cfg = write_cfg(tmp_path, text)
    results = []
    for command in ("validate", "design", "certify", "simulate"):
        out = tmp_path / command
        code = main([command, "--config", cfg, "--out", str(out)])
        results.append((code, sorted(p.name for p in out.iterdir())
                        if out.exists() else []))
    return results


class TestExitCodeMatrix:
    # a numpy warning on the way to an exit code is an unhandled fault
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("name", list(EXIT_MATRIX))
    def test_codes_and_artifacts(self, tmp_path, name):
        overrides, expected = EXIT_MATRIX[name]
        simulation = {**overrides.get("simulation", {}), "T_end": 0.3}
        text = ini_with(**{**overrides, "simulation": simulation})
        assert run_commands(tmp_path, text) == expected

    def test_uncontrollable_retained_block(self, tmp_path, monkeypatch):
        # the heat builder never produces an uncontrollable pair, so the
        # Kalman check is forced to fail
        monkeypatch.setattr(cli, "check_kalman", lambda *args: False)
        text = ini_with(simulation={"T_end": 0.3})
        assert run_commands(tmp_path, text) == [(2, []), (3, []), (3, []),
                                                (3, [])]


# extreme but finite plant data through `sdcontrol simulate`, one INI key
# edited: (edits, exit code).  Each run ends on the one-line error and its
# documented exit code, with no traceback and no warning
EXTREME_EDITS = {
    # 1/L^2 overflows: the eigenvalues are not finite
    "L=1e-300": ({"plant": {"L": 1e-300}}, 1),
    # 1/L^3 underflows: no mode has an input
    "L=1e300": ({"plant": {"L": 1e300}}, 1),
    # the RK4 amplification overflows, which reads as outside the region
    "a=1e300": ({"plant": {"a": 1e300}}, 1),
    "a1=1e300": ({"coupling": {"a1": 1e300}}, 1),
}


@pytest.mark.parametrize("name", list(EXTREME_EDITS))
def test_extreme_plant_data(tmp_path, name):
    edits, code = EXTREME_EDITS[name]
    cfg = write_cfg(tmp_path, ini_with(**edits))
    src = os.path.dirname(os.path.dirname(sd.__file__))
    env = dict(os.environ, PYTHONPATH=src, SDC_LOG="error")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, warnings; warnings.simplefilter('error'); "
         "from sdcontrol.cli import main; sys.exit(main(sys.argv[1:]))",
         "simulate", "--config", cfg, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "Warning" not in proc.stderr
    assert proc.stderr.strip().endswith(f"(exit {code})"), proc.stderr


# --out as a file, or a directory under one: every command exits 1 before
# any stage runs, and the file is left as it was
@pytest.mark.parametrize("command, out", [
    ("case-study", "taken"), ("simulate", "taken"), ("validate", "taken"),
    ("design", "taken/sub"), ("certify", "taken"),
])
def test_out_must_be_a_directory(tmp_path, caplog, command, out):
    (tmp_path / "taken").write_text("kept\n")
    argv = [command, "--out", str(tmp_path / out)]
    if command != "case-study":
        argv += ["--config", write_cfg(tmp_path)]
    with caplog.at_level(logging.ERROR):
        assert main(argv) == 1
    assert "taken is not a directory (exit 1)" in caplog.text
    assert (tmp_path / "taken").read_text() == "kept\n"


class TestCaseStudyCommand:
    def test_full_pipeline(self, tmp_path):
        out = tmp_path / "cs"
        code = cmd_case_study(out)
        assert code == 4
        for name in ("case_study.ini", "validate.txt", "design.txt",
                     "gain.csv", "certificate.txt", "trajectory.csv",
                     "summary.txt"):
            assert (out / name).exists(), name
        assert (out / "case_study.ini").read_text() == CASE_STUDY_INI
        assert "kalman: controllable" in (out / "validate.txt").read_text()
        report = sd.parse_certificate((out / "certificate.txt").read_text())
        assert report["margin"] < 0

    def test_open_loop_variant(self, tmp_path):
        out = tmp_path / "ol"
        code = cmd_case_study(out, open_loop=True)
        assert code == 0
        assert "open-loop" in (out / "design.txt").read_text()
        assert not (out / "certificate.txt").exists()
        assert (out / "trajectory.csv").exists()

    def test_no_disturbance_variant(self, tmp_path):
        out = tmp_path / "nd"
        code = cmd_case_study(out, no_disturbance=True)
        assert code == 4
        assert (out / "certificate.txt").exists()
        data = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
        assert np.all(data[:, 6] == 0.0)  # normd column

    def test_argv_entry(self, tmp_path):
        out = tmp_path / "argv"
        text = ini_with(simulation={"T_end": 0.5})
        cfg = write_cfg(tmp_path, text)
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0


class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert sd.__version__ in capsys.readouterr().out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_config_argument(self):
        with pytest.raises(SystemExit) as exc:
            main(["validate"])
        assert exc.value.code == 2

    def test_unknown_log_level_warns(self, tmp_path, monkeypatch, caplog):
        monkeypatch.setenv("SDC_LOG", "chatty")
        with caplog.at_level(logging.WARNING):
            code, _ = run_cli(tmp_path, "validate")
        assert code == 0
        assert "unknown SDC_LOG" in caplog.text

    def test_import_does_not_load_scipy(self):
        # scipy is a benchmark dependency only; `import sdcontrol` must not
        # pay for it
        src = os.path.dirname(os.path.dirname(sd.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, sdcontrol; print('scipy' in sys.modules)"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_simulate_does_not_load_numpy_ma(self, tmp_path):
        # numpy.unique imports numpy.ma lazily; simulate must not pay for it
        src = os.path.dirname(os.path.dirname(sd.__file__))
        env = dict(os.environ, PYTHONPATH=src, SDC_LOG="error")
        cfg = write_cfg(tmp_path, ini_with(simulation={"T_end": 0.05,
                                                        "record_stride": 3}))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from sdcontrol.cli import main; "
             f"code = main(['simulate', '--config', {cfg!r}, "
             f"'--out', {str(tmp_path / 'out')!r}]); "
             "print(code, 'numpy.ma' in sys.modules)"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0 False"

    def test_console_script_smoke(self):
        proc = subprocess.run(["sdcontrol", "--version"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert sd.__version__ in proc.stdout
