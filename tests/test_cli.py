import json
import math
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest

from reactlin.cli import main


@pytest.fixture(scope="module")
def schema():
    text = (
        resources.files("reactlin") / "schemas" / "report-v1.schema.json"
    ).read_text()
    return json.loads(text)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def validate(schema, payload):
    jsonschema.validate(instance=payload, schema=schema)


class TestAnalyze:
    def test_triangular_report(self, capsys, schema):
        code, out, _ = run_cli(capsys, "analyze", "--", "-1", "-8", "0", "-3")
        assert code == 0
        report = json.loads(out)
        validate(schema, report)
        assert report["schema_version"] == "2"
        assert report["transient"]["classification"] == "reactive_attractor"
        assert 1.66 <= report["amplification"]["rho_max"] <= 1.67
        assert report["amplification"]["method"] == "closed_arc"
        assert report["amplification"]["t_max"] == pytest.approx(0.48557072550733915, rel=1e-12)
        assert report["amplification"]["theta_entry"] == report["ortho"]["phi1"]
        assert report["rt"]["m_R"] == -2.0
        assert report["eigen"]["kind"] == "distinct_real"

    def test_identity_has_no_amplification_block(self, capsys, schema):
        code, out, _ = run_cli(capsys, "analyze", "1", "0", "0", "1")
        assert code == 0
        report = json.loads(out)
        validate(schema, report)
        assert report["transient"]["classification"] == "nonattenuating_repeller"
        assert report["eigen"] == {"kind": "repeated_full", "lambda": 1.0}
        assert "amplification" not in report
        assert "theta_R" not in report["rt"]
        assert "inapplicable" in report["standard_forms"]["rc"]

    def test_spiral_uses_closed_method(self, capsys, schema):
        code, out, _ = run_cli(capsys, "analyze", "--", "0.7", "-4", "4", "-4.7")
        assert code == 0
        report = json.loads(out)
        validate(schema, report)
        assert report["eigen"]["kind"] == "complex_pair"
        amp = report["amplification"]
        assert amp["method"] == "closed_arc"
        assert amp["rho_max"] == pytest.approx(1.0935319103034655, rel=1e-12)
        assert amp["t_max"] == pytest.approx(0.19981662989066504, rel=1e-12)
        assert amp["theta_entry"] == report["ortho"]["phi1"]
        assert "eigen" not in amp["bounds"]

    @pytest.mark.parametrize(
        "flag", [["--strict"], ["--step", "1e-3"], ["--seed", "5"]], ids=["strict", "step", "seed"]
    )
    def test_oracle_options_rejected(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", *flag, "--", "0.7", "-4", "4", "-4.7"])
        assert exc.value.code == 2

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run_cli(capsys, "analyze", "--", "-1", "-8", "0", "-3")
        _, out2, _ = run_cli(capsys, "analyze", "--", "-1", "-8", "0", "-3")
        assert out1 == out2
        _, out3, _ = run_cli(capsys, "analyze", "--", "0.7", "-4", "4", "-4.7")
        _, out4, _ = run_cli(capsys, "analyze", "--", "0.7", "-4", "4", "-4.7")
        assert out3 == out4

    def test_seventeen_digit_floats(self, capsys):
        _, out, _ = run_cli(capsys, "analyze", "--", "-1", "-8", "0", "-3")
        assert '"p":4.1231056256176606' in out

    def test_non_finite_entry_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "nan", "0", "0", "1")
        assert code == 2
        assert "error:" in err

    def test_wrong_arity_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "1", "0", "0"])
        assert exc.value.code == 2


class TestPortrait:
    def test_identity_flat_curves(self, capsys):
        code, out, _ = run_cli(capsys, "portrait", "--n", "4", "1", "0", "0", "1")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "theta,R,T,vx,vy"
        assert len(lines) == 5
        for line in lines[1:]:
            _, r, t, _, _ = line.split(",")
            assert float(r) == 1.0 and float(t) == 0.0

    def test_triangular_peak_location(self, capsys):
        code, out, _ = run_cli(capsys, "portrait", "--n", "360", "--", "-1", "-8", "0", "-3")
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        thetas = [float(r[0]) for r in rows]
        rads = [float(r[1]) for r in rows]
        i = max(range(len(rads)), key=lambda j: rads[j])
        assert rads[i] == pytest.approx(2.1231056256, abs=1e-3)
        assert thetas[i] == pytest.approx(2.4787, abs=0.01)

    def test_saddle_tangential_sign_changes(self, capsys):
        code, out, _ = run_cli(capsys, "portrait", "--n", "360", "--", "-2", "1", "2", "1")
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        tvals = [float(r[2]) for r in rows]
        flips = sum(1 for a, b in zip(tvals, tvals[1:]) if a * b < 0)
        assert flips == 2

    def test_too_few_samples_rejected(self, capsys):
        code, _, err = run_cli(capsys, "portrait", "--n", "3", "1", "0", "0", "1")
        assert code == 2 and "error:" in err


class TestTrajectory:
    def test_rotation_field_stays_on_unit_circle(self, capsys):
        code, out, _ = run_cli(
            capsys, "trajectory", "--x0", "1", "0", "--step", "1e-3", "--t-end", "6.3",
            "0", "-1", "1", "0",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,x1,x2,r,theta_unwrapped"
        rs = [float(line.split(",")[3]) for line in lines[1:]]
        assert max(abs(r - 1.0) for r in rs) < 1e-8
        # winding accumulates past 2*pi instead of wrapping
        last_theta = float(lines[-1].split(",")[4])
        assert last_theta == pytest.approx(6.3, abs=1e-6)

    def test_rotating_coefficient_trajectory(self, capsys):
        code, out, _ = run_cli(
            capsys, "trajectory", "--x0", "1", "0", "--step", "1e-3", "--t-end", "1.0",
            "--k", "0", "--", "0.7", "-4", "4", "-4.7",
        )
        assert code == 0
        code2, out2, _ = run_cli(
            capsys, "trajectory", "--x0", "1", "0", "--step", "1e-3", "--t-end", "1.0",
            "--", "0.7", "-4", "4", "-4.7",
        )
        assert out == out2

    def test_nonaut_needs_reactive_attractor(self, capsys):
        code, _, err = run_cli(
            capsys, "trajectory", "--k", "1.0", "--", "-3", "0.1", "0", "-3"
        )
        assert code == 3 and "error:" in err


class TestSweepK:
    def test_json_report(self, capsys, schema):
        code, out, _ = run_cli(
            capsys, "sweep-k", "--k-min", "-8", "--k-max", "0", "--n", "33",
            "--step", "1e-2", "--t-end", "30", "--", "0.7", "-4", "4", "-4.7",
        )
        assert code == 0
        report = json.loads(out)
        validate(schema, report)
        assert len(report["rows"]) == 33
        lo, hi = report["analytic_window"]
        assert lo == pytest.approx(-5.8138, abs=1e-3)
        assert abs(report["empirical_window"][0] - lo) < 0.3
        assert abs(report["empirical_window"][1] - hi) < 0.3

    def test_csv_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep-k", "--csv", "--k-min", "-1.5", "--k-max", "0", "--n", "4",
            "--step", "1e-2", "--t-end", "20", "--", "0.7", "-4", "4", "-4.7",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "k,log_slope,classification"
        assert len(lines) == 5
        assert all(line.endswith("decaying") for line in lines[1:])

    def test_inapplicable_matrix_exits_3(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep-k", "--k-min", "-8", "--k-max", "0", "1", "0", "0", "1"
        )
        assert code == 3 and "error:" in err

    def test_unrepresentable_norm_exits_4(self, capsys):
        # the criterion-9 spiral and grid times 2e4: no window is reported
        code, out, err = run_cli(
            capsys, "sweep-k", "--k-min", "-160000", "--k-max", "0", "--n", "161",
            "--step", "5e-3", "--t-end", "50", "--", "14000", "-80000", "80000", "-94000",
        )
        assert code == 4 and "error:" in err and out == ""


class TestSynthesize:
    def test_deltas_mode(self, capsys, schema):
        code, out, _ = run_cli(
            capsys, "synthesize", "deltas",
            "--delta-r", str(math.pi / 8), "--delta-t", str(math.pi / 8), "--rho", "1",
        )
        assert code == 0
        report = json.loads(out)
        validate(schema, report)
        assert report["matrix"][0][0] == pytest.approx(-2.414213562373096)
        assert report["measured"]["rho"] == pytest.approx(1.0, rel=1e-12)
        assert report["measured"]["delta_R"] == pytest.approx(math.pi / 8, rel=1e-9)

    def test_eigenvalue_mode_verification_block(self, capsys, schema):
        code, out, _ = run_cli(
            capsys, "synthesize", "eigenvalues",
            "--lambda1", "-1", "--lambda2", "-3", "--rho", "1000",
        )
        report = json.loads(out)
        validate(schema, report)
        assert report["measured"]["classification"] == "reactive_attractor"
        assert report["measured"]["lambda1"] == pytest.approx(-1.0, abs=1e-8)
        assert report["measured"]["rho"] == pytest.approx(1000.0, rel=1e-9)

    def test_eigenvector_mode(self, capsys, schema):
        code, out, _ = run_cli(
            capsys, "synthesize", "eigenvectors",
            "--theta1", str(math.pi / 3), "--theta2", str(math.pi / 6), "--rho", "5",
        )
        report = json.loads(out)
        validate(schema, report)
        angles = sorted([report["measured"]["theta1"], report["measured"]["theta2"]])
        assert angles[0] == pytest.approx(math.pi / 6, abs=1e-9)
        assert angles[1] == pytest.approx(math.pi / 3, abs=1e-9)

    def test_invalid_parameters_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "synthesize", "eigenvalues",
            "--lambda1", "1", "--lambda2", "-3", "--rho", "2",
        )
        assert code == 2 and "error:" in err

    def test_orthogonal_eigenvectors_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "synthesize", "eigenvectors",
            "--theta1", str(math.pi / 2), "--theta2", "0", "--rho", "2",
        )
        assert code == 2


class TestDiagnostics:
    def test_no_color_env_suppresses_ansi(self, capsys, monkeypatch):
        monkeypatch.setenv("REACTLIN_NO_COLOR", "1")
        monkeypatch.setattr("sys.stderr.isatty", lambda: True)
        code, _, err = run_cli(capsys, "analyze", "nan", "0", "0", "1")
        assert code == 2
        assert err.startswith("error:") and "\x1b[" not in err

    def test_tty_gets_color_without_env(self, capsys, monkeypatch):
        monkeypatch.delenv("REACTLIN_NO_COLOR", raising=False)
        monkeypatch.setattr("sys.stderr.isatty", lambda: True)
        code, _, err = run_cli(capsys, "analyze", "nan", "0", "0", "1")
        assert code == 2 and "\x1b[31m" in err


class TestColdPath:
    """The analytic commands must not import numpy; start-up is their whole cost."""

    SCRIPT = (
        "import contextlib, io, sys\n"
        "import reactlin, reactlin.cli\n"
        "for argv in {cases!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert reactlin.cli.main(argv) == 0, argv\n"
        "    print('numpy' in sys.modules)\n"
    )

    def run_fresh(self, cases):
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT.format(cases=cases)],
            capture_output=True, text=True, check=True, timeout=60,
        )
        return proc.stdout.split()

    def test_analytic_commands_skip_numpy(self):
        cases = [
            ["analyze", "--", "-1", "-8", "0", "-3"],
            ["analyze", "--", "0.7", "-4", "4", "-4.7"],
            ["analyze", "--", "-3", "0.1", "0", "-3"],
            ["portrait", "--n", "16", "--", "-1", "-8", "0", "-3"],
            ["synthesize", "deltas", "--delta-r", "0.39", "--delta-t", "0.39", "--rho", "1"],
        ]
        assert self.run_fresh(cases) == ["False"] * len(cases)

    def test_trajectory_loads_numpy(self):
        cases = [["trajectory", "--t-end", "0.1", "--", "-1", "-8", "0", "-3"]]
        assert self.run_fresh(cases) == ["True"]
