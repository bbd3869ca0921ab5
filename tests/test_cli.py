import json
import math
import subprocess
import sys
import warnings
from importlib import resources

import jsonschema
import pytest

from reactlin import (AngleModPi, Mat2, RTParams, decompose, eigen_structure, ortho_structure,
                      reconstruct)
from reactlin.cli import main
from reactlin.spectra import (
    CASE_RTOL,
    AllOrtho,
    ComplexPairEigen,
    DistinctRealEigen,
    DistinctRealOrtho,
    NoRealOrtho,
    RepeatedDefectiveEigen,
    RepeatedFullEigen,
    RepeatedOrtho,
)


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

    @pytest.mark.parametrize("scale", [1e154, -1e154, 1e300])
    def test_extreme_scales_keep_the_classification(self, capsys, schema, scale):
        entries = [repr(scale * x) for x in (-1.0, -8.0, 0.0, -3.0)]
        code, out, _ = run_cli(capsys, "analyze", "--", *entries)
        assert code == 0
        report = json.loads(out)
        validate(schema, report)
        expected = "reactive_attractor" if scale > 0 else "attenuating_repeller"
        assert report["transient"]["classification"] == expected
        assert report["eigen"]["kind"] == "distinct_real"
        if scale > 0:
            _, out, _ = run_cli(capsys, "analyze", "--", "-1", "-8", "0", "-3")
            assert report["amplification"]["rho_max"] == pytest.approx(
                json.loads(out)["amplification"]["rho_max"], rel=1e-13)

    @pytest.mark.parametrize("scale", [1e-309, 5e-324])
    def test_subnormal_scales_never_crash(self, capsys, scale):
        # t_max, a shape factor over p, leaves the float range: a numeric
        # failure (exit 4), not a traceback (exit 1)
        entries = [repr(scale * x) for x in (-1.0, -8.0, 0.0, -3.0)]
        code, _, err = run_cli(capsys, "analyze", "--", *entries)
        assert code == 4 and "float range" in err

    def test_non_finite_entry_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "nan", "0", "0", "1")
        assert code == 2
        assert "error:" in err

    def test_wrong_arity_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "1", "0", "0"])
        assert exc.value.code == 2


# Each record's (JSON key, record field) pairs, in report order.
BLOCK_FIELDS = {
    RTParams: [("m_R", "m_r"), ("m_T", "m_t"), ("p", "p"), ("theta_R", "theta_r")],
    DistinctRealEigen: [("lambda1", "lambda1"), ("lambda2", "lambda2"), ("theta1", "theta1"),
                        ("theta2", "theta2"), ("delta_T", "delta_t"), ("p_R", "p_r")],
    ComplexPairEigen: [("re", "re"), ("im", "im")],
    RepeatedFullEigen: [("lambda", "lam")],
    RepeatedDefectiveEigen: [("lambda", "lam"), ("theta0", "theta0")],
    DistinctRealOrtho: [("mu1", "mu1"), ("mu2", "mu2"), ("phi1", "phi1"), ("phi2", "phi2"),
                        ("delta_R", "delta_r"), ("p_T", "p_t")],
    NoRealOrtho: [],
    AllOrtho: [("mu", "mu")],
    RepeatedOrtho: [("mu", "mu"), ("phi0", "phi0")],
}


@pytest.mark.parametrize(
    "entries, eigen_kind, ortho_kind",
    [
        ("-1 -8 0 -3", "distinct_real", "distinct_real"),
        ("0.7 -4 4 -4.7", "complex_pair", "distinct_real"),
        ("-1 2 0 -1", "repeated_defective", "repeated_ortho"),
        ("0 0 0 0", "repeated_full", "all_ortho"),
        ("0 -1 1 0", "complex_pair", "all_ortho"),
        ("1 0 0 1", "repeated_full", "no_real"),
    ],
)
def test_structure_blocks_are_the_records(capsys, schema, entries, eigen_kind, ortho_kind):
    # exact key order, which keys each kind has, and each value the
    # record's field (an angle's .value); theta_R is absent when p = 0
    code, out, _ = run_cli(capsys, "analyze", "--", *entries.split())
    assert code == 0
    report = json.loads(out)
    validate(schema, report)
    rt = decompose(Mat2(*map(float, entries.split())))
    for block, record, kind in [("rt", rt, None), ("eigen", eigen_structure(rt), eigen_kind),
                                ("ortho", ortho_structure(rt), ortho_kind)]:
        fields = [(key, getattr(record, name)) for key, name in BLOCK_FIELDS[type(record)]]
        want = {} if kind is None else {"kind": kind}
        want.update((key, v.value if isinstance(v, AngleModPi) else v)
                    for key, v in fields if v is not None)
        assert list(report[block].items()) == list(want.items())


# Each tie band as (m_R, x) from drawn midlines: p ties with x there.
TIE_BANDS = {
    "p = |m_T|": lambda m_r, m_t: (m_r, abs(m_t)),
    "p = |m_R|, m_R < 0": lambda m_r, m_t: (-abs(m_r), abs(m_r)),
    "p = |m_R|, m_R > 0": lambda m_r, m_t: (abs(m_r), abs(m_r)),
    "det A = 0": lambda m_r, m_t: (m_r, math.hypot(m_r, m_t)),
    "p = 0": lambda m_r, m_t: (m_r, 0.0),
}


def _band_inputs(rng):
    """(band, matrix entries) with p = |x + e| for each band of TIE_BANDS,
    e = +-k CASE_RTOL times the rate scale, k from 0 to 1e6: both sides of
    every band, and of its edges at k = 1."""
    for k in (0.0, 0.5, 0.9, 1.0, 1.1, 2.0, 10.0, 1e3, 1e6):
        for sign in (1.0, -1.0):
            for _ in range(4):
                m_r, m_t = (float(v) for v in rng.uniform(0.1, 3.0, 2) * rng.choice((-1.0, 1.0), 2))
                theta = AngleModPi(float(rng.uniform(0.0, math.pi)))
                for band, tie in TIE_BANDS.items():
                    mr, x = tie(m_r, m_t)
                    p = abs(x + sign * k * CASE_RTOL * (abs(mr) + abs(m_t) + x))
                    a = reconstruct(RTParams(mr, m_t, p, theta if p > 0.0 else None))
                    yield band, [repr(v) for v in (a.a11, a.a12, a.a21, a.a22)]


def test_tie_bands_report_one_rule(capsys, schema, rng):
    # every input is analyzed (exit 0, a schema-valid report), and the report
    # agrees with itself: R > 0 somewhere exactly when there is a reactive set,
    # and the amplification block exactly for a reactive attractor
    seen = set()
    validator = jsonschema.validators.validator_for(schema)(schema)  # checked once
    for band, entries in _band_inputs(rng):
        code, out, err = run_cli(capsys, "analyze", "--", *entries)
        assert code == 0, (band, entries, err)
        report = json.loads(out)
        validator.validate(report)
        transient = report["transient"]
        assert transient["is_reactive"] == ("reactive_set" in transient), (band, entries)
        reactive_attractor = transient["classification"] == "reactive_attractor"
        assert ("amplification" in report) == reactive_attractor, (band, entries)
        seen.add((band, transient["classification"]))
    assert len(seen) >= 12  # the draws reach the classes on both sides of the bands


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

    def test_too_many_samples_exits_2_at_once(self, capsys):
        # 10^11 rows would exhaust memory; the bound refuses before any is built
        code, out, err = run_cli(capsys, "portrait", "--n", "100000000000", "1", "0", "0", "1")
        assert code == 2 and out == "" and "need 4 to 100000 samples" in err
        code, out, _ = run_cli(capsys, "portrait", "--n", "100000", "1", "0", "0", "1")
        assert code == 0 and out.count("\n") == 100001


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

    def test_default_step_overflow_exits_4(self, capsys):
        # the speed is about 4e-323, so 1e-3 / speed leaves the float range
        code, out, err = run_cli(
            capsys, "trajectory", "--t-end", "1", "--", "-5e-324", "-4e-323", "0", "-1.5e-323",
        )
        assert code == 4 and out == ""
        assert "default step 0.001 / speed 4e-323" in err

    def test_default_step_resolves_a_fast_spin_on_a_slow_base(self, capsys):
        # the base's rates are ~1e-2, so only the spin k = 10 bounds the step
        from reactlin import Mat2
        from reactlin.dynamics import NonautConfig, corotating_matrix, matrix_exponential

        k = 10.0
        a = Mat2(-1e-3, -8e-3, 0.0, -3e-3)
        code, out, _ = run_cli(
            capsys, "trajectory", "--k", repr(k), "--t-end", "1.0",
            "--", *(repr(x) for x in (a.a11, a.a12, a.a21, a.a22)),
        )
        assert code == 0
        co = corotating_matrix(NonautConfig(a, k))
        worst = 0.0
        for line in out.strip().split("\n")[1:]:
            t, x1, x2 = (float(v) for v in line.split(",")[:3])
            # X(t) = R(-kt) e^{(A + kJ) t} x0 with x0 = (1, 0)
            e = matrix_exponential(co, t)
            c, s = math.cos(k * t), math.sin(k * t)
            want = (c * e.a11 + s * e.a21, c * e.a21 - s * e.a11)
            worst = max(worst, math.hypot(x1 - want[0], x2 - want[1]) / math.hypot(*want))
        assert worst < 1e-9

    def test_non_finite_start_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "trajectory", "--x0", "inf", "0", "--", "-1", "8", "0", "-3"
        )
        assert code == 2 and out == "" and "x0" in err

    @pytest.mark.parametrize("argv", [["--step", "1e-9"], ["--k", "-4", "--step", "1e-9"], []],
                             ids=["tiny-step", "tiny-step-nonaut", "bullseye-1e6-default-step"])
    def test_oversized_grid_exits_2_at_once(self, capsys, argv):
        # the default step on the bullseye times 1e6 asks for about 8e10 steps
        entries = ["-1e6", "-8e6", "0", "-3e6"] if not argv else ["-1", "-8", "0", "-3"]
        code, out, err = run_cli(capsys, "trajectory", *argv, "--t-end", "10", "--", *entries)
        assert code == 2 and out == "" and "is more than 4000000 steps" in err
        # a refused default step is named as such, with the options that avoid it
        assert ("default step" in err and "--step" in err and "--t-end" in err) == (not argv)

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
        # the identity, and a reactive attractor whose arc ends tie (p = |m_R|)
        tie = ["-0.17466438508949622", "-4.4353575266044", "5.5646424733956",
               "-1.8253356149105038"]
        for matrix in (["1", "0", "0", "1"], tie):
            code, _, err = run_cli(
                capsys, "sweep-k", "--k-min", "-8", "--k-max", "0", "--", *matrix
            )
            assert code == 3 and "error:" in err

    def test_non_finite_rate_exits_2(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning either
            code, out, err = run_cli(
                capsys, "sweep-k", "--k-min", "-8", "--k-max", "inf", "--", "0.7", "-4", "4", "-4.7"
            )
        assert code == 2 and out == "" and "k_max" in err

    def test_too_many_rates_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep-k", "--k-min", "-8", "--k-max", "0", "--n", "100000000000000000000",
            "--", "0.7", "-4", "4", "-4.7",
        )
        assert code == 2 and out == "" and "at most 10000 sweep points" in err

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

    @pytest.mark.parametrize("delta_t", ["0.39", "0"])
    def test_deltas_measured_block_is_the_records(self, capsys, schema, delta_t):
        # --delta-t 0 builds a defective matrix: lambda1 == lambda2,
        # delta_T is 0 and there are no eigenline angles
        code, out, _ = run_cli(
            capsys, "synthesize", "deltas", "--delta-r", "0.39", "--delta-t", delta_t, "--rho", "1",
        )
        assert code == 0
        report = json.loads(out)
        validate(schema, report)
        rt = decompose(Mat2(*report["matrix"][0], *report["matrix"][1]))
        eig, ortho = eigen_structure(rt), ortho_structure(rt)
        assert isinstance(ortho, DistinctRealOrtho)
        want = {"rho": rt.rho1, "classification": "reactive_attractor"}
        if delta_t == "0":
            assert isinstance(eig, RepeatedDefectiveEigen)
            want.update(lambda1=eig.lam, lambda2=eig.lam, delta_T=0.0)
        else:
            assert isinstance(eig, DistinctRealEigen)
            want.update(lambda1=eig.lambda1, lambda2=eig.lambda2, theta1=eig.theta1.value,
                        theta2=eig.theta2.value, delta_T=eig.delta_t)
        want["delta_R"] = ortho.delta_r
        assert list(report["measured"].items()) == list(want.items())

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
    """The analytic commands must import neither numpy nor the integrators
    (dynamics), nor dataclasses and inspect; start-up is their whole cost."""

    SCRIPT = (
        "import contextlib, io, sys\n"
        "import reactlin, reactlin.cli\n"
        "def loaded():\n"
        "    print(*(m in sys.modules for m in ('numpy', 'reactlin.dynamics', 'dataclasses',"
        " 'inspect')), sep=',')\n"
        "loaded()\n"
        "for argv in {cases!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert reactlin.cli.main(argv) == 0, argv\n"
        "    loaded()\n"
    )

    def run_fresh(self, cases):
        """numpy, dynamics, dataclasses, inspect loaded: after the
        import, then after each case."""
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
        assert self.run_fresh(cases) == ["False,False,False,False"] * (len(cases) + 1)

    def test_trajectory_loads_numpy(self):
        cases = [
            ["trajectory", "--t-end", "0.1", "--", "-1", "-8", "0", "-3"],
            ["sweep-k", "--k-min", "-8", "--k-max", "0", "--n", "4", "--step", "0.1",
             "--t-end", "1", "--", "0.7", "-4", "4", "-4.7"],
        ]
        # numpy may import inspect itself (numpy 2's numpy._core.overrides does)
        script = "import sys, numpy; print('inspect' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              check=True, timeout=60)
        after = f"True,True,False,{proc.stdout.strip()}"
        assert self.run_fresh(cases) == ["False,False,False,False"] + [after] * 2

    # The package's public names before the integrators were loaded lazily.
    PUBLIC = [
        "AllOrtho", "AmplificationMethod", "AmplificationResult", "AngleModPi",
        "AngularEquilibrium", "AngularPhaseLine", "Classification", "ComplexPairEigen",
        "DistinctRealEigen", "DistinctRealOrtho", "EigenStructure", "InapplicableError",
        "InvalidInputError", "Mat2", "NoRealOrtho", "NonautConfig", "NumericFailureError",
        "OrthoStructure", "QUARTER_TURN", "RTParams", "ReactlinError", "RepeatedDefectiveEigen",
        "RepeatedFullEigen", "RepeatedOrtho", "Stability", "StandardFormKind",
        "StandardFormResult", "SweepPoint", "SweepResult", "Trajectory", "TransientSummary",
        "amplification", "angle_distance_mod_pi", "angular_phase_line",
        "attractor_with_eigenvalues", "attractor_with_eigenvectors", "core", "corotating_matrix",
        "decompose", "default_step", "dynamics", "eigen_structure", "errors", "eval_radial",
        "eval_tangential", "forms", "from_deltas", "integrate_linear", "integrate_nonaut",
        "integrate_polar", "log_norm_slope", "matrix_exponential", "nonaut_matrix",
        "ortho_structure", "reconstruct", "reflect_conjugate", "repulsion_window",
        "rho_max_bound_eigen", "rho_max_bound_ortho", "rho_max_closed",
        "rho_max_from_eigen_ortho", "rho_max_from_midlines", "rho_max_from_separations",
        "rho_max_numeric", "rotate_conjugate", "rotation_matrix", "spectra",
        "sweep_rotation_rates", "symmetric_part_reactivity", "synthesis", "to_r_centered",
        "to_r_zeroed", "to_t_centered", "to_t_zeroed", "transient_summary", "verify_form",
    ]

    def test_lazy_names_are_the_dynamics_objects(self):
        import reactlin
        import reactlin.core
        import reactlin.dynamics

        script = "import reactlin; print(*(n for n in dir(reactlin) if n[0] != '_'))"
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              check=True, timeout=60)
        assert proc.stdout.split() == self.PUBLIC
        star: dict = {}
        exec("from reactlin import *", star)
        assert sorted(set(star) - {"__builtins__"}) == self.PUBLIC
        assert all(star[name] is getattr(reactlin, name) for name in self.PUBLIC)
        for name in reactlin._DYNAMICS:
            assert getattr(reactlin, name) is getattr(reactlin.dynamics, name), name
        assert reactlin.dynamics is reactlin.__getattr__("dynamics")
        assert reactlin.core.matrix_exponential is reactlin.dynamics.matrix_exponential
        assert reactlin.matrix_exponential is reactlin.core.matrix_exponential
        with pytest.raises(AttributeError, match="no_such_name"):
            reactlin.no_such_name
