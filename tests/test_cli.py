import argparse
import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kgbohm.cli as cli
from kgbohm import FourVector, PlaneWaveMode, Superposition, counterexample
from kgbohm.cli import build_parser, main
from support import random_superposition


def run(capsys, *argv):
    """main's exit status with its stdout and stderr; argparse refuses a
    flag value by raising SystemExit, whose code is the status."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def alpha_from(out):
    line = next(ln for ln in out.splitlines() if ln.startswith("alpha:"))
    return float(line.split(":", 1)[1])


class TestVerify:
    def test_passes_and_reports_every_check(self, capsys):
        code, out, err = run(capsys, "verify")
        assert code == 0
        assert "verify: PASS" in out
        for name in ("p_mu", "s_mu", "classes", "selection", "plane"):
            assert f"check {name}: PASS" in out
        assert err == ""

    def test_mass_two_doubles_alpha(self, capsys):
        _, out1, _ = run(capsys, "verify", "--mass", "1")
        code, out2, _ = run(capsys, "verify", "--mass", "2")
        assert code == 0
        assert "verify: PASS" in out2
        assert alpha_from(out2) == pytest.approx(2.0 * alpha_from(out1), rel=1e-15)

    def test_detects_a_wrong_field(self, capsys, monkeypatch):
        def perturbed(mass):
            w = counterexample(mass)
            first = w.modes[0]
            return Superposition(
                mass=w.mass,
                modes=(PlaneWaveMode(k=first.k, c=first.c * 1.001),) + w.modes[1:],
            )

        monkeypatch.setattr(cli, "counterexample", perturbed)
        code, out, _ = run(capsys, "verify")
        assert code == 1
        assert "verify: FAIL" in out

    def test_mass_whose_squares_underflow(self, capsys):
        code, out, _ = run(capsys, "verify", "--mass", "2.409919865102884e-181")
        assert code == 0
        assert "verify: PASS" in out

    def test_rejects_nonpositive_mass(self, capsys):
        code, _, err = run(capsys, "verify", "--mass", "-1")
        assert code == 2
        assert "--mass" in err

    @pytest.mark.parametrize(
        "mass, reason",
        [
            # sqrt(27) m overflows
            ("1.7976931348623157e308", "non-finite"),
            ("6e307", "non-finite"),
            # subnormal sqrt(27) m and sqrt(26) m round off the mass shell
            ("5e-324", "off the mass shell"),
            ("1e-320", "off the mass shell"),
        ],
    )
    def test_mass_at_the_float_extremes_refused(self, capsys, mass, reason):
        code, out, err = run(capsys, "verify", "--mass", mass)
        assert code == 2
        assert out == ""
        assert err.startswith("error: --mass: ") and reason in err
        assert err.count("\n") == 1

    def test_takes_no_tolerance_flag(self, capsys):
        # the closed form is checked at the default tolerances; a widened
        # band could only fail the check, or crash it
        code, out, err = run(capsys, "verify", "--node-tol", "0.5")
        assert (code, out) == (2, "")
        assert err.endswith("error: unrecognized arguments: --node-tol 0.5\n")

    def test_mass_below_the_checkable_range_refused(self, capsys):
        # counterexample(m) passes the on-shell check, but p and s are
        # subnormal with too few bits left for the 1e-12 comparison
        code, out, err = run(capsys, "verify", "--mass", "1e-312")
        assert (code, out) == (2, "")
        assert err == (
            "error: --mass: 1e-312 is below 2^-1030 (about 8.7e-311), where the "
            "subnormal p and s keep too few bits for the 1e-12 comparison\n"
        )

    def test_no_tiny_mass_fails(self, capsys):
        # 400 log-spaced masses from 1e-316 to 1e-307: each passes, or is
        # refused as off the mass shell or below 2^-1030; none prints FAIL
        for mass in np.logspace(-316, -307, 400).tolist():
            code, out, err = run(capsys, "verify", "--mass", repr(mass))
            assert code in (0, 2), (mass, out)
            if code == 2:
                assert out == "" and err.startswith("error: --mass: ")
                assert ("off the mass shell" in err) != ("below 2^-1030" in err)
                assert mass < 2.0**-1030

    @pytest.mark.parametrize("mass", ["1e-310", "3e307"])
    def test_mass_near_the_float_extremes_passes(self, capsys, mass):
        code, out, _ = run(capsys, "verify", "--mass", mass)
        assert code == 0
        assert "verify: PASS" in out


class TestClassify:
    def test_origin_of_the_builtin_example(self, capsys):
        code, out, err = run(
            capsys, "classify", "--builtin", "counterexample", "--x", "0", "0", "0", "0"
        )
        assert code == 0
        report = json.loads(out)
        assert report["selection"] == "both_spacelike"
        assert report["plane"] == "spacelike_plane"
        assert report["theta"] == pytest.approx(-1.1629376511878056, rel=1e-12)
        assert report["gram_consistent"] is True
        assert err == ""

    def test_config_file_round_trip(self, capsys, config_file, two_mode):
        path = config_file(two_mode)
        code, out, _ = run(
            capsys, "classify", "--config", str(path), "--x", "0.3", "0.7", "0", "0"
        )
        assert code == 0
        assert json.loads(out)["selection"] == "minus_timelike"

    def test_closed_stdout_exits_quietly(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED="1")
        argv = [sys.executable, "-m", "kgbohm.cli", "classify", "--builtin",
                "counterexample", "--x", "-2.3e-05", "0.1", "0.2", "0"]
        # as `| head -1`: the reader closes the pipe after the first line.
        # Whether the last write lands before that close is a race, so the
        # status is 0 or 1; there is never a traceback.
        for _ in range(2):
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
            assert proc.stdout.readline() == b"{\n"
            proc.stdout.close()
            with proc.stderr:
                assert proc.stderr.read() == b""
            assert proc.wait(timeout=60) in (0, 1)
        # a pipe closed before the first write: always 1
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, b"")

    def test_node_is_an_answer(self, capsys, config_file, null_field):
        path = config_file(null_field)
        code, out, err = run(
            capsys, "classify", "--config", str(path), "--x", "0", "0", "0", "0"
        )
        assert (code, err) == (0, "")
        absent = ("p_mu", "s_mu", "plane", "theta", "w_plus", "w_minus", "class_plus", "class_minus")
        assert json.loads(out) == {
            "x": [0.0, 0.0, 0.0, 0.0],
            "psi": [0.0, 0.0],
            "selection": "node",
            "gram_consistent": True,
            **dict.fromkeys(absent),
        }

    def test_degenerate_is_an_answer(self, capsys, config_file, degenerate_field):
        path = config_file(degenerate_field)
        code, out, _ = run(
            capsys, "classify", "--config", str(path), "--x", "0.3", "0.7", "0", "0"
        )
        assert code == 0
        report = json.loads(out)
        assert report["selection"] == "orthogonal_degenerate"
        assert report["theta"] is None
        assert report["w_plus"] is None and report["w_minus"] is None
        assert isinstance(report["plane"], str)
        assert len(report["p_mu"]) == 4

    def test_degenerate_report_is_pinned(self, capsys, config_file, degenerate_field):
        path = config_file(degenerate_field)
        code, out, _ = run(
            capsys, "classify", "--config", str(path), "--x", "0.3", "0.7", "0", "0"
        )
        assert code == 0
        assert json.loads(out) == {
            "x": [0.3, 0.7, 0.0, 0.0],
            "psi": [1.387176896055558, 1.1974702401679487],
            "p_mu": [-0.09054052861648082, -0.21858417213033707, 0.0, 0.0],
            "s_mu": [1.2071067811865475, 0.5, 0.0, 0.0],
            "theta": None,
            "w_plus": None,
            "w_minus": None,
            "class_plus": None,
            "class_minus": None,
            "plane": "lorentzian_plane",
            "selection": "orthogonal_degenerate",
            "gram_consistent": True,
        }

    def test_widened_node_threshold_changes_the_outcome(self, capsys):
        # |psi(0)| / sum|c| ~ 0.47 for the built-in example
        args = ["classify", "--builtin", "counterexample", "--x", "0", "0", "0", "0"]
        assert main(args + ["--node-tol", "0.4"]) == 0
        capsys.readouterr()
        code, out, err = run(capsys, *args, "--node-tol", "0.5")
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["selection"] == "node" and report["p_mu"] is None
        assert report["psi"] == [2.4226497308103743, 0.0]

    def test_widened_class_threshold_reaches_the_boundary_verdict(self, capsys):
        code, out, _ = run(
            capsys,
            "classify", "--builtin", "counterexample",
            "--x", "0", "0", "0", "0", "--class-tol", "10",
        )
        assert code == 0
        assert json.loads(out)["selection"] == "boundary"

    def test_malformed_config_names_the_mode(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"mass": 1.0, "modes": [{"k": [1.0, 0.0], "c": [1.0, 0.0]}]}))
        code, _, err = run(
            capsys, "classify", "--config", str(bad), "--x", "0", "0", "0", "0"
        )
        assert code == 2
        assert "--config" in err and "mode 0" in err

    def test_off_shell_config_at_large_scale_refused(self, capsys, tmp_path):
        bad = tmp_path / "big.json"
        bad.write_text(json.dumps(
            {"mass": 1, "modes": [{"k": [2e200, 1e200, 0, 0], "c": [1, 0]}]}
        ))
        code, _, err = run(
            capsys, "classify", "--config", str(bad), "--x", "0", "0", "0", "0"
        )
        assert code == 2
        assert "--config" in err and "mode 0" in err

    @pytest.mark.parametrize(
        "field, expect",
        [("mass", "mass must be a number"), ("k", "mode 0: 'k'"), ("c", "mode 0: 'c'")],
    )
    def test_integer_too_large_for_a_float_refused(self, capsys, tmp_path, field, expect):
        config = {"mass": 1, "modes": [{"k": [1, 0, 0, 0], "c": [2, 1]}]}
        huge = 10**400
        if field == "mass":
            config["mass"] = huge
        else:
            config["modes"][0][field][0] = huge
        bad = tmp_path / "huge.json"
        bad.write_text(json.dumps(config))
        code, _, err = run(
            capsys, "classify", "--config", str(bad), "--x", "0", "0", "0", "0"
        )
        assert code == 2
        assert err.startswith(f"error: --config: {expect}") and "too large" in err
        assert len(err.splitlines()) == 1

    def test_config_that_is_a_directory(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "classify", "--config", str(tmp_path), "--x", "0", "0", "0", "0"
        )
        assert code == 2
        assert err.startswith(f"error: --config: cannot read {tmp_path}: ")
        assert len(err.splitlines()) == 1

    def test_unparseable_config(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(
            capsys, "classify", "--config", str(bad), "--x", "0", "0", "0", "0"
        )
        assert code == 2
        assert "not valid JSON" in err

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "classify", "--config", str(tmp_path / "absent.json"),
            "--x", "0", "0", "0", "0",
        )
        assert code == 2
        assert "no such file" in err

    def test_config_and_builtin_are_mutually_exclusive(self, config_file, two_mode):
        path = config_file(two_mode)
        with pytest.raises(SystemExit) as exc_info:
            main([
                "classify", "--config", str(path), "--builtin", "counterexample",
                "--x", "0", "0", "0", "0",
            ])
        assert exc_info.value.code == 2

    def test_nonfinite_event_rejected(self, capsys):
        code, _, err = run(
            capsys, "classify", "--builtin", "counterexample",
            "--x", "inf", "0", "0", "0",
        )
        assert code == 2
        assert "--x" in err

    def test_bad_tolerance_flag(self, capsys):
        code, _, err = run(
            capsys, "classify", "--builtin", "counterexample",
            "--x", "0", "0", "0", "0", "--ortho-tol=-1e-9",
        )
        assert code == 2
        assert "--ortho-tol" in err


class TestScan:
    BOX = ["--lo", "-0.5", "-0.5", "-0.5", "-0.5", "--hi", "0.5", "0.5", "0.5", "0.5"]

    def test_writes_csv_with_sidecar_manifest(self, capsys, tmp_path):
        out = tmp_path / "scan.csv"
        code, stdout, _ = run(
            capsys, "scan", "--builtin", "counterexample", *self.BOX,
            "--resolution", "2", "2", "2", "2", "--out", str(out),
        )
        assert code == 0
        assert f"wrote {out}: 16 rows" in stdout
        assert "both_spacelike:" in stdout
        lines = out.read_text().splitlines()
        assert lines[0] == "x0,x1,x2,x3,selection,theta,w_plus_sq,w_minus_sq"
        assert len(lines) == 17
        manifest = json.loads((tmp_path / "scan.csv.manifest.json").read_text())
        assert manifest["command"] == "scan"
        assert manifest["config"] == {"builtin": "counterexample"}
        assert manifest["parameters"]["resolution"] == [2, 2, 2, 2]
        assert manifest["outputs"] == [str(out)]
        assert "artifact_version" in manifest
        assert "workers" not in json.dumps(manifest)

    def test_reruns_and_workers_are_byte_identical(self, capsys, tmp_path):
        argv = [
            "scan", "--builtin", "counterexample", *self.BOX,
            "--resolution", "3", "3", "3", "3",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        # no thread count can be set, so none can change the output
        with pytest.raises(SystemExit) as exc_info:
            main(argv + ["--out", str(a), "--workers", "4"])
        assert exc_info.value.code == 2

    def test_config_file_reference_lands_in_manifest(
        self, capsys, tmp_path, config_file, two_mode
    ):
        path = config_file(two_mode)
        out = tmp_path / "scan.csv"
        code, _, _ = run(
            capsys, "scan", "--config", str(path), *self.BOX,
            "--resolution", "2", "1", "1", "1", "--out", str(out),
        )
        assert code == 0
        manifest = json.loads((tmp_path / "scan.csv.manifest.json").read_text())
        assert manifest["config"] == {"path": str(path)}

    def test_rejects_zero_resolution(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "scan", "--builtin", "counterexample", *self.BOX,
            "--resolution", "0", "2", "2", "2", "--out", str(tmp_path / "s.csv"),
        )
        assert code == 2
        assert "--resolution" in err

    def test_rejects_inverted_region(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "scan", "--builtin", "counterexample",
            "--lo", "1", "0", "0", "0", "--hi", "0", "1", "1", "1",
            "--resolution", "2", "2", "2", "2", "--out", str(tmp_path / "s.csv"),
        )
        assert code == 2
        assert "--lo/--hi" in err


class TestTrajectory:
    def test_frozen_run_reaches_the_ill_defined_region(self, capsys, tmp_path):
        out = tmp_path / "traj.csv"
        code, stdout, _ = run(
            capsys, "trajectory", "--builtin", "counterexample",
            "--x0", "-0.6", "-0.45", "0.4", "0",
            "--step", "0.02", "--max-steps", "400", "--out", str(out),
        )
        assert code == 0
        assert "26 points, termination entered_both_spacelike" in stdout
        lines = out.read_text().splitlines()
        assert lines[0] == "tau,x0,x1,x2,x3,u0,u1,u2,u3,selection"
        assert lines[-1] == "# termination: entered_both_spacelike"
        assert len(lines) == 28  # header + 26 points + termination comment
        manifest = json.loads((tmp_path / "traj.csv.manifest.json").read_text())
        assert manifest["command"] == "trajectory"
        assert manifest["parameters"]["step"] == 0.02

    def test_rerun_is_byte_identical(self, capsys, tmp_path):
        argv = [
            "trajectory", "--builtin", "counterexample",
            "--x0", "-0.6", "-0.45", "0.4", "0", "--step", "0.02",
            "--max-steps", "50",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_stage_whose_phase_overflows_ends_the_path(self, capsys, tmp_path):
        # the start's phases are finite, the first stage point's are not
        out = tmp_path / "traj.csv"
        code, stdout, err = run(
            capsys, "trajectory", "--builtin", "counterexample",
            "--x0", "3e307", "0", "0", "0",
            "--step", "1e307", "--max-steps", "5", "--out", str(out),
        )
        # the step * mass > 1 warning is one line, the same in every checkout
        assert (code, err) == (0, "warning: step * mass = 1e+307 > 1; accuracy may suffer\n")
        assert "1 points, termination overflow" in stdout
        lines = out.read_text().splitlines()
        assert len(lines) == 3 and lines[-1] == "# termination: overflow"

    def test_ill_defined_start_fails_loudly(self, capsys, tmp_path):
        out = tmp_path / "traj.csv"
        code, _, err = run(
            capsys, "trajectory", "--builtin", "counterexample",
            "--x0", "0", "0", "0", "0",
            "--step", "0.02", "--max-steps", "10", "--out", str(out),
        )
        assert code == 1
        assert err.startswith("ill-defined at start:")
        assert not out.exists()

    def test_warning_comes_before_the_start_refusal(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "trajectory", "--builtin", "counterexample",
            "--x0", "0", "0", "0", "0.1",
            "--step", "2", "--max-steps", "3", "--out", str(tmp_path / "t.csv"),
        )
        assert (code, out) == (1, "")
        assert err == (
            "warning: step * mass = 2 > 1; accuracy may suffer\n"
            "ill-defined at start: velocity ill-defined: verdict both_spacelike\n"
        )

    def test_node_start_fails_loudly(self, capsys, tmp_path, config_file, null_field):
        path = config_file(null_field)
        code, _, err = run(
            capsys, "trajectory", "--config", str(path),
            "--x0", "0", "0", "0", "0",
            "--step", "0.02", "--max-steps", "10", "--out", str(tmp_path / "t.csv"),
        )
        assert code == 1
        assert err.startswith("ill-defined at start:")
        assert "verdict node" in err

    @pytest.mark.parametrize(
        "flags,named",
        [
            (["--step", "-0.1", "--max-steps", "10"], "--step"),
            (["--step", "0.1", "--max-steps", "0"], "--max-steps"),
        ],
    )
    def test_rejects_bad_stepping(self, capsys, tmp_path, flags, named):
        code, _, err = run(
            capsys, "trajectory", "--builtin", "counterexample",
            "--x0", "0.3", "0.7", "0", "0", *flags, "--out", str(tmp_path / "t.csv"),
        )
        assert code == 2
        assert named in err


class TestMeasure:
    BOX = ["--lo", "-0.5", "-0.5", "-0.5", "-0.5", "--hi", "0.5", "0.5", "0.5", "0.5"]

    def test_writes_json_with_embedded_manifest(self, capsys, tmp_path):
        out = tmp_path / "measure.json"
        code, stdout, _ = run(
            capsys, "measure", "--builtin", "counterexample", *self.BOX,
            "--n", "500", "--seed", "3", "--out", str(out),
        )
        assert code == 0
        assert "both_spacelike:" in stdout and "95%" in stdout
        payload = json.loads(out.read_text())
        assert sum(payload["counts"].values()) == 500
        assert payload["seed"] == 3
        assert payload["manifest"]["command"] == "measure"
        assert payload["manifest"]["parameters"]["n"] == 500
        assert payload["region"] == {
            "lo": [-0.5, -0.5, -0.5, -0.5],
            "hi": [0.5, 0.5, 0.5, 0.5],
        }

    def test_reruns_and_workers_are_byte_identical(self, capsys, tmp_path):
        # the manifest names its output file, so a true rerun targets the
        # same path; bytes are captured between runs
        out = tmp_path / "measure.json"
        argv = [
            "measure", "--builtin", "counterexample", *self.BOX,
            "--n", "5000", "--seed", "1", "--out", str(out),
        ]
        assert main(argv) == 0
        first = out.read_bytes()
        out.unlink()
        assert main(argv) == 0
        capsys.readouterr()
        assert first == out.read_bytes()
        # no thread count can be set, so none can change the output
        with pytest.raises(SystemExit) as exc_info:
            main(argv + ["--workers", "4"])
        assert exc_info.value.code == 2

    def test_sample_count_is_required(self, tmp_path):
        with pytest.raises(SystemExit) as exc_info:
            main([
                "measure", "--builtin", "counterexample", *self.BOX,
                "--out", str(tmp_path / "m.json"),
            ])
        assert exc_info.value.code == 2

    def test_rejects_nonpositive_sample_count(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "measure", "--builtin", "counterexample", *self.BOX,
            "--n", "0", "--out", str(tmp_path / "m.json"),
        )
        assert code == 2
        assert "--n" in err


class TestSamplePairs:
    def test_writes_json_with_embedded_manifest(self, capsys, tmp_path):
        out = tmp_path / "pairs.json"
        code, stdout, _ = run(
            capsys, "sample-pairs", "--n", "500", "--seed", "2", "--out", str(out)
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert sum(payload["counts"].values()) == 500
        assert "sigma" not in payload
        assert payload["manifest"]["parameters"] == {"n": 500, "seed": 2}
        assert payload["counts"]["node"] == 0
        assert payload["manifest"]["command"] == "sample-pairs"
        assert payload["manifest"]["config"] is None

    def test_rerun_is_byte_identical(self, capsys, tmp_path):
        out = tmp_path / "pairs.json"
        argv = ["sample-pairs", "--n", "4097", "--seed", "5", "--out", str(out)]
        assert main(argv) == 0
        first = out.read_bytes()
        out.unlink()
        assert main(argv) == 0
        capsys.readouterr()
        assert first == out.read_bytes()

    def test_sigma_is_refused(self, capsys, tmp_path):
        # the verdicts are scale-free, so the draw has no scale to set
        code, _, err = run(
            capsys, "sample-pairs", "--n", "10", "--sigma", "2",
            "--out", str(tmp_path / "p.json"),
        )
        assert code == 2
        assert "unrecognized arguments: --sigma 2" in err
        assert not (tmp_path / "p.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["measure", "--n", "10"],
        ["scan", "--resolution", "2", "1", "1", "1"],
    ],
    ids=["measure", "scan"],
)
def test_region_whose_width_overflows_refused(capsys, tmp_path, argv):
    code, stdout, err = run(
        capsys, *argv[:1], "--builtin", "counterexample",
        "--lo", "-1e308", "0", "0", "0", "--hi", "1e308", "1", "1", "1",
        *argv[1:], "--out", str(tmp_path / "result"),
    )
    assert code == 2
    assert err == (
        "error: --lo/--hi: region axis 0: width hi - lo overflows "
        "(lo = -1e+308, hi = 1e+308)\n"
    )
    assert stdout == "" and list(tmp_path.iterdir()) == []


BOX_AT_THE_FLOAT_MAXIMUM = ("--lo", "0", "0", "0", "0", "--hi", "1e308", "1", "1", "1")


@pytest.mark.parametrize(
    "argv, flag, corner",
    [
        (
            ["classify", "--x", "1e308", "0", "0", "0"],
            "--x",
            "(1e+308, 0.0, 0.0, 0.0)",
        ),
        (
            ["trajectory", "--x0", "1e308", "0", "0", "0", "--step", "0.01",
             "--max-steps", "3"],
            "--x0",
            "(1e+308, 0.0, 0.0, 0.0)",
        ),
        # a box names the corner where the mode's phase is largest
        (["scan", *BOX_AT_THE_FLOAT_MAXIMUM, "--resolution", "2", "1", "1", "1"],
         "--lo/--hi", "(1e+308, 1.0, 1.0, 1.0)"),
        (["measure", *BOX_AT_THE_FLOAT_MAXIMUM, "--n", "10"], "--lo/--hi",
         "(1e+308, 1.0, 1.0, 1.0)"),
    ],
    ids=["classify", "trajectory", "scan", "measure"],
)
def test_event_whose_phase_overflows_refused(capsys, tmp_path, argv, flag, corner):
    # sqrt(27) * 1e308 overflows, so mode 1's phase k.x is infinite there
    out = [] if argv[0] == "classify" else ["--out", str(tmp_path / "result")]
    code, stdout, err = run(
        capsys, argv[0], "--builtin", "counterexample", *argv[1:], *out
    )
    assert code == 2
    assert err == f"error: {flag}: phase k.x of mode 1 is not finite at {corner}\n"
    assert stdout == "" and list(tmp_path.iterdir()) == []


def phase(k, x):
    return k.c0 * x[0] + k.c1 * x[1] + k.c2 * x[2] + k.c3 * x[3]


def test_two_corner_phase_check_matches_every_corner():
    # the phase check looks at two corners per mode; it must refuse exactly
    # the boxes, near the float maximum too, with some corner's phase not
    # finite, and name such a corner
    rng = np.random.default_rng(17)
    decisions = []
    for _ in range(400):
        w = random_superposition(rng, n_modes=int(rng.integers(1, 6)))
        top = 10.0 ** rng.choice([0.0, 150.0, 305.0, 306.0, 307.0, 307.9])
        lo = rng.uniform(-top, top / 2, size=4)
        hi = lo + rng.uniform(0.0, 1.0, size=4) * (top - lo)
        if not all(a < b for a, b in zip(lo, hi)):
            continue
        lo, hi = FourVector(*map(float, lo)), FourVector(*map(float, hi))
        corners = list(itertools.product(*zip(lo, hi)))
        every = all(
            math.isfinite(phase(mode.k, x)) for x in corners for mode in w.modes
        )
        try:
            cli._refuse_phase_overflow(w, lo, hi, "--lo/--hi")
        except cli._CliError as exc:
            assert not every
            named = re.fullmatch(
                r"--lo/--hi: phase k\.x of mode (\d+) is not finite at \((.*)\)",
                str(exc),
            )
            i, corner = int(named[1]), tuple(map(float, named[2].split(", ")))
            assert corner in corners
            assert not math.isfinite(phase(w.modes[i].k, corner))
        else:
            assert every
        decisions.append(every)
    assert 0 < sum(decisions) < len(decisions) and len(decisions) > 300


@pytest.mark.parametrize(
    "argv",
    [
        ["measure", *TestMeasure.BOX, "--n", "10"],
        ["scan", *TestScan.BOX, "--resolution", "2", "2", "2", "2"],
    ],
    ids=["json", "csv"],
)
def test_out_in_a_missing_directory_refused(capsys, tmp_path, argv):
    out = tmp_path / "absent" / "result"
    code, stdout, err = run(
        capsys, *argv[:1], "--builtin", "counterexample", *argv[1:], "--out", str(out)
    )
    assert code == 2
    assert err == f"error: --out: no such directory: {out.parent}\n"
    assert stdout == "" and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        [
            "trajectory", "--builtin", "counterexample",
            "--x0", "-0.6", "-0.45", "0.4", "0.0", "--step", "0.02", "--max-steps", "5",
        ],
        ["sample-pairs", "--n", "10"],
    ],
    ids=["csv", "json"],
)
def test_out_that_is_a_directory_refused(capsys, tmp_path, argv):
    code, stdout, err = run(capsys, *argv, "--out", str(tmp_path))
    assert code == 2
    assert err == f"error: --out: is a directory: {tmp_path}\n"
    assert stdout == "" and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        [
            "trajectory", "--builtin", "counterexample",
            "--x0", "-0.6", "-0.45", "0.4", "0.0", "--step", "0.02", "--max-steps", "5",
        ],
        [
            "scan", "--builtin", "counterexample", *TestScan.BOX,
            "--resolution", "2", "2", "2", "2",
        ],
    ],
    ids=["trajectory", "scan"],
)
def test_manifest_path_that_is_a_directory_refused(capsys, tmp_path, argv):
    out = tmp_path / "t.csv"
    sidecar = tmp_path / "t.csv.manifest.json"
    sidecar.mkdir()
    code, stdout, err = run(capsys, *argv, "--out", str(out))
    assert code == 2
    assert err == f"error: --out: manifest path is a directory: {sidecar}\n"
    assert stdout == "" and list(tmp_path.iterdir()) == [sidecar]
    assert list(sidecar.iterdir()) == []


class TestParser:
    def test_flag_sets_are_pinned(self):
        common = {"-h", "--help"}
        tols = {"--class-tol", "--ortho-tol", "--node-tol"}
        config = {"--config", "--builtin"}
        sub = next(
            a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        flags = {
            name: {o for a in p._actions for o in a.option_strings}
            for name, p in sub.choices.items()
        }
        assert flags == {
            name: common | extra
            for name, extra in {
                "verify": {"--mass"},
                "classify": tols | config | {"--x"},
                "scan": tols | config | {"--lo", "--hi", "--resolution", "--out"},
                "trajectory": tols | config | {"--x0", "--step", "--max-steps", "--out"},
                "measure": tols | config | {"--lo", "--hi", "--n", "--seed", "--out"},
                "sample-pairs": {"--class-tol", "--ortho-tol", "--n", "--seed", "--out"},
            }.items()
        }

    def test_refusal_in_a_fresh_process(self, tmp_path):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "kgbohm.cli", "measure",
             "--builtin", "counterexample",
             "--lo", "0", "0", "0", "0", "--hi", "1", "1", "1", "1",
             "--n", "0", "--out", str(tmp_path / "m.json")],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2
        assert "argument --n:" in proc.stderr
        assert proc.stdout == ""
        assert not (tmp_path / "m.json").exists()

    def test_import_builds_no_parser(self):
        script = """
import argparse

built = []
init = argparse.ArgumentParser.__init__


def counting(self, *args, **kwargs):
    built.append(self)
    init(self, *args, **kwargs)


argparse.ArgumentParser.__init__ = counting
import kgbohm.cli

print(len(built), kgbohm.cli._PARSER)
"""
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0 None\n"

    def test_one_parser_serves_independent_calls(self, capsys, monkeypatch, tmp_path):
        # a sequence of calls through one parser: each call's status, output,
        # files and manifest equal those of the same call on a new parser
        built = []

        def counting():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting)
        monkeypatch.setattr(cli, "_PARSER", None)
        trajectory = [
            "trajectory", "--builtin", "counterexample",
            "--x0", "-0.03", "0.89", "0.19", "0.89", "--step", "0.02",
            "--max-steps", "60", "--out", str(tmp_path / "t.csv"),
        ]
        calls = [
            ["sample-pairs", "--n", "10", "--sigma", "2", "--out", str(tmp_path / "p.json")],
            trajectory + ["--node-tol", "0.3"],
            trajectory,
            ["measure", "--builtin", "counterexample", *TestMeasure.BOX,
             "--n", "300", "--seed", "2", "--out", str(tmp_path / "m.json")],
            ["classify", "--builtin", "counterexample", "--x", "0.1", "0.2", "0", "0"],
        ]

        def outcome(argv):
            result = run(capsys, *argv) + (
                {f.name: f.read_bytes() for f in sorted(tmp_path.iterdir())},
            )
            for f in tmp_path.iterdir():
                f.unlink()
            return result

        shared = [outcome(argv) for argv in calls]
        assert len(built) == 1
        fresh = []
        for argv in calls:
            monkeypatch.setattr(cli, "_PARSER", None)
            fresh.append(outcome(argv))
        assert shared == fresh
        codes = [code for code, *_ in shared]
        assert codes == [2, 0, 0, 0, 0]
        assert "--sigma" in shared[0][2]
        # the widened node stops the first path; the second, on the default
        # tolerance, runs to the step budget
        assert "7 points, termination hit_node" in shared[1][1]
        assert "61 points, termination max_steps" in shared[2][1]

    def test_scalar_commands_start_without_numpy(self, tmp_path):
        # numpy is loaded by the batch path only; measure shows the check
        # can see it load
        script = """
import sys
import kgbohm
from kgbohm.cli import main

def run(*argv):
    assert main(list(argv)) == 0, argv
    return "numpy" in sys.modules

out = sys.argv[1]
print(run("verify"))
print(run("classify", "--builtin", "counterexample", "--x", "0", "0", "0", "0"))
print(run("trajectory", "--builtin", "counterexample",
          "--x0", "-0.6", "-0.45", "0.4", "0", "--step", "0.02",
          "--max-steps", "3", "--out", out + "/t.csv"))
print(run("measure", "--builtin", "counterexample",
          "--lo", "0", "0", "0", "0", "--hi", "1", "1", "1", "1",
          "--n", "10", "--out", out + "/m.json"))
"""
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        loaded = [line for line in proc.stdout.splitlines() if line in ("True", "False")]
        assert loaded == ["False", "False", "False", "True"]

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["--version"])
        assert exc_info.value.code == 0
        assert "kgbohm" in capsys.readouterr().out

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc_info:
            main([])
        assert exc_info.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["frobnicate"])
        assert exc_info.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--builtin", "counterexample",
             "--x", "-2.3e-05", "0.1", "0.1", "0.1"],
            ["classify", "--builtin", "counterexample",
             "--x", "-1E+0", "-.5e-1", "-2.", "-7"],
            ["trajectory", "--builtin", "counterexample",
             "--x0", "-0.6", "-4.5e-1", "0.4", "-2.2835234275930816e-05",
             "--step", "0.02", "--max-steps", "3", "--out", "{tmp}/t.csv"],
            ["scan", "--builtin", "counterexample",
             "--lo", "-5e-1", "-5e-1", "-5e-1", "-5e-1", "--hi", "5e-1", "5e-1", "5e-1", "5e-1",
             "--resolution", "1", "1", "1", "1", "--out", "{tmp}/s.csv"],
            ["measure", "--builtin", "counterexample",
             "--lo", "-5e-1", "-5e-1", "-5e-1", "-5e-1", "--hi", "5e-1", "5e-1", "5e-1", "5e-1",
             "--n", "10", "--out", "{tmp}/m.json"],
        ],
    )
    def test_negative_exponent_numbers_are_values(self, capsys, tmp_path, argv):
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        assert main(argv) == 0

    def test_unknown_option_still_refused(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["classify", "--builtin", "counterexample",
                  "--x", "0", "0", "0", "0", "--bogus"])
        assert exc_info.value.code == 2

    @pytest.mark.parametrize(
        "command,extra",
        [
            ("measure", ["--builtin", "counterexample",
                         "--lo", "0", "0", "0", "0", "--hi", "1", "1", "1", "1"]),
            ("sample-pairs", []),
        ],
    )
    def test_negative_seed_rejected(self, capsys, tmp_path, command, extra):
        code, _, err = run(
            capsys, command, *extra, "--n", "10", "--seed", "-1",
            "--out", str(tmp_path / "o.json"),
        )
        assert code == 2
        assert "--seed" in err

    def test_both_timelike_is_an_error_line(self, capsys, tmp_path):
        # One plane wave has p = 0 up to rounding noise, and the noise
        # can make both candidates timelike at some samples.
        cfg = tmp_path / "one.json"
        cfg.write_text(json.dumps({"mass": 1, "modes": [{"k": [1, 0, 0, 0], "c": [2, 1]}]}))
        code, _, err = run(
            capsys, "measure", "--config", str(cfg),
            "--lo", "-1", "-1", "-1", "-1", "--hi", "1", "1", "1", "1",
            "--n", "3000", "--seed", "5", "--out", str(tmp_path / "m.json"),
        )
        assert code == 1
        assert err.startswith("error: both candidate covectors classified timelike")
        assert len(err.splitlines()) == 1

    def test_infinite_mass_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "inf.json"
        cfg.write_text('{"mass": Infinity, "modes": [{"k": [1, 0, 0, 0], "c": [2, 1]}]}')
        code, _, err = run(
            capsys, "classify", "--config", str(cfg), "--x", "0", "0", "0", "0"
        )
        assert code == 2
        assert "--config" in err and "mass" in err


GRADIENT_OVERFLOW_ARGV = [
    ["classify", "--x", "-0.5", "-0.5", "0", "0"],
    ["measure", "--lo", "-0.5", "-0.5", "-0.5", "-0.5", "--hi", "0.5", "0.5", "0.5", "0.5",
     "--n", "4096", "--seed", "0"],
    ["scan", "--lo", "-0.5", "-0.5", "-0.5", "-0.5", "--hi", "0.5", "0.5", "0.5", "0.5",
     "--resolution", "6", "6", "6", "6"],
    ["trajectory", "--x0", "-0.5", "-0.5", "0", "0", "--step", "0.01", "--max-steps", "3"],
]


def scaled_counterexample(e):
    """The counterexample's config with every amplitude times 2^e."""
    return {
        "mass": 1.0,
        "modes": [
            {"k": list(m.k), "c": [m.c.real * 2.0**e, m.c.imag * 2.0**e]}
            for m in counterexample().modes
        ],
    }


# Two modes at mass 1 whose gradient sums overflow; they pass validation
TWO_MODE_OVERFLOW = {
    "mass": 1,
    "modes": [
        {"k": [1e11, 99999999999.99998, 0, 0], "c": [1e300, 0]},
        {"k": [1, 0, 0, 0], "c": [1e300, 0]},
    ],
}


@pytest.mark.parametrize(
    "config",
    [scaled_counterexample(1021), TWO_MODE_OVERFLOW],
    ids=["counterexample-2^1021", "two-mode"],
)
@pytest.mark.parametrize("argv", GRADIENT_OVERFLOW_ARGV, ids=lambda argv: argv[0])
def test_overflowing_gradient_is_an_error_line(capsys, tmp_path, config, argv):
    cfg = tmp_path / "big.json"
    cfg.write_text(json.dumps(config))
    out = [] if argv[0] == "classify" else ["--out", str(tmp_path / "result")]
    code, _, err = run(capsys, argv[0], "--config", str(cfg), *argv[1:], *out)
    assert code == 1
    assert err == (
        "error: p or s is not finite: the gradient of psi overflows double precision\n"
    )


@pytest.mark.parametrize("argv", GRADIENT_OVERFLOW_ARGV[1:3], ids=["measure", "scan"])
def test_overflowing_gradient_at_some_samples_is_an_error_line(capsys, tmp_path, argv):
    # at 2^1020 only some events overflow; they used to be tallied p.s ~ 0
    cfg = tmp_path / "big.json"
    cfg.write_text(json.dumps(scaled_counterexample(1020)))
    code, _, err = run(
        capsys, argv[0], "--config", str(cfg), *argv[1:], "--out", str(tmp_path / "result")
    )
    assert code == 1
    assert err.startswith("error: p or s is not finite") and len(err.splitlines()) == 1


def test_amplitude_sum_that_overflows_is_refused(capsys, tmp_path):
    cfg = tmp_path / "big.json"
    cfg.write_text(json.dumps(scaled_counterexample(1022)))
    code, _, err = run(capsys, "classify", "--config", str(cfg), "--x", "0", "0", "0", "0")
    assert code == 2
    assert err == "error: --config: sum of amplitude moduli |c_i| overflows: inf\n"
