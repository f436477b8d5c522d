import gc
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from ugckit import archive, cli, joints
from ugckit.cli import MAX_SWEEP_POINTS, _parse_sweep, main
from ugckit.data import CSV_COLUMNS, FamilyKind
from ugckit.errors import InputError, NotPositiveDefiniteError

from conftest import curve_bench_csv, refit_loo_residuals_gp, square_bench_csv

HEADER = ",".join(CSV_COLUMNS)
DEMO_DATA = Path(__file__).resolve().parents[1] / "demos" / "data"

def _reject_constant(token):
    raise ValueError(f"non-RFC JSON constant {token}")


def strict_json(text: str):
    """The one JSON document of a --json stdout: exactly one line, and no
    NaN or Infinity."""
    assert text.endswith("\n") and text.count("\n") == 1, text
    return json.loads(text, parse_constant=_reject_constant)


def _run_cli(*args):
    """A fresh interpreter, python *args, with this checkout's src on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )


CHOICES = "choices: straight, curve, double_curve, square_sym, square_nonsym"

GOOD_SPEC = {
    "outer_radius_mm": 100.0,
    "n_sections": 5,
    "joints_per_ring": 40,
    "ring_layers": 2,
    "target_ratio": 0.85,
    "actuator": {"rated_torque_nm": 0.08, "spindle_radius_mm": 3.0, "overdrive_factor": 1.0},
    "joint": {"family": "square_sym", "thickness_mm": None},
    "per_joint_force_n": 1.05,
}


@pytest.fixture
def bench_csv(tmp_path):
    rng = np.random.default_rng(23)
    path = tmp_path / "square.csv"
    path.write_text(square_bench_csv(rng))
    return path


@pytest.fixture
def square_archive(tmp_path):
    path = tmp_path / "square.json"
    assert main(["builtin", "--family", "square_sym", "--out", str(path)]) == 0
    return path


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(GOOD_SPEC))
    return path


class TestBuiltin:
    def test_writes_square_coefficients(self, tmp_path, square_archive):
        doc = json.loads(square_archive.read_text())
        assert doc["beta"] == [1.6940, 0.0225, -0.0002]
        assert doc["noise_variance"] == pytest.approx(0.2916**2, rel=1e-12)
        assert doc["family"] == "square_sym"

    def test_writes_curve_coefficients(self, tmp_path):
        out = tmp_path / "curve.json"
        assert main(["builtin", "--family", "curve", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["beta"] == [-2.4933, 0.1164, 0.0, -0.0007, 8.4377]
        assert doc["noise_variance"] == pytest.approx(1.9272**2, rel=1e-12)

    def test_no_builtin_for_straight(self, tmp_path):
        assert main(["builtin", "--family", "straight", "--out", str(tmp_path / "x.json")]) == 2

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["builtin", "--family", "square_sym", "--out", str(a)]) == 0
        assert main(["builtin", "--family", "square_sym", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_out_exits_2_naming_path(self, tmp_path, capsys):
        out = tmp_path / "missing" / "sq.json"
        assert main(["builtin", "--family", "square_sym", "--out", str(out)]) == 2
        assert f"cannot write archive {out}" in capsys.readouterr().err


class TestFit:
    def test_happy_path_prints_rmse_table(self, tmp_path, bench_csv, capsys):
        out = tmp_path / "model.json"
        ret_out = tmp_path / "model.return.json"
        code = main([
            "fit", "--data", str(bench_csv), "--family", "square_sym",
            "--out", str(out), "--return-out", str(ret_out),
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "gpr" in text and "poly7" in text
        assert out.exists() and ret_out.exists()
        assert json.loads(out.read_text())["model_id"] == "square_sym:force"

    @pytest.mark.parametrize("family", ["square_sym", "curve"])
    def test_byte_order_mark_fits_as_plain(self, tmp_path, bench_csv, capsys, family):
        plain = bench_csv if family == "square_sym" else DEMO_DATA / "curve_bench.csv"
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        for data, out in ((plain, "plain.json"), (bom, "bom.json")):
            assert main([
                "fit", "--data", str(data), "--family", family,
                "--out", str(tmp_path / out), "--quiet",
            ]) == 0
        assert (tmp_path / "plain.json").read_bytes() == (tmp_path / "bom.json").read_bytes()

    def test_missing_file_exits_2_naming_path(self, tmp_path, capsys):
        code = main([
            "fit", "--data", str(tmp_path / "ghost.csv"), "--family", "square_sym",
            "--out", str(tmp_path / "m.json"),
        ])
        assert code == 2
        assert "ghost.csv" in capsys.readouterr().err

    def test_curve_family_without_thickness_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(HEADER + "\ncurve,,90,forward,2.0,165,r1\n")
        code = main([
            "fit", "--data", str(path), "--family", "curve", "--out", str(tmp_path / "m.json"),
        ])
        assert code == 2

    def test_insufficient_rows_exit_2(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text(HEADER + "\nsquare_sym,,90,forward,2.0,165,r1\n")
        assert main([
            "fit", "--data", str(path), "--family", "square_sym",
            "--out", str(tmp_path / "m.json"),
        ]) == 2

    def test_zero_noise_duplicates_exit_1(self, tmp_path):
        rows = [HEADER]
        for theta in range(10, 130, 20):
            rows.append(f"square_sym,,{theta},forward,2.0,165,r1")
            rows.append(f"square_sym,,{theta},forward,2.1,166,r2")
        path = tmp_path / "dup.csv"
        path.write_text("\n".join(rows) + "\n")
        code = main([
            "fit", "--data", str(path), "--family", "square_sym",
            "--out", str(tmp_path / "m.json"),
            "--no-average", "--noise-variance", "0",
        ])
        assert code == 1

    def test_tune_scales_each_grid_to_its_target(self, tmp_path, bench_csv):
        out, ret_out = tmp_path / "m.json", tmp_path / "m.return.json"
        assert main([
            "fit", "--tune", "--data", str(bench_csv), "--family", "square_sym",
            "--out", str(out), "--return-out", str(ret_out), "--quiet",
        ]) == 0
        for path in (out, ret_out):
            doc = json.loads(path.read_text())
            v = float(np.var(doc["train_y"]))
            assert 0.5 * v <= doc["kernel"]["signal_variance"] <= 2.0 * v
            assert 1e-3 * v <= doc["noise_variance"] <= 1e-1 * v

    @pytest.mark.parametrize(
        "flags", [["--tune", "--noise-variance", "0.5"], ["--noise-variance", "0.5", "--tune"]],
        ids=["flag", "flag-reversed"],
    )
    def test_tune_with_noise_variance_exits_2(self, tmp_path, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            main([
                "fit", "--data", str(tmp_path / "missing.csv"), "--family", "square_sym",
                "--out", str(tmp_path / "m.json"), *flags,
            ])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--tune" in err and "--noise-variance" in err
        assert "missing.csv" not in err  # refused before the CSV is read

    @pytest.mark.parametrize("degree", ["0", "-1"])
    def test_degree_below_one_exits_2(self, tmp_path, bench_csv, capsys, monkeypatch, degree):
        # the flag is checked before the fit, not after it
        monkeypatch.setattr(joints, "fit_family_model", lambda *a, **k: pytest.fail("fitted"))
        code = main([
            "fit", "--data", str(bench_csv), "--family", "square_sym",
            "--out", str(tmp_path / "m.json"), "--degree", degree,
        ])
        assert code == 2
        assert "--degree" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("width", ["1e308", "180.5", "0", "-5"])
    def test_unusable_angle_bin_exits_2(self, tmp_path, bench_csv, capsys, width):
        # a bin wider than the angle range used to merge every angle into one
        # sample and fail with a sample count that did not name the flag
        code = main([
            "fit", "--data", str(bench_csv), "--family", "square_sym",
            "--out", str(tmp_path / "m.json"), f"--angle-bin={width}",
        ])
        assert code == 2
        assert "--angle-bin" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("width", ["1e-310", "5e-324"])
    def test_angle_bin_too_narrow_to_divide_by_exits_2(self, tmp_path, bench_csv, capsys, width):
        # 180 / width overflows; the rounding of angle / width used to raise
        # OverflowError with a traceback
        code = main([
            "fit", "--data", str(bench_csv), "--family", "square_sym",
            "--out", str(tmp_path / "m.json"), f"--angle-bin={width}",
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: --angle-bin: angle_bin must be a finite number in (0, 180] deg, got {width}\n"
        )
        assert not (tmp_path / "m.json").exists()

    def test_angle_bin_checked_without_averaging(self, tmp_path, capsys):
        # --no-average used to skip the check and ignore the flag, exiting 0;
        # the bin is refused before the CSV is read
        code = main([
            "fit", "--data", str(tmp_path / "missing.csv"), "--family", "square_sym",
            "--out", str(tmp_path / "m.json"), "--no-average", "--angle-bin", "-5",
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: --angle-bin: angle_bin must be a finite number in (0, 180] deg, got -5.0\n"
        )
        assert not (tmp_path / "m.json").exists()

    def test_bad_cell_on_the_last_line_names_its_row(self, tmp_path, capsys):
        text = (DEMO_DATA / "square_sym_bench.csv").read_text()
        bad = tmp_path / "bad.csv"
        bad.write_text(text + "square_sym,,90,forward,heavy,172,r4\n")
        code = main([
            "fit", "--data", str(bad), "--family", "square_sym", "--out", str(tmp_path / "m.json"),
        ])
        assert code == 2
        row = text.count("\n") + 1
        assert capsys.readouterr().err == (
            f"error: row {row}: field 'force_n' has unparseable value 'heavy'\n"
        )

    def test_undefined_gp_loo_reads_na_and_null(self, tmp_path, capsys):
        path = tmp_path / "five.csv"
        rows = [f"curve,{t},{a},forward,{f},170,r1" for a, t, f in
                [(30, 0.4, 2.1), (60, 1.2, 4.0), (90, 0.8, 3.2), (120, 1.6, 6.5), (150, 0.4, 2.9)]]
        path.write_text(HEADER + "\n" + "\n".join(rows) + "\n")
        argv = ["fit", "--data", str(path), "--family", "curve", "--out", str(tmp_path / "m.json")]
        assert main(argv) == 0
        assert "gpr          n/a" in capsys.readouterr().out.splitlines()
        assert main([*argv, "--json"]) == 0
        doc = strict_json(capsys.readouterr().out)
        assert doc["gpr_loo_rmse_n"] is None and doc["gpr_return_loo_rmse_deg"] is None

    def test_json_reports_the_return_loo_rmse(self, tmp_path, bench_csv, capsys):
        force, back = tmp_path / "f.json", tmp_path / "r.json"
        assert main([
            "fit", "--data", str(bench_csv), "--family", "square_sym",
            "--out", str(force), "--return-out", str(back), "--json",
        ]) == 0
        doc = strict_json(capsys.readouterr().out)
        for path, key in ((force, "gpr_loo_rmse_n"), (back, "gpr_return_loo_rmse_deg")):
            gp, _ = archive.load_archive(path)
            refit = refit_loo_residuals_gp(gp.train_x, gp.train_y, gp.hyper, gp.noise_variance)
            assert doc[key] == pytest.approx(np.sqrt(np.mean(refit**2)), rel=1e-10)

    def test_unexpected_baseline_error_is_not_na(self, tmp_path, bench_csv, capsys, monkeypatch):
        # loo_rmse_poly returns None for an undefined score and raises
        # nothing, so an exception out of it is a failure, not an n/a
        def broken(*args, **kwargs):
            raise NotPositiveDefiniteError("baseline broke")

        monkeypatch.setattr(joints, "loo_rmse_poly", broken)
        code = main([
            "fit", "--data", str(bench_csv), "--family", "square_sym",
            "--out", str(tmp_path / "m.json"),
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: baseline broke\n"
        assert "n/a" not in captured.out

    @pytest.mark.parametrize("tune", [[], ["--tune"]], ids=["fixed", "tuned"])
    def test_force_past_the_float_range_exits_2_naming_force_n(self, tmp_path, tune):
        # var(force_n) overflows: the error names the column, not a derived
        # signal_variance of inf, and no numpy warning reaches stderr
        rows = [f"square_sym,,{10 + 20 * i},forward,{(1 + i / 4) * 1e160!r},170,r1"
                for i in range(9)]
        path = tmp_path / "huge.csv"
        path.write_text(HEADER + "\n" + "\n".join(rows) + "\n")
        out = tmp_path / "m.json"
        result = _run_cli(
            "-W", "error", "-m", "ugckit.cli", "fit", "--data", str(path),
            "--family", "square_sym", "--out", str(out), *tune,
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == "error: force_n: values too large to fit, the fit overflows\n"
        assert not out.exists()

    def test_tuned_force_overflowing_past_its_variance_names_force_n(self, tmp_path):
        # var(force_n) is 0, but tuning's likelihood overflows: the error
        # still names the one column whose own tune overflows
        rows = [f"square_sym,,{10 + 20 * i},forward,1e200,170,r1" for i in range(9)]
        path = tmp_path / "flat.csv"
        path.write_text(HEADER + "\n" + "\n".join(rows) + "\n")
        result = _run_cli(
            "-W", "error", "-m", "ugckit.cli", "fit", "--tune", "--data", str(path),
            "--family", "square_sym", "--out", str(tmp_path / "m.json"),
        )
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == "error: force_n: values too large to fit, the fit overflows\n"

    @staticmethod
    def _fine_curve_csv(tmp_path):
        # 81 angles x 4 thicknesses after averaging at 1 deg, the benchmark's
        # curve shape: at zero noise both kernels round below zero
        angles = np.linspace(30.0, 150.0, 81).tolist()
        path = tmp_path / "fine.csv"
        path.write_text(curve_bench_csv(np.random.default_rng(1), angles=angles))
        return ["fit", "--data", str(path), "--family", "curve", "--angle-bin", "1.0",
                "--out", str(tmp_path / "f.json"), "--return-out", str(tmp_path / "r.json")]

    def test_jitter_retry_warns_naming_the_column(self, tmp_path, capsys):
        argv = [*self._fine_curve_csv(tmp_path), "--noise-variance", "0"]
        want = [
            f"{column}: kernel matrix not positive definite at noise variance 0; "
            f"factorized with +1e-08 jitter"
            for column in ("force_n", "return_angle_deg")
        ]
        assert main(argv) == 0
        assert capsys.readouterr().err == "".join(f"warning: {w}\n" for w in want)
        assert main([*argv, "--json"]) == 0
        out, err = capsys.readouterr()
        assert (strict_json(out)["warnings"], err) == (want, "")
        # the warning changes no model: the archives equal a quiet fit's
        saved = [(tmp_path / name).read_bytes() for name in ("f.json", "r.json")]
        assert main([*argv, "--quiet"]) == 0
        assert capsys.readouterr() == ("", "")
        assert [(tmp_path / name).read_bytes() for name in ("f.json", "r.json")] == saved

    def test_default_fit_warns_nothing(self, tmp_path, capsys):
        argv = self._fine_curve_csv(tmp_path)
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
        assert main([*argv, "--json"]) == 0
        assert strict_json(capsys.readouterr().out)["warnings"] == []

    def test_baseline_past_the_float_range_reads_na_and_null(self, tmp_path, capsys):
        # the GP fits, but poly7's leave-one-out residuals square past the
        # float range: the score is undefined, not inf, and --json stays
        # RFC-valid
        rows = [f"square_sym,,{a},forward,{f}e152,170,r1"
                for a, f in zip(range(10, 180, 20), [1, 3, 0, 2, 5, 1, 4, 0, 2])]
        path = tmp_path / "huge.csv"
        path.write_text(HEADER + "\n" + "\n".join(rows) + "\n")
        argv = [
            "fit", "--data", str(path), "--family", "square_sym", "--out", str(tmp_path / "m.json"),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv) == 0
            assert "poly7        n/a" in capsys.readouterr().out.splitlines()
            assert main([*argv, "--json"]) == 0
        doc = strict_json(capsys.readouterr().out)
        assert doc["poly7_loo_rmse_n"] is None and math.isfinite(doc["gpr_loo_rmse_n"])

    def test_deterministic_archive(self, tmp_path, bench_csv):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert main([
                "fit", "--data", str(bench_csv), "--family", "square_sym", "--out", str(out),
            ]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestPredict:
    def test_builtin_square_at_90(self, square_archive, capsys):
        assert main(["predict", "--model", str(square_archive), "--theta", "90"]) == 0
        out = capsys.readouterr().out
        assert "2.099" in out
        assert "n/a" in out  # no return model

    def test_json_output(self, square_archive, capsys):
        assert main([
            "predict", "--model", str(square_archive), "--theta", "90", "--json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["force_n"] == pytest.approx(2.099, abs=1e-4)
        assert doc["return_angle_deg"] is None

    def test_byte_order_mark_archive_reads_as_plain(self, tmp_path, square_archive, capsys):
        bom = tmp_path / "bom.json"
        bom.write_bytes(b"\xef\xbb\xbf" + square_archive.read_bytes())
        outs = []
        for path in (square_archive, bom):
            assert main(["predict", "--model", str(path), "--theta", "90"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_curve_out_of_range_exit_2(self, tmp_path):
        out = tmp_path / "curve.json"
        main(["builtin", "--family", "curve", "--out", str(out)])
        assert main([
            "predict", "--model", str(out), "--theta", "20", "--thickness", "0.8",
        ]) == 2

    def test_curve_allow_extrapolation(self, tmp_path):
        out = tmp_path / "curve.json"
        main(["builtin", "--family", "curve", "--out", str(out)])
        assert main([
            "predict", "--model", str(out), "--theta", "20", "--thickness", "0.8",
            "--allow-extrapolation",
        ]) == 0

    def test_sweep_emits_increasing_rows(self, square_archive, capsys):
        assert main([
            "predict", "--model", str(square_archive), "--sweep", "30:150:5",
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "theta_deg,force_n,force_std_n,return_angle_deg"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 25
        angles = [float(r[0]) for r in rows]
        assert angles == sorted(angles)
        assert len(set(angles)) == 25

    def test_sweep_rows_match_single_queries(self, tmp_path, bench_csv, capsys):
        out, ret_out = tmp_path / "m.json", tmp_path / "m.return.json"
        assert main([
            "fit", "--data", str(bench_csv), "--family", "square_sym",
            "--out", str(out), "--return-out", str(ret_out), "--quiet",
        ]) == 0
        assert main([
            "predict", "--model", str(out), "--return-model", str(ret_out),
            "--sweep", "5:175:0.5",
        ]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert len(rows) == 341
        model = joints.JointFamilyModel(
            FamilyKind.SQUARE_SYM, archive.load_archive(out)[0], archive.load_archive(ret_out)[0]
        )
        for theta, mean, std, ret in rows[::20]:
            (one_mean,), (one_std,), (angle,), _ = joints.predict_many(model, [float(theta)])
            # a mean does not depend on its batch; a variance may in the last bits
            assert float(mean) == one_mean
            assert float(std) == pytest.approx(one_std, abs=1e-12)
            assert float(ret) == angle

    def test_text_sweep_prints_the_json_rows(self, fitted_pair, capsys):
        # 3,201 angles with a return model: each CSV line is its JSON row's
        # numbers in repr, and each warning counts the rows that carry it
        force, back = fitted_pair
        argv = ["predict", "--model", str(force), "--return-model", str(back),
                "--sweep", "10:170:0.05"]
        assert main([*argv, "--json"]) == 0
        rows = strict_json(capsys.readouterr().out)["rows"]
        assert len(rows) == 3201
        assert main(argv) == 0
        out, err = capsys.readouterr()
        want = ["theta_deg,force_n,force_std_n,return_angle_deg"] + [
            f"{r['theta_deg']!r},{r['force_n']!r},{r['force_std_n']!r},{r['return_angle_deg']!r}"
            for r in rows
        ]
        assert out == "\n".join(want) + "\n"
        flags = [flag for r in rows for flag in r["warnings"]]
        assert err == "".join(
            f"warning: {flag} at {flags.count(flag)} of 3201 angles\n"
            for flag in dict.fromkeys(flags)
        )

    def test_text_sweep_builds_no_json_rows(self, fitted_pair, capsys, monkeypatch):
        def no_row(*args):
            raise AssertionError("a JSON row was built")

        monkeypatch.setattr(cli, "_prediction_row", no_row)
        force, back = fitted_pair
        assert main(["predict", "--model", str(force), "--return-model", str(back),
                     "--sweep", "10:170:0.05", "--quiet"]) == 0
        assert main(["predict", "--model", str(force), "--sweep", "10:170:0.05"]) == 0

    def test_sweep_checks_every_angle_before_printing(self, tmp_path, capsys):
        out = tmp_path / "curve.json"
        assert main(["builtin", "--family", "curve", "--out", str(out), "--quiet"]) == 0
        code = main([
            "predict", "--model", str(out), "--thickness", "0.8", "--sweep", "30:160:5",
        ])
        assert code == 2
        assert capsys.readouterr().out == ""

    def test_sweep_through_zero_without_return_model(self, square_archive, capsys):
        assert main(["predict", "--model", str(square_archive), "--sweep=-1:1:0.5"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [r[3] for r in rows] == ["", "", "180.0", "", ""]

    @pytest.mark.parametrize("sweep", ["30:inf:5", "30:nan:5", "nan:150:5", "30:150:inf"])
    def test_non_finite_sweep_exit_2(self, square_archive, sweep):
        # a non-finite stop would never end the sweep loop
        assert main(["predict", "--model", str(square_archive), "--sweep", sweep]) == 2

    def test_sweep_point_count_is_bounded(self, square_archive, capsys):
        # a finite but tiny step once grew the angle list until memory ran out
        assert main(["predict", "--model", str(square_archive), "--sweep", "0:180:1e-300"]) == 2
        assert "--sweep" in capsys.readouterr().err
        assert main(["predict", "--model", str(square_archive), "--sweep=-1e308:1e308:1"]) == 2
        assert len(_parse_sweep(f"0:{MAX_SWEEP_POINTS - 1}:1")) == MAX_SWEEP_POINTS
        with pytest.raises(InputError, match="--sweep"):
            _parse_sweep(f"0:{MAX_SWEEP_POINTS}:1")

    @pytest.mark.parametrize("spec", [
        "10.0:170.0:0.1", "30:150:5", "-1:1:0.5", "0.1:0.3:0.1",
        # the division behind the point count rounds below the last k here
        "-1.0:2614.925999999:1.598", "158.765:4271.564999998999:4.85",
    ])
    def test_sweep_matches_the_stepping_loop(self, spec):
        start, stop, step = (float(p) for p in spec.split(":"))
        want, k = [], 0
        while start + k * step <= stop + 1e-9:
            want.append(start + k * step)
            k += 1
        assert _parse_sweep(spec) == want

    @pytest.mark.parametrize("sweep, message", [
        ("1:2", "--sweep expects start:stop:step, got '1:2'"),
        ("1:5:0", "--sweep needs step > 0 and stop >= start"),
        ("10:5:1", "--sweep needs step > 0 and stop >= start"),
    ], ids=["two-parts", "zero-step", "stop-below-start"])
    def test_malformed_sweep_exit_2(self, square_archive, capsys, sweep, message):
        assert main(["predict", "--model", str(square_archive), "--sweep", sweep]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_missing_theta_and_sweep_exit_2(self, square_archive):
        assert main(["predict", "--model", str(square_archive)]) == 2

    def test_corrupt_archive_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        assert main(["predict", "--model", str(bad), "--theta", "90"]) == 2

    def test_non_finite_output_is_refused(self, square_archive, capsys, monkeypatch):
        nan_force = (np.array([np.nan]), np.array([0.0]), [None], [()])
        monkeypatch.setattr(joints, "predict_many", lambda *a, **k: nan_force)
        code = main(["predict", "--model", str(square_archive), "--theta", "90", "--json"])
        assert code == 2
        assert "NaN" not in capsys.readouterr().out

    @pytest.mark.parametrize("query", [
        ["--theta", "1e200", "--allow-extrapolation"],
        ["--theta", "1e200", "--allow-extrapolation", "--json"],
        ["--sweep", "1e300:1e300:1"],
    ])
    def test_non_finite_prediction_exit_2(self, square_archive, capsys, query):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # no numpy overflow noise
            assert main(["predict", "--model", str(square_archive), *query]) == 2
        captured = capsys.readouterr()
        point = "1e+300" if "--sweep" in query else "1e+200"
        assert captured.err == f"error: prediction at query point [{point}] is not finite\n"
        assert captured.out == ""  # no inf or NaN row, and no header either

    @pytest.mark.parametrize("extra", [[], ["--allow-extrapolation"]])
    def test_thickness_whose_basis_overflows_exit_2(self, tmp_path, capsys, extra):
        path = tmp_path / "curve.json"
        assert main(["builtin", "--family", "curve", "--out", str(path), "--quiet"]) == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # no numpy overflow noise
            code = main(["predict", "--model", str(path), "--theta", "90",
                         "--thickness", "1e300", *extra])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == "error: thickness: values too large for the quadratic basis\n"
        assert captured.out == ""

    @pytest.mark.parametrize("family, thickness", [
        ("curve", "0"), ("curve", "-5"), ("square_sym", "0.8"),
    ])
    def test_thickness_rule_exit_2(self, tmp_path, capsys, family, thickness):
        path = tmp_path / "builtin.json"
        assert main(["builtin", "--family", family, "--out", str(path), "--quiet"]) == 0
        code = main([
            "predict", "--model", str(path), "--theta", "90", f"--thickness={thickness}",
        ])
        assert code == 2
        assert "thickness" in capsys.readouterr().err

    def test_theta_with_sweep_exit_2(self, square_archive, capsys):
        code = main([
            "predict", "--model", str(square_archive), "--theta", "90", "--sweep", "30:150:5",
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--theta" in captured.err and "--sweep" in captured.err

    @pytest.mark.parametrize("spec", ["1e16:1e16:0.5", "1e300:1e300:1e-300"])
    def test_sweep_below_float_spacing_gives_one_row(self, spec):
        assert _parse_sweep(spec) == [float(spec.split(":")[0])]

    def test_version_mismatch_exit_2(self, tmp_path, square_archive):
        doc = json.loads(square_archive.read_text())
        doc["version"] = "0"
        bad = tmp_path / "old.json"
        bad.write_text(json.dumps(doc))
        assert main(["predict", "--model", str(bad), "--theta", "90"]) == 2

    @pytest.mark.parametrize("edit, tail", [
        ({"version": "0"}, "field version: '0', want '1'"),
        ({"family": ["square_sym"]}, f"field family: unknown family ['square_sym'] ({CHOICES})"),
        ({"family": None}, f"field family: unknown family None ({CHOICES})"),
        ({"family": "curve"}, "field family: curve force model must have 2-D inputs, got 1"),
    ], ids=["version", "family-list", "family-null", "family-of-other-layout"])
    def test_archive_tag_errors_name_file_and_field(
        self, tmp_path, square_archive, capsys, edit, tail
    ):
        bad = tmp_path / "edited.json"
        bad.write_text(json.dumps({**json.loads(square_archive.read_text()), **edit}))
        assert main(["predict", "--model", str(bad), "--theta", "90"]) == 2
        assert capsys.readouterr().err == f"error: archive {bad}: {tail}\n"


class TestDesign:
    def test_reference_design_report(self, tmp_path, square_archive, spec_file, capsys):
        out = tmp_path / "report.json"
        code = main([
            "design", "--spec", str(spec_file), "--model", str(square_archive),
            "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        q = doc["quantities"]
        assert q["total_force"]["value"] == 42.0
        assert q["min_spindle_radius"]["value"] == pytest.approx(1.905, abs=1e-3)
        assert q["recommended_spindle_radius"]["value"] >= 3.0
        assert "42" in capsys.readouterr().out

    def test_identity_ratio_zero_force(self, tmp_path, square_archive, spec_file):
        doc = json.loads(spec_file.read_text())
        doc["target_ratio"] = 1.0
        spec2 = tmp_path / "identity.json"
        spec2.write_text(json.dumps(doc))
        out = tmp_path / "report.json"
        assert main([
            "design", "--spec", str(spec2), "--model", str(square_archive), "--out", str(out),
        ]) == 0
        report = json.loads(out.read_text())
        assert report["quantities"]["total_force"]["value"] == 0.0
        assert report["flags"] == []

    def test_deep_contraction_exit_1(self, tmp_path, square_archive, spec_file):
        doc = json.loads(spec_file.read_text())
        doc["target_ratio"] = 0.1
        spec2 = tmp_path / "deep.json"
        spec2.write_text(json.dumps(doc))
        assert main([
            "design", "--spec", str(spec2), "--model", str(square_archive),
            "--out", str(tmp_path / "r.json"),
        ]) == 1

    def test_notes_are_warnings_on_stderr(self, tmp_path, square_archive, capsys):
        # bend 18.2 deg, below the 30 deg window: the force model warns
        spec = tmp_path / "shallow.json"
        spec.write_text(json.dumps({**GOOD_SPEC, "target_ratio": 0.95}))
        out = tmp_path / "report.json"
        argv = ["design", "--spec", str(spec), "--model", str(square_archive), "--out", str(out)]
        assert main(argv) == 0
        captured = capsys.readouterr()
        notes = json.loads(out.read_text())["diagnostics"]
        assert "force model warning: extrapolation" in notes
        assert "notes:\n" in captured.out  # the text summary still lists them
        assert captured.err == "".join(f"warning: {note}\n" for note in notes)
        assert main([*argv, "--quiet"]) == 0
        assert capsys.readouterr() == ("", "")
        assert main([*argv, "--json"]) == 0
        captured = capsys.readouterr()
        assert strict_json(captured.out) == json.loads(out.read_text())
        assert captured.err == ""

    def test_schema_violation_lists_fields(self, tmp_path, square_archive, capsys):
        bad = dict(GOOD_SPEC)
        del bad["n_sections"]
        bad["target_ratio"] = 7.0
        spec2 = tmp_path / "bad.json"
        spec2.write_text(json.dumps(bad))
        code = main([
            "design", "--spec", str(spec2), "--model", str(square_archive),
            "--out", str(tmp_path / "r.json"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "n_sections" in err and "target_ratio" in err

    def test_byte_order_mark_spec_designs_as_plain(
        self, tmp_path, square_archive, spec_file, capsys
    ):
        bom = tmp_path / "bom.json"
        bom.write_bytes(b"\xef\xbb\xbf" + spec_file.read_bytes())
        for spec, out in ((spec_file, "plain-report.json"), (bom, "bom-report.json")):
            assert main([
                "design", "--spec", str(spec), "--model", str(square_archive),
                "--out", str(tmp_path / out), "--quiet",
            ]) == 0
        assert (tmp_path / "plain-report.json").read_bytes() == (
            tmp_path / "bom-report.json"
        ).read_bytes()

    @pytest.mark.parametrize("flag", ["0", "-1"], ids=["flag-0", "flag-neg"])
    def test_non_positive_safety_factor_exit_2(
        self, tmp_path, square_archive, spec_file, capsys, flag
    ):
        out = tmp_path / "r.json"
        assert main([
            "design", "--spec", str(spec_file), "--model", str(square_archive),
            "--out", str(out), "--safety-factor", flag,
        ]) == 2
        assert "safety_factor" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, actuator", [
        (["--safety-factor", "1e308"], {}),
        ([], {"rated_torque_nm": 1.5e306}),
    ], ids=["safety-factor", "rated-torque"])
    def test_recommendation_past_float_range_reads_unbounded(
        self, tmp_path, square_archive, capsys, flags, actuator
    ):
        spec = tmp_path / "ring.json"
        spec.write_text(json.dumps({**GOOD_SPEC, "actuator": {**GOOD_SPEC["actuator"], **actuator}}))
        out = tmp_path / "r.json"
        assert main([
            "design", "--spec", str(spec), "--model", str(square_archive), "--out", str(out),
            *flags,
        ]) == 0
        q = json.loads(out.read_text())["quantities"]
        assert q["recommended_spindle_radius"]["value"] is None
        assert math.isfinite(q["min_spindle_radius"]["value"])
        lines = capsys.readouterr().out.splitlines()
        assert [l.split()[-1] for l in lines if l.startswith("recommended spindle")] == [
            "unbounded"
        ]

    def test_tiny_rated_torque_recommends_one_grid_step(self, tmp_path, square_archive, capsys):
        # printed "recommended spindle 0 mm"
        spec = tmp_path / "ring.json"
        spec.write_text(json.dumps({**GOOD_SPEC, "actuator": {
            **GOOD_SPEC["actuator"], "rated_torque_nm": 1e-320}}))
        out = tmp_path / "r.json"
        assert main([
            "design", "--spec", str(spec), "--model", str(square_archive), "--out", str(out),
        ]) == 0
        assert json.loads(out.read_text())["quantities"]["recommended_spindle_radius"] == {
            "value": 0.2, "unit": "mm"
        }
        lines = capsys.readouterr().out.splitlines()
        assert [l for l in lines if l.startswith("recommended spindle")] == [
            "recommended spindle     0.2 mm"
        ]

    def test_json_stdout_is_the_report(self, tmp_path, square_archive, spec_file, capsys):
        out = tmp_path / "r.json"
        assert main([
            "design", "--spec", str(spec_file), "--model", str(square_archive),
            "--out", str(out), "--json",
        ]) == 0
        assert capsys.readouterr().out == out.read_text()

    def test_spec_not_json_exit_2(self, tmp_path, square_archive, capsys):
        spec = tmp_path / "ring.json"
        spec.write_text("{")
        out = tmp_path / "r.json"
        assert main([
            "design", "--spec", str(spec), "--model", str(square_archive), "--out", str(out),
        ]) == 2
        assert capsys.readouterr().err.startswith("error: not valid JSON: ")
        assert not out.exists()

    def test_unwritable_out_exits_2_naming_path(self, tmp_path, square_archive, spec_file, capsys):
        out = tmp_path / "missing" / "r.json"
        assert main([
            "design", "--spec", str(spec_file), "--model", str(square_archive), "--out", str(out),
        ]) == 2
        assert f"cannot write report {out}" in capsys.readouterr().err

    def test_curve_bend_below_window_exits_2_naming_angle(self, tmp_path, capsys):
        # ratio 0.9 bends each joint acos(0.9) = 25.8 deg, below the curve
        # model's validated 30 deg, and no override stands in
        model = tmp_path / "curve.json"
        assert main(["builtin", "--family", "curve", "--out", str(model)]) == 0
        spec = tmp_path / "ring.json"
        doc = {**GOOD_SPEC, "target_ratio": 0.9, "per_joint_force_n": None,
               "joint": {"family": "curve", "thickness_mm": 0.8}}
        spec.write_text(json.dumps(doc))
        out = tmp_path / "r.json"
        capsys.readouterr()
        assert main([
            "design", "--spec", str(spec), "--model", str(model), "--out", str(out),
        ]) == 2
        assert "deformation angle 25.8419 deg outside the validated window" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    def test_curve_thickness_whose_basis_overflows_exits_2(self, tmp_path, capsys):
        model = tmp_path / "curve.json"
        assert main(["builtin", "--family", "curve", "--out", str(model)]) == 0
        spec = tmp_path / "ring.json"
        doc = {**GOOD_SPEC, "per_joint_force_n": None,
               "joint": {"family": "curve", "thickness_mm": 1e300}}
        spec.write_text(json.dumps(doc))
        out = tmp_path / "r.json"
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["design", "--spec", str(spec), "--model", str(model), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: thickness: values too large for the quadratic basis\n"
        )
        assert not out.exists()

    def test_total_force_past_the_float_range_exits_2(self, tmp_path, square_archive, capsys):
        # exited 0 with "total cable force unbounded" and "min spindle radius 0 mm"
        spec = tmp_path / "ring.json"
        spec.write_text(json.dumps({**GOOD_SPEC, "per_joint_force_n": 1e307}))
        out = tmp_path / "r.json"
        assert main([
            "design", "--spec", str(spec), "--model", str(square_archive), "--out", str(out),
        ]) == 2
        assert capsys.readouterr().err == (
            "error: total force of total_joints=40 at per_joint_force=1e+307 is not finite\n"
        )
        assert not out.exists()

    def test_square_bend_below_window_warns_in_report(self, tmp_path, square_archive):
        spec = tmp_path / "ring.json"
        doc = {k: v for k, v in GOOD_SPEC.items() if k != "per_joint_force_n"}
        spec.write_text(json.dumps({**doc, "target_ratio": 0.95}))
        out = tmp_path / "r.json"
        assert main([
            "design", "--spec", str(spec), "--model", str(square_archive), "--out", str(out),
        ]) == 0
        report = json.loads(out.read_text())
        assert report["per_joint_force_source"] == "model"
        assert "force model warning: extrapolation" in report["diagnostics"]

    @pytest.mark.parametrize("radius, sections, joints", [
        (5e-324, 4, 40), (5e-324, 3, 24), (1e308, 5, 40),
    ], ids=["tiny-4", "tiny-3", "huge"])
    def test_unusable_radius_exits_2_naming_it(
        self, tmp_path, square_archive, capsys, radius, sections, joints,
    ):
        # the tiny radii raised ZeroDivisionError in required_bend_angle (exit
        # 1 with a traceback); the huge one named the derived half_section_arc=inf
        spec = tmp_path / "ring.json"
        spec.write_text(json.dumps({**GOOD_SPEC, "outer_radius_mm": radius,
                                    "n_sections": sections, "joints_per_ring": joints}))
        out = tmp_path / "r.json"
        assert main([
            "design", "--spec", str(spec), "--model", str(square_archive), "--out", str(out),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: outer_radius=") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "design"])
    def test_integer_too_large_for_a_float_exits_2_naming_it(
        self, tmp_path, square_archive, capsys, command,
    ):
        # validate passed this spec and design raised OverflowError in ring_geometry
        spec = tmp_path / "ring.json"
        spec.write_text(json.dumps({**GOOD_SPEC, "n_sections": 10**400,
                                    "joints_per_ring": 10**400}))
        out = tmp_path / "r.json"
        extra = ["--model", str(square_archive), "--out", str(out)] if command == "design" else []
        assert main([command, "--spec", str(spec), *extra]) == 2
        err = capsys.readouterr().err
        assert "error: field n_sections: must be a finite number\n" in err
        assert "Traceback" not in err and not out.exists()

    def test_byte_identical_reports(self, tmp_path, square_archive, spec_file):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert main([
                "design", "--spec", str(spec_file), "--model", str(square_archive),
                "--out", str(out),
            ]) == 0
        assert a.read_bytes() == b.read_bytes()


@pytest.fixture
def fitted_pair(tmp_path, bench_csv):
    force, back = tmp_path / "f.json", tmp_path / "r.json"
    assert main([
        "fit", "--data", str(bench_csv), "--family", "square_sym",
        "--out", str(force), "--return-out", str(back), "--quiet",
    ]) == 0
    return force, back


class TestArchiveTarget:
    # ugc fit tags its archives "square_sym:force" and "square_sym:return"
    @pytest.mark.parametrize("command", ["predict", "design"])
    @pytest.mark.parametrize("flag", ["--model", "--return-model"])
    def test_swapped_archive_exits_2_naming_flag_and_file(
        self, tmp_path, fitted_pair, spec_file, capsys, command, flag
    ):
        force, back = fitted_pair
        swapped, held, want = (back, "return", "force") if flag == "--model" else (
            force, "force", "return")
        models = ["--model", str(swapped)] if flag == "--model" else [
            "--model", str(force), "--return-model", str(force)]
        out = tmp_path / "report.json"
        argv = (["predict", *models, "--theta", "90"] if command == "predict" else
                ["design", "--spec", str(spec_file), *models, "--out", str(out)])
        assert main(argv) == 2
        assert capsys.readouterr() == ("", (
            f"error: {flag} {swapped}: archive holds a {held} model "
            f"(model_id 'square_sym:{held}'), not a {want} model\n"
        ))
        assert not out.exists()
        # an id of any other shape, null included, is not read
        doc = json.loads(swapped.read_text())
        for model_id in (None, held, f"square_sym:{held}:2", 7):
            doc["model_id"] = model_id
            swapped.write_text(json.dumps(doc))
            assert main(argv) == 0, model_id

    def test_return_archive_of_another_family_names_file_and_field(
        self, fitted_pair, capsys
    ):
        force, back = fitted_pair
        argv = ["predict", "--model", str(force), "--return-model", str(back), "--theta", "90"]
        doc = json.loads(back.read_text())
        back.write_text(json.dumps({**doc, "family": "curve"}))
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: archive {back}: field family: 'curve' does not match --model's 'square_sym'\n"
        )
        back.write_text(json.dumps({**doc, "family": None}))  # an untagged return model serves
        assert main(argv) == 0


class TestSharedSpectrum:
    """A force and return archive pair on the same rows and length scales
    loads with one eigendecomposition; any other pair with two."""

    @staticmethod
    def _argv(command, force, back, tmp_path, spec_file):
        models = ["--model", str(force), "--return-model", str(back), "--json"]
        if command == "predict":
            return ["predict", *models, "--theta", "90"]
        return ["design", "--spec", str(spec_file), *models, "--out", str(tmp_path / "r.json")]

    @pytest.mark.parametrize("command", ["predict", "design"])
    @pytest.mark.parametrize("edit", [None, "train_x", "length_scales"])
    def test_one_eigh_per_distinct_spectrum(
        self, tmp_path, fitted_pair, spec_file, capsys, eigh_calls, command, edit
    ):
        force, back = fitted_pair
        if edit is not None:
            doc = json.loads(back.read_text())
            if edit == "train_x":
                doc["train_x"][3][0] += 1e-9
            else:
                doc["kernel"]["length_scales"] = [25.0]
            back.write_text(json.dumps(doc))
        capsys.readouterr()
        eigh_calls.clear()
        assert main(self._argv(command, force, back, tmp_path, spec_file)) == 0
        assert len(eigh_calls) == (1 if edit is None else 2)
        got = strict_json(capsys.readouterr().out)
        if command == "predict":
            # the same answer as the two archives loaded on their own
            model = joints.JointFamilyModel(
                FamilyKind.SQUARE_SYM, archive.load_archive(force)[0], archive.load_archive(back)[0]
            )
            (mean,), (std,), (ret,), _ = joints.predict_many(model, [90.0])
            assert (got["force_n"], got["force_std_n"], got["return_angle_deg"]) == (mean, std, ret)

    def test_tuned_curve_pair_answers(self, tmp_path, capsys):
        # the installed entry point's smoke test, in process: a tuned pair
        # whose targets may pick different length scales
        force, back = tmp_path / "f.json", tmp_path / "r.json"
        assert main([
            "fit", "--tune", "--data", str(DEMO_DATA / "curve_bench.csv"), "--family", "curve",
            "--out", str(force), "--return-out", str(back), "--quiet",
        ]) == 0
        assert main([
            "predict", "--model", str(force), "--return-model", str(back),
            "--theta", "90", "--thickness", "0.8", "--json",
        ]) == 0
        got = strict_json(capsys.readouterr().out)
        assert math.isfinite(got["force_n"]) and isinstance(got["return_angle_deg"], float)


class TestValidate:
    def test_good_inputs(self, bench_csv, spec_file):
        assert main(["validate", "--data", str(bench_csv), "--spec", str(spec_file)]) == 0

    def test_bad_csv_exit_2(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(HEADER + "\nsquare_sym,,200,forward,1.0,170,r1\n")
        assert main(["validate", "--data", str(path)]) == 2

    @pytest.mark.parametrize("token", ["inf", "nan"])
    def test_non_finite_csv_number_exit_2(self, tmp_path, capsys, token):
        path = tmp_path / "bad.csv"
        path.write_text(HEADER + f"\nsquare_sym,,90,forward,{token},170,r1\n")
        assert main(["validate", "--data", str(path)]) == 2
        assert "force_n" in capsys.readouterr().err

    @pytest.mark.parametrize("literal", ["Infinity", "1e400"])
    def test_non_finite_spec_number_exit_2(self, tmp_path, capsys, literal):
        text = json.dumps(GOOD_SPEC).replace("100.0", literal)
        path = tmp_path / "ring.json"
        path.write_text(text)
        assert main(["validate", "--spec", str(path)]) == 2
        assert "outer_radius_mm" in capsys.readouterr().err

    @pytest.mark.parametrize("row", [",,,,,,,X", "square_sym,,90,forward,2.0,172,r1,extra"])
    def test_row_wider_than_header_exit_2(self, tmp_path, capsys, row):
        path = tmp_path / "wide.csv"
        path.write_text(HEADER + "\n" + row + "\n")
        assert main(["validate", "--data", str(path)]) == 2
        assert "row 2: 8 cells, header has 7" in capsys.readouterr().err

    def test_cell_past_csv_field_limit_exit_2(self, tmp_path, capsys):
        path = tmp_path / "big.csv"
        path.write_text(HEADER + "\nsquare_sym,," + "9" * 131_073 + ",forward,1.0,170,r1\n")
        assert main(["validate", "--data", str(path)]) == 2
        assert "after line 2: field larger than field limit" in capsys.readouterr().err

    def test_family_list_exit_2(self, tmp_path, capsys):
        path = tmp_path / "ring.json"
        path.write_text(json.dumps({**GOOD_SPEC, "joint": {"family": ["square_sym"]}}))
        assert main(["validate", "--spec", str(path)]) == 2
        assert "field joint.family: unknown family ['square_sym']" in capsys.readouterr().err

    @pytest.mark.parametrize("key, name, value", [("actuator", "overdrive", 2.0),
                                                  ("joint", "thickness", 3)])
    def test_unknown_nested_key_exit_2(self, tmp_path, capsys, key, name, value):
        path = tmp_path / "ring.json"
        path.write_text(json.dumps({**GOOD_SPEC, key: {**GOOD_SPEC[key], name: value}}))
        assert main(["validate", "--spec", str(path)]) == 2
        assert capsys.readouterr().err == f"error: unknown field: {key}.{name}\n"

    def test_requires_an_input(self):
        assert main(["validate"]) == 2

    def test_problems_listed_in_field_order(self, tmp_path, capsys):
        doc = {**GOOD_SPEC, "outer_radius_mm": -1.0, "ring_layers": 0, "bogus": 1,
               "actuator": {"spindle_radius_mm": 3.0}, "joint": {"family": "nope"}}
        path = tmp_path / "ring.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--spec", str(path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: field outer_radius_mm: must be > 0",
            "error: missing field: actuator.rated_torque_nm",
            "error: field joint.family: unknown family 'nope'",
            "error: field ring_layers: must be >= 1",
            "error: unknown field: bogus",
        ]

    def test_spec_without_ring_layers_is_valid(self, tmp_path, capsys):
        path = tmp_path / "ring.json"
        path.write_text(json.dumps({k: v for k, v in GOOD_SPEC.items() if k != "ring_layers"}))
        assert main(["validate", "--spec", str(path)]) == 0
        assert capsys.readouterr().out == f"{path}: ok\n"

    @pytest.mark.parametrize("flag", ["--data", "--spec"])
    def test_byte_order_mark_is_read_past(self, tmp_path, bench_csv, spec_file, capsys, flag):
        # some editors save UTF-8 with a BOM; it must not hide the CSV
        # header's first column or the spec's opening brace
        plain = bench_csv if flag == "--data" else spec_file
        bom = tmp_path / f"bom-{plain.name}"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        docs = []
        for path in (plain, bom):
            assert main(["validate", flag, str(path), "--json"]) == 0
            docs.append(strict_json(capsys.readouterr().out))
        assert docs[1] == {**docs[0], flag[2:]: str(bom)}


class Run(NamedTuple):
    code: int
    out: str
    written: str | None  # the text of the file the command writes, if any


def _fit_json(run):
    return strict_json(run.out)


# Each option flag: the command ({d} is the directory that bench_csv and
# _flag_inputs fill), the flag with its value, and the visible effect of the
# flag on a Run.
FIT = "fit --data {d}/square.csv --family square_sym --out {d}/m.json"
FLAG_EFFECTS = {
    "quiet": ("builtin --family square_sym --out {d}/m.json", ["--quiet"], lambda r: r.out),
    "json": ("predict --model {d}/sq.json --theta 90", ["--json"], lambda r: r.out[:1]),
    "allow_extrapolation": (
        "predict --model {d}/curve.json --theta 20 --thickness 0.8", ["--allow-extrapolation"],
        lambda r: r.code,
    ),
    "angle_bin": (FIT + " --json", ["--angle-bin", "20"], lambda r: _fit_json(r)["samples"]),
    "degree": (
        FIT + " --json", ["--degree", "3"],
        lambda r: [k for k in _fit_json(r) if k.startswith("poly")],
    ),
    "noise_variance": (
        FIT + " --quiet", ["--noise-variance", "0.02"],
        lambda r: json.loads(r.written)["noise_variance"],
    ),
    "safety_factor": (
        "design --spec {d}/ring.json --model {d}/sq.json --out {d}/m.json --quiet",
        ["--safety-factor", "2.5"],
        lambda r: json.loads(r.written)["quantities"]["safety_factor"]["value"],
    ),
}


def _flag_inputs(tmp_path):
    (tmp_path / "ring.json").write_text(json.dumps(GOOD_SPEC))
    for family, name in (("square_sym", "sq.json"), ("curve", "curve.json")):
        assert main(["builtin", "--family", family, "--out", str(tmp_path / name)]) == 0


def _run(tmp_path, capsys, command, *extra):
    written = tmp_path / "m.json"
    written.unlink(missing_ok=True)
    capsys.readouterr()
    code = main([*command.format(d=tmp_path).split(), *extra])
    text = written.read_text() if written.exists() else None
    return Run(code, capsys.readouterr().out, text)


class TestOptionFlags:
    @pytest.mark.parametrize("key", FLAG_EFFECTS)
    def test_flag_changes_its_effect(self, tmp_path, bench_csv, capsys, key):
        command, flag, effect = FLAG_EFFECTS[key]
        _flag_inputs(tmp_path)
        default = effect(_run(tmp_path, capsys, command))
        assert effect(_run(tmp_path, capsys, command, *flag)) != default
        # a second call in the same process sees the parser's own default again
        assert effect(_run(tmp_path, capsys, command)) == default

    def test_config_flag_is_unrecognized(self, tmp_path, capsys):
        # every option comes from its flag; there is no config file to name
        with pytest.raises(SystemExit) as exc:
            main(["builtin", "--family", "square_sym", "--out", str(tmp_path / "m.json"),
                  "--config", "x"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --config x" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("content", [None, "quiet = true\n"], ids=["missing", "quiet"])
    def test_ugc_config_variable_is_not_read(self, tmp_path, capsys, monkeypatch, content):
        cfg = tmp_path / "ugc.cfg"
        if content is not None:
            cfg.write_text(content)
        command = "builtin --family square_sym --out {d}/m.json"
        plain = _run(tmp_path, capsys, command)
        monkeypatch.setenv("UGC_CONFIG", str(cfg))
        assert _run(tmp_path, capsys, command) == plain
        assert plain.code == 0 and plain.out


class TestGlobalFlags:
    def test_quiet_silences_info(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert main(["builtin", "--family", "square_sym", "--out", str(out), "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "flag,command",
        [
            ("--theta", "predict --model m.json"),
            ("--thickness", "predict --model m.json --theta 90"),
            ("--angle-bin", "fit --data d.csv --family curve --out m.json"),
            ("--noise-variance", "fit --data d.csv --family curve --out m.json"),
            ("--safety-factor", "design --spec s.json --model m.json --out r.json"),
        ],
    )
    @pytest.mark.parametrize("token", ["inf", "nan", "-inf"])
    def test_non_finite_flag_exit_2(self, flag, command, token, capsys):
        # argparse rejects the value before any file is opened
        with pytest.raises(SystemExit) as exc:
            main([*command.split(), f"{flag}={token}"])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,token,kind,command",
        [
            ("--degree", "2.5", "int", "fit --data d.csv --family curve --out m.json"),
            ("--angle-bin", "wide", "finite_float", "fit --data d.csv --family curve --out m.json"),
            ("--noise-variance", "wide", "finite_float",
             "fit --data d.csv --family curve --out m.json"),
            ("--safety-factor", "wide", "finite_float",
             "design --spec s.json --model m.json --out r.json"),
        ],
    )
    def test_malformed_flag_value_exit_2(self, flag, token, kind, command, capsys):
        # argparse names the flag and the value before any file is opened
        with pytest.raises(SystemExit) as exc:
            main([*command.split(), flag, token])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: invalid {kind} value: '{token}'" in err

    @pytest.mark.parametrize("command", ["fit", "predict", "design", "builtin", "validate"])
    def test_help_lists_global_flags(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for flag in ("--quiet", "--json"):
            assert flag in text

    def test_help_lists_documented_flags(self, capsys):
        expectations = {
            "fit": ["--data", "--family", "--out"],
            "predict": ["--model", "--sweep", "--allow-extrapolation", "--theta"],
            "design": ["--spec", "--model", "--out"],
            "builtin": ["--family", "--out"],
            "validate": ["--data", "--spec"],
        }
        for command, flags in expectations.items():
            with pytest.raises(SystemExit):
                main([command, "--help"])
            text = capsys.readouterr().out
            for flag in flags:
                assert flag in text, f"{command} help missing {flag}"


# One call per subcommand on the inputs of bench_csv and _flag_inputs
# ({d}); the predict calls raise warnings, which --json and --quiet keep off
# stderr.
OUTPUT_COMMANDS = {
    "fit": "fit --data {d}/square.csv --family square_sym --out {d}/f.json --return-out {d}/r.json",
    "predict-theta": "predict --model {d}/sq.json --theta 10",
    "predict-sweep": "predict --model {d}/sq.json --sweep 0:180:30",
    "design": "design --spec {d}/ring.json --model {d}/sq.json --out {d}/report.json",
    "builtin": "builtin --family curve --out {d}/curve.json",
    "validate": "validate --data {d}/square.csv --spec {d}/ring.json",
}


class TestOutputModes:
    @pytest.mark.parametrize("flag", ["--json", "--quiet"])
    @pytest.mark.parametrize("command", OUTPUT_COMMANDS)
    def test_one_document_or_nothing(self, tmp_path, bench_csv, capsys, command, flag):
        _flag_inputs(tmp_path)
        capsys.readouterr()
        assert main([*OUTPUT_COMMANDS[command].format(d=tmp_path).split(), flag]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        if flag == "--quiet":
            assert out == ""
        else:
            assert isinstance(strict_json(out), dict)

    def test_json_quiet_still_prints_the_document(self, tmp_path, capsys):
        out = tmp_path / "sq.json"
        assert main(["builtin", "--family", "square_sym", "--out", str(out), "--json", "--quiet"]) == 0
        assert strict_json(capsys.readouterr().out) == {
            "family": "square_sym", "outputs": [str(out)]
        }

    def test_validate_document(self, bench_csv, spec_file, capsys):
        assert main(["validate", "--data", str(bench_csv), "--json"]) == 0
        doc = strict_json(capsys.readouterr().out)
        assert doc == {"data": str(bench_csv), "samples": doc["samples"], "spec": None}
        assert doc["samples"] > 0
        assert main(["validate", "--spec", str(spec_file), "--json"]) == 0
        assert strict_json(capsys.readouterr().out) == {
            "data": None, "samples": None, "spec": str(spec_file)
        }

    @pytest.mark.parametrize("argv, code", [
        (["fit", "--data", "{d}/ghost.csv", "--family", "square_sym", "--out", "{d}/m.json"], 2),
        (["predict", "--model", "{d}/sq.json", "--theta", "1e200", "--allow-extrapolation"], 2),
        (["design", "--spec", "{d}/deep.json", "--model", "{d}/sq.json", "--out", "{d}/r.json"], 1),
    ], ids=["input", "prediction", "computation"])
    def test_errors_print_no_document(self, tmp_path, capsys, argv, code):
        _flag_inputs(tmp_path)
        (tmp_path / "deep.json").write_text(json.dumps({**GOOD_SPEC, "target_ratio": 0.1}))
        capsys.readouterr()
        assert main([a.format(d=tmp_path) for a in argv] + ["--json"]) == code
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")

    def test_sweep_rows_are_theta_documents(self, fitted_pair, capsys):
        force, back = fitted_pair
        models = ["predict", "--model", str(force), "--return-model", str(back), "--json"]
        assert main([*models, "--sweep", "0:180:7.5"]) == 0
        rows = strict_json(capsys.readouterr().out)["rows"]
        assert len(rows) == 25
        for row in rows[::3]:
            assert main([*models, "--theta", repr(row["theta_deg"])]) == 0
            one = strict_json(capsys.readouterr().out)
            assert row.keys() == one.keys()
            # a mean does not depend on its batch; a variance may in the last bits
            assert row["force_n"] == one["force_n"]
            assert row["force_std_n"] == pytest.approx(one["force_std_n"], abs=1e-12)
            rest = ("theta_deg", "thickness_mm", "return_angle_deg", "warnings")
            assert [row[k] for k in rest] == [one[k] for k in rest]

    def test_sweep_warns_once_per_flag(self, square_archive, capsys):
        # 0 and 180 deg lie outside 30..150; 0 deg also carries the rest force
        assert main(["predict", "--model", str(square_archive), "--sweep", "0:180:30"]) == 0
        out, err = capsys.readouterr()
        assert len(out.splitlines()) == 8
        assert err == (
            "warning: extrapolation at 2 of 7 angles\n"
            "warning: rest_force at 1 of 7 angles\n"
        )

    def test_theta_warns_per_flag(self, square_archive, capsys):
        assert main(["predict", "--model", str(square_archive), "--theta", "0"]) == 0
        assert capsys.readouterr().err == "warning: extrapolation\nwarning: rest_force\n"

    @pytest.mark.parametrize("query, named", [
        (["--sweep", "1:2"], ["--sweep"]),
        (["--sweep", "30:nan:5"], ["--sweep"]),
        (["--theta", "90", "--sweep", "30:150:5"], ["--theta", "--sweep"]),
    ], ids=["malformed", "non-finite", "both"])
    def test_query_checked_before_any_archive_is_read(self, tmp_path, capsys, query, named):
        ghost = tmp_path / "ghost.json"
        assert main(["predict", "--model", str(ghost), *query]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "ghost" not in err
        assert all(flag in err for flag in named)


def test_import_loads_no_scipy():
    # every ugc command pays its import; numpy is the only runtime dependency
    result = _run_cli("-c", "import sys, ugckit.cli; print('scipy' in sys.modules)")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


# Counts the code dataclasses generates while ugckit.cli imports: each method
# it writes for a class is one exec in its module (_create_fn up to 3.12).
GENERATED_CODE_PROBE = """
import dataclasses, sys
generated = []
def counted_exec(*args):
    generated.append(args[0])
    return exec(*args)
dataclasses.exec = counted_exec
import ugckit, ugckit.cli
print(len(generated))
print(*sorted(name for name in sys.modules if name.startswith("ugckit.")))
"""


def test_import_generates_no_dataclass_code():
    # every record derives from units._Record, which defines the methods
    # @dataclass(frozen=True) would generate and exec at each ugc call's import
    result = _run_cli("-c", GENERATED_CODE_PROBE)
    assert result.returncode == 0, result.stderr
    count, modules = result.stdout.splitlines()
    assert count == "0"
    # bench/run.py --trace 1 and CI's oracle steps wrap these modules' functions
    for module in ("data", "gpr", "joints", "archive", "mechanics"):
        assert f"ugckit.{module}" in modules.split()


# Runs one `builtin` call through a process entry in a fresh interpreter and
# prints, for each gc.freeze call and for main's parse_args, whether the heap
# was already frozen, then the exit code.
ENTRY_PROBE = """
import argparse, gc, runpy, sys
events = []
freeze = gc.freeze
def probe_freeze():
    events.append(("freeze", gc.get_freeze_count() > 0))
    freeze()
gc.freeze = probe_freeze
parse_args = argparse.ArgumentParser.parse_args
def probe_parse_args(self, *args, **kwargs):
    events.append(("main", gc.get_freeze_count() > 0))
    return parse_args(self, *args, **kwargs)
argparse.ArgumentParser.parse_args = probe_parse_args
sys.argv = ["ugc", "builtin", "--family", "square_sym", "--out", sys.argv[1], "--quiet"]
try:
    {start}
except SystemExit as exc:
    print(events, exc.code)
"""


class TestProcessEntry:
    @pytest.mark.parametrize("start", [
        'runpy.run_module("ugckit.cli", run_name="__main__")',
        "import ugckit.cli; ugckit.cli.run()",
    ], ids=["python-m", "run"])
    def test_entry_freezes_once_before_main(self, tmp_path, start):
        out = tmp_path / "sq.json"
        result = _run_cli("-c", ENTRY_PROBE.replace("{start}", start), str(out))
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[('freeze', False), ('main', True)] 0\n"
        assert result.stderr == "" and out.exists()

    def test_ugc_script_names_run(self):
        # a text check: Python 3.10 has no tomllib
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        assert re.search(r'^\[project\.scripts\]\nugc = "ugckit\.cli:run"$', text, re.M)

    def test_fits_leave_numpy_ma_unimported(self, tmp_path):
        # a bare np.unique imports numpy.ma, about 5 ms of a call; the row
        # index behind the duplicate-row and product-grid tests asks for an index
        probe = (
            "import sys\n"
            "from ugckit.cli import main\n"
            "out, curve, square = sys.argv[1:]\n"
            "for argv in ([curve, 'curve'], ['--tune', curve, 'curve'],\n"
            "             ['--tune', square, 'square_sym']):\n"
            "    *tune, data, family = argv\n"
            "    assert main(['fit', *tune, '--data', data, '--family', family,\n"
            "                 '--out', out, '--quiet']) == 0\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        result = _run_cli("-c", probe, str(tmp_path / "m.json"),
                          str(DEMO_DATA / "curve_bench.csv"), str(DEMO_DATA / "square_sym_bench.csv"))
        assert result.returncode == 0, result.stderr
        assert result.stdout == "False\n"

    def test_main_leaves_gc_alone(self, tmp_path, bench_csv):
        before = gc.get_freeze_count(), gc.isenabled()
        assert main(["fit", "--data", str(bench_csv), "--family", "square_sym",
                     "--out", str(tmp_path / "f.json"), "--quiet"]) == 0
        assert (gc.get_freeze_count(), gc.isenabled()) == before
