import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import crossproj.oracle as oracle_mod
import crossproj.projection as projection_mod
from crossproj import CaseError, CaseTag, classify, family_samples, generate_instance
from crossproj import Pair, instance_to_dict, objective, project
from crossproj.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestProjectCommand:
    def test_scalar_generic_json(self, capsys):
        code, out, _ = run(capsys, "project", "--x0", "2", "--y0", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["case"] == "generic"
        assert doc["set_valued"] is False
        assert doc["lambda"] == 0.5
        assert doc["dist_sq"] == 1.0
        assert doc["points"][0]["x"] == [2.0]
        assert doc["points"][0]["y"] == [0.0]
        assert doc["tolerances"]["orth"] == 1e-12

    def test_orthogonal_input(self, capsys):
        code, out, _ = run(capsys, "project", "--x0", "1,0", "--y0", "0,1")
        assert code == 0
        doc = json.loads(out)
        assert doc["case"] == "orthogonal"
        assert doc["dist"] == 0.0

    def test_overflowing_square_is_null(self, capsys):
        code, out, _ = run(capsys, "project", "--x0", "1e308,1e308", "--y0", "1e308,-5e307")
        assert code == 0

        def reject(name):
            raise AssertionError(f"{name} is not JSON")

        doc = json.loads(out, parse_constant=reject)
        assert doc["half_dist_sq"] is None and doc["dist_sq"] is None
        # dist = sqrt((S - |x0+y0||x0-y0|) / 2), about 2.8e307
        assert doc["dist"] == pytest.approx(2.8077640640441517e307, rel=1e-14)

    def test_degenerate_lists_canonical(self, capsys):
        code, out, _ = run(capsys, "project", "--x0", "1,1", "--y0", "1,1")
        assert code == 0
        doc = json.loads(out)
        assert doc["case"] == "degenerate_plus"
        assert doc["set_valued"] is True
        assert doc["lambda"] is None
        assert doc["dist_sq"] == 2.0
        assert [p["selection"] for p in doc["points"]] == ["base", "alternate"]

    def test_seventeen_digit_roundtrip(self, capsys):
        code, out, _ = run(capsys, "project", "--x0", "1,2", "--y0", "3,1")
        doc = json.loads(out)
        res = project(np.array([1.0, 2.0]), np.array([3.0, 1.0]))
        assert doc["lambda"] == res.lam  # lossless float rendering
        assert doc["points"][0]["x"] == list(res.point.x)

    def test_reprojection_of_output_is_orthogonal(self, capsys):
        code, out, _ = run(capsys, "project", "--x0", "1,2", "--y0", "3,1")
        doc = json.loads(out)
        p = doc["points"][0]
        x = np.array(p["x"])
        y = np.array(p["y"])
        assert classify(x, y) is CaseTag.ORTHOGONAL
        assert 2.0 * project(x, y).half_dist_sq <= 1e-9

    def test_csv_and_plain_formats(self, capsys):
        code, out, _ = run(capsys, "project", "--x0", "2", "--y0", "1", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "case,selection,lambda,half_dist_sq,dist,x_0,y_0"
        assert lines[1].startswith("generic,unique,0.5,")
        code, out, _ = run(capsys, "project", "--x0", "2", "--y0", "1", "--format", "plain")
        assert code == 0
        assert "case: generic" in out

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        code, out, _ = run(
            capsys, "project", "--x0", "2", "--y0", "1", "--output", str(target)
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["case"] == "generic"

    @pytest.mark.parametrize(
        "argv",
        [
            ("project", "--x0", "1", "--y0", "1", "--output"),
            ("family", "--x0", "1,1", "--y0", "1,1", "--output"),
            ("solve", "--generate", "orthant,3,0", "--trace"),
            ("solve", "--generate", "orthant,3,0", "--summary"),
        ],
        ids=["project_output", "family_output", "solve_trace", "solve_summary"],
    )
    def test_unwritable_output_is_parse_error(self, capsys, tmp_path, argv):
        path = tmp_path / "missing" / "out"
        code, out, err = run(capsys, *argv, str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1

    def test_input_file(self, capsys, tmp_path):
        doc = {"dim": 2, "x0": [1.0, 2.0], "y0": [3.0, 1.0]}
        path = tmp_path / "point.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "project", "--input", str(path))
        assert code == 0
        assert json.loads(out)["case"] == "generic"

    def test_missing_input_is_parse_error(self, capsys):
        code, _, err = run(capsys, "project")
        assert code == 2
        assert "provide" in err

    def test_file_length_mismatch_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim": 3, "x0": [1.0, 2.0], "y0": [1.0, 2.0, 3.0]}))
        code, _, err = run(capsys, "project", "--input", str(path))
        assert code == 2
        assert "'x0'" in err and "length 2" in err

    @pytest.mark.parametrize("value", ["NaN", "1" + "0" * 400], ids=["nan", "int_beyond_float"])
    def test_file_non_finite_is_parse_error(self, capsys, tmp_path, value):
        path = tmp_path / "bad.json"
        path.write_text(f'{{"dim": 1, "x0": [{value}], "y0": [1.0]}}')
        code, _, err = run(capsys, "project", "--input", str(path))
        assert code == 2
        assert "x0[0]" in err

    @pytest.mark.parametrize(
        "content",
        [b"[\xff]", b"[1" + b"0" * 5000 + b"]", b"[" * 100_000 + b"]" * 100_000],
        ids=["not_utf8", "int_beyond_str_limit", "nested_too_deep"],
    )
    @pytest.mark.parametrize("argv", [("project", "--input"), ("solve", "--instance")],
                             ids=["point", "instance"])
    def test_undecodable_file_is_parse_error(self, capsys, tmp_path, argv, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code, out, err = run(capsys, *argv, str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read {path}: ") and err.count("\n") == 1

    def test_file_bad_json_reports_location(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dim": 1,\n  "x0": [1.0,]\n}')
        code, _, err = run(capsys, "project", "--input", str(path))
        assert code == 2
        assert f"{path}:2:" in err

    def test_inline_non_finite_is_domain_error(self, capsys):
        code, _, err = run(capsys, "project", "--x0", "inf", "--y0", "1")
        assert code == 3
        assert "non-finite" in err

    def test_inline_dim_mismatch_is_domain_error(self, capsys):
        code, _, err = run(capsys, "project", "--x0", "1,2", "--y0", "1")
        assert code == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ("--x0", "1,0", "--y0", "0,1", "--tol-orth=-1"),
            ("--x0", "1,2", "--y0", "1,2", "--tol-deg=-1"),
            ("--x0", "1,2", "--y0", "3,1", "--tol-orth=nan"),
            ("--x0", "1,1", "--y0", "1,1", "--tol-orth", "0.5"),
            ("--x0", "1,2", "--y0", "3,1", "--tol-deg", "1"),
        ],
    )
    def test_invalid_band_is_domain_error(self, capsys, argv):
        code, out, err = run(capsys, "project", *argv)
        assert code == 3
        assert out == ""
        assert err.startswith("error: tolerance ")

    @pytest.mark.parametrize(
        "text", ["1,a", ",", "1,,2", "1,2,", "1_0", "2,1_0.5", "\u0661,\u0662", " 1,2"],
        ids=["not_a_number", "empty", "empty_inner_item", "empty_last_item",
             "digit_separator", "separator_in_fraction", "other_script_digits",
             "surrounding_blank"],
    )
    def test_bad_coordinates_is_parse_error(self, capsys, text):
        with pytest.raises(SystemExit) as exc:
            main(["project", "--x0", text, "--y0", "1"])
        assert exc.value.code == 2
        assert "coordinate" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ("project", "--x0", "1,2", "--y0", "3,-1", "--tol-orth", "1_0e-13"),
            ("project", "--x0", "1", "--y0", "1", "--tol-orth", "1_0"),
            ("project", "--x0", "1", "--y0", "1", "--tol-deg", "0.5,0.5"),
            ("family", "--x0", "1", "--y0", "1", "--tol-deg", "abc"),
            ("solve", "--generate", "orthant,3,0", "--tol", " 1_0"),
            ("solve", "--generate", "orthant,3,0", "--tol", ""),
            ("project", "--x0", "1,2", "--y0", "3,1", "--tol-deg", "\u0661e-1"),
            ("solve", "--generate", "orthant,3,0", "--tol", " 1e-8"),
        ],
        ids=["orth_separator", "orth_separator_int", "deg_two_items", "deg_text",
             "tol_separator", "tol_empty", "deg_other_script_digit", "tol_blank"],
    )
    def test_bad_real_flag_is_parse_error(self, capsys, argv):
        # every real flag reads its value by the one token rule of number flags
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert f"argument {argv[-2]}: expected a number, got " in capsys.readouterr().err

    def test_point_file_not_an_object_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1.0, 2.0]")
        code, out, err = run(capsys, "project", "--input", str(path))
        assert (code, out) == (2, "")
        assert "top-level value must be an object" in err

    def test_input_with_inline_point_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "point.json"
        path.write_text(json.dumps({"dim": 1, "x0": [1.0], "y0": [2.0]}))
        code, out, err = run(capsys, "project", "--input", str(path), "--x0", "1")
        assert (code, out) == (2, "")
        assert "either --input or --x0/--y0" in err

    def test_unknown_flag_is_parse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["project", "--x0", "1", "--y0", "1", "--frobnicate"])
        assert exc.value.code == 2


class TestFamilyCommand:
    def test_scalar_injective_two_rows(self, capsys):
        code, out, _ = run(
            capsys, "family", "--x0", "1", "--y0", "1", "--count", "3"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "u_0,x_0,y_0,objective"
        assert len(lines) == 3  # header + base + one surviving direction

    def test_plane_grid_constant_objective(self, capsys):
        code, out, _ = run(capsys, "family", "--x0", "1,1", "--y0", "1,1", "--count", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 6
        for line in lines[1:]:
            assert float(line.split(",")[-1]) == pytest.approx(1.0, rel=1e-10)

    def test_count_one_base_row(self, capsys):
        code, out, _ = run(capsys, "family", "--x0", "1", "--y0", "1", "--count", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert lines[1] == "0,0,1,0.5"

    def test_overflowing_objective_is_inf_without_warning(self, capsys):
        code, out, err = run(
            capsys, "family", "--x0=1e300,2e300", "--y0=1e300,2e300", "--count", "3"
        )
        assert code == 0
        assert err == ""
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 3
        assert all(row.endswith(",inf") for row in rows)

    def _rows(self, capsys, *argv):
        code, out, err = run(capsys, "family", *argv)
        assert (code, err) == (0, "")
        return np.array([[float(v) for v in line.split(",")] for line in out.splitlines()[1:]])

    @pytest.mark.parametrize("x0, y0", [
        ("1,2,3,4", "1,2,3,4"),
        ("3e150,-1e-3,0,7e149", "-3e150,1e-3,0,-7e149"),
        ("0.3,-0.7,1.1", "0.3,-0.7,1.1"),
    ])
    def test_objective_column_is_objective_of_each_row(self, capsys, x0, y0):
        rows = self._rows(capsys, "--count", "50", f"--x0={x0}", f"--y0={y0}")
        n = (rows.shape[1] - 1) // 3
        x0, y0 = ([float(v) for v in t.split(",")] for t in (x0, y0))
        for row in rows:
            point = Pair(row[n:2 * n], row[2 * n:3 * n])
            assert row[-1] == objective(point, x0, y0)

    def test_injective_directions_pairwise_distinct(self, capsys):
        rows = self._rows(capsys, "--count", "50", "--x0", "1,2,3,4", "--y0", "1,2,3,4")
        assert len(rows) == 50
        us = rows[:, :4]
        for i in range(len(us) - 1):
            assert np.abs(us[i + 1:] - us[i]).max(axis=1).min() > 1e-12, i

    def test_non_degenerate_message_from_library(self, capsys):
        with pytest.raises(CaseError) as exc:
            family_samples([1.0, 2.0], [3.0, 1.0], 8)
        code, out, err = run(capsys, "family", "--x0", "1,2", "--y0", "3,1")
        assert (code, out, err) == (4, "", f"error: {exc.value}\n")

    def test_mode_flag_is_gone(self, capsys):
        # every direction is the one on its line with <u, x0> >= 0; no flag selects it
        with pytest.raises(SystemExit) as exc:
            main(["family", "--x0", "1", "--y0", "1", "--mode", "injective"])
        assert exc.value.code == 2
        assert "--mode" in capsys.readouterr().err

    def test_non_degenerate_exits_4(self, capsys):
        code, _, err = run(capsys, "family", "--x0", "1,2", "--y0", "3,1")
        assert code == 4
        assert "generic" in err


@pytest.mark.parametrize(
    "argv, flag",
    [(("family", "--x0", "1", "--y0", "1", "--count", "0"), "--count"),
     (("solve", "--generate", "orthant,3,0", "--max-iter", "0"), "--max-iter"),
     (("solve", "--generate", "orthant,0,0"), "--generate")],
    ids=["count_zero", "max_iter_zero", "generate_dim_zero"],
)
def test_integer_flag_below_one_is_parse_error(capsys, argv, flag):
    # refused by the parser (exit 2), before the library's DomainError (exit 3)
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert f"argument {flag}: expected an integer >= 1, got '0'" in capsys.readouterr().err


class TestCheckCommand:
    def test_small_clean_run(self, capsys):
        code, out, _ = run(
            capsys, "check", "--dims", "1,2", "--trials", "3", "--seed", "0"
        )
        assert code == 0
        assert "pass" in out
        assert "FAIL" not in out

    def test_env_seed_used_as_default(self, capsys, monkeypatch):
        monkeypatch.setenv("CROSSPROJ_SEED", "7")
        code, out, _ = run(capsys, "check", "--dims", "1", "--trials", "1")
        assert code == 0
        assert "(seed 7)" in out

    @pytest.mark.parametrize(
        "argv, env",
        [(("--seed", "-1"), None), (("--trials", "-3"), None), ((), "abc"), ((), "-1"),
         (("--seed", " 1"), None), (("--trials", "1_0"), None), ((), "1 ")],
        ids=["seed_negative", "trials_negative", "env_seed_string", "env_seed_negative",
             "seed_blank", "trials_digit_separator", "env_seed_blank"],
    )
    def test_bad_seed_or_trials_is_parse_error(self, capsys, monkeypatch, argv, env):
        if env is not None:
            monkeypatch.setenv("CROSSPROJ_SEED", env)
        with pytest.raises(SystemExit) as exc:
            main(["check", "--dims", "1", "--trials", "1", *argv])
        assert exc.value.code == 2
        assert "expected an integer >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text", ["a", "0", "1,,2", " 1_0", "1_0", "1.0", "\u0661"],
        ids=["not_a_number", "zero", "empty_inner_item", "blank_and_separator",
             "digit_separator", "decimal_point", "arabic_indic_digit"],
    )
    def test_bad_dims_is_parse_error(self, capsys, text):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--dims", text, "--trials", "1"])
        assert exc.value.code == 2
        assert "dims" in capsys.readouterr().err

    def test_signed_integer_flags(self, capsys):
        # an optional sign and ASCII digits are an integer flag's whole syntax
        code, out, _ = run(capsys, "check", "--dims", "+1,02", "--trials", "+0", "--seed", "-0")
        assert code == 0
        assert out.startswith("checked 14 inputs over dims [1, 2] (seed 0)")

    def test_closed_stdout_ends_quietly(self):
        # a reader that closes the pipe early (crossproj check | head -1) ends
        # the run with SIGPIPE's status 141 and nothing on stderr; here the
        # read end is closed before the run starts, so the first write fails
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "crossproj.cli", "check", "--dims", "1", "--trials", "1"],
                stdout=write, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": path},
                timeout=60,
            )
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (141, b"")

    def test_corrupted_build_detected(self, capsys, monkeypatch):
        # every generic result check takes, of the input and of its moves, takes the
        # large root: check builds the input's through oracle_mod._result, and project
        # the moves' through projection_mod._result
        from crossproj.linalg import as_pair, block_solve
        from crossproj.projection import SingletonProjection

        real = projection_mod._result

        def corrupted(core):
            res = real(core)
            if res.tag is CaseTag.GENERIC:
                x0, y0, lam = core.x0, core.y0, core.lam_plus
                half = 0.5 * lam * float(np.dot(x0, y0))
                bad = block_solve(lam, as_pair(x0, y0))
                return SingletonProjection(res.tag, bad, lam, half, math.sqrt(2.0 * half))
            return res

        monkeypatch.setattr(oracle_mod, "_result", corrupted)
        monkeypatch.setattr(projection_mod, "_result", corrupted)
        code, out, _ = run(capsys, "check", "--dims", "2", "--trials", "3", "--seed", "0")
        assert code == 1
        assert "FAIL" in out
        assert "x0 = [" in out  # failing input echoed


class TestSolveCommand:
    def test_generated_orthant_converges_quickly(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        code, out, _ = run(
            capsys, "solve", "--generate", "orthant,1,0", "--method", "ap",
            "--trace", str(trace),
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["schema"] == "crossproj/solve-summary/v2"
        assert summary["config"] == {"max_iter": 5000, "tol": 1e-8, "kind": "orthant", "dim": 1}
        assert summary["converged"] is True
        assert summary["iterations"] <= 5
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "iteration,residual_C,residual_B,case_tag"
        assert len(lines) == summary["iterations"] + 1

    def test_selection_flag_is_gone(self, capsys):
        # a set-valued step always takes (0, y0); no flag selects it
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--generate", "orthant,3,0", "--selection", "first"])
        assert exc.value.code == 2
        assert "--selection" in capsys.readouterr().err

    def test_reruns_byte_identical(self, capsys, tmp_path):
        t1, t2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for t in (t1, t2):
            code, _, _ = run(
                capsys, "solve", "--generate", "orthant,3,4", "--method", "dr",
                "--trace", str(t),
            )
            assert code == 0
        assert t1.read_bytes() == t2.read_bytes()

    def test_instance_file_roundtrip(self, capsys, tmp_path):
        problem, witness = generate_instance("affine", 2, seed=11)
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(instance_to_dict(problem, witness, seed=11)))
        code, out, _ = run(capsys, "solve", "--instance", str(path), "--method", "ap")
        assert code == 0
        assert json.loads(out)["instance"]["kind"] == "affine"

    def test_infeasible_instance_exits_5(self, capsys, tmp_path):
        # boxes pin x = y = 1, so <x, y> = 1 and the cross is unreachable
        doc = {
            "schema": "crossproj/instance/v1",
            "kind": "box",
            "dim": 1,
            "seed": 0,
            "witness": {"x": [1.0], "y": [0.0]},
            "constraint": {
                "lo_x": [1.0], "hi_x": [1.0],
                "lo_y": [1.0], "hi_y": [1.0],
            },
        }
        path = tmp_path / "infeasible.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(
            capsys, "solve", "--instance", str(path), "--max-iter", "50",
        )
        assert code == 5
        summary = json.loads(out)
        assert summary["converged"] is False
        assert summary["final_residual"] > 0.0

    def test_non_finite_iterate_exits_3(self, capsys):
        # the reflection 2*shadow - z overflows from this start
        code, out, err = run(
            capsys, "solve", "--generate", "affine,2,0", "--method", "dr",
            "--start", "1e308,1e308;1e308,-1e308", "--max-iter", "20",
        )
        assert code == 3
        assert out == ""
        assert err.startswith("error: douglas_rachford: iterate became non-finite")
        assert err.count("\n") == 1

    def test_overflowing_shadow_exits_3(self, capsys):
        code, out, err = run(
            capsys, "solve", "--generate", "orthant,3,0", "--method", "dr", "--start",
            "1.57482676e+308,-1.04542625e+308,-1.61249486e+308;"
            "1.34454056e+308,-1.29428747e+308,-2.89663192e+307",
            "--max-iter", "5",
        )
        assert (code, out) == (3, "")
        assert err == "error: douglas_rachford: iterate became non-finite\n"

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d["constraint"].update(lo_x=d["constraint"]["hi_x"],
                                              hi_x=d["constraint"]["lo_x"]),
             "'lo_x' exceeds 'hi_x'"),
            (lambda d: d.update(dim="abc"), "field 'dim' must be an integer >= 1"),
            (lambda d: d.update(dim=2.7), "field 'dim' must be an integer >= 1"),
            (lambda d: d.update(witness=5), "missing field 'witness.x'"),
            (lambda d: d.update(constraint=5), "missing field 'lo_x'"),
            (lambda d: d["witness"]["x"].__setitem__(0, "1.5"),
             "'witness.x[0]' must be a real number"),
            (lambda d: d["witness"]["y"].__setitem__(1, True),
             "'witness.y[1]' must be a real number"),
            (lambda d: d["constraint"]["lo_x"].__setitem__(0, -10**400), "'lo_x[0]' is not finite"),
            (lambda d: d.update(seed="abc"), "field 'seed' must be an integer >= 0"),
            (lambda d: d.update(seed=-1), "field 'seed' must be an integer >= 0"),
            (lambda d: d.update(seed=True), "field 'seed' must be an integer >= 0"),
            (lambda d: d.update(kind="cube"), "not 'cube'"),
            (lambda d: d["witness"].update(x=1.5), "'witness.x' must be an array"),
        ],
        ids=[
            "swapped_bounds", "dim_string", "dim_fraction", "witness_number",
            "constraint_number", "string_coordinate", "bool_coordinate", "int_beyond_float",
            "seed_string", "seed_negative", "seed_bool", "kind_unknown", "vector_not_list",
        ],
    )
    def test_invalid_instance_data_exits_3(self, capsys, tmp_path, edit, message):
        doc = instance_to_dict(*generate_instance("box", 2, seed=0), seed=0)
        edit(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "solve", "--instance", str(path))
        assert (code, out, err.count("\n")) == (3, "", 1)
        assert err.startswith("error: ") and message in err

    def test_bad_generate_seed_is_parse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--generate", "orthant,3,-1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [("--generate", "orthant,3"), ("--generate", "orthant,x,0"),
         ("--generate", "orthant,3,0", "--start", "1,2")],
        ids=["generate_two_fields", "generate_dim_not_int", "start_without_semicolon"],
    )
    def test_bad_generate_or_start_is_parse_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["solve", *argv])
        assert exc.value.code == 2

    @pytest.mark.parametrize("text", ["foo,3,0", " orthant,3,0"], ids=["unknown", "blank"])
    def test_bad_generate_kind_exits_3(self, capsys, text):
        # the kind is passed as typed, for the library's kind rule to refuse
        code, out, err = run(capsys, "solve", "--generate", text)
        assert (code, out) == (3, "")
        kinds = "('orthant', 'affine', 'box')"
        assert err == f"error: instance kind must be one of {kinds}, not {text.split(',')[0]!r}\n"

    @pytest.mark.parametrize("start", ["1,2;3,4", "1,2,3;4,5"], ids=["both_short", "parts_differ"])
    def test_start_of_wrong_dimension_exits_3(self, capsys, start):
        code, out, err = run(capsys, "solve", "--generate", "orthant,3,0", "--start", start)
        assert (code, out, err.count("\n")) == (3, "", 1)
        assert err.startswith("error: ") and "dimension" in err

    def test_requires_exactly_one_source(self, capsys):
        code, _, err = run(capsys, "solve")
        assert code == 2
        code, _, err = run(
            capsys, "solve", "--generate", "orthant,1,0", "--instance", "x.json"
        )
        assert code == 2
