"""Command-line contract: formats, determinism, exit codes."""
import json
import math

import pytest

from anharmonic import cli


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSpectrum:
    def test_quadratic_well_table(self, capsys):
        code, out, _ = run(["spectrum", "--alpha", "1", "--ell", "0",
                            "--n-max", "4", "--method", "all"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        got = [r["e_exact"] for r in doc["rows"]]
        want = [3.0, 7.0, 11.0, 15.0, 19.0]
        assert all(abs(g / w - 1.0) < 1e-7 for g, w in zip(got, want))

    def test_csv_shape(self, capsys):
        code, out, _ = run(["spectrum", "--alpha", "1", "--ell", "0",
                            "--n-max", "2", "--method", "bs", "--format", "csv"],
                           capsys)
        assert code == 0
        assert out.startswith("n,e_exact,e_bs,e_asym,rel_dev_bs,rel_dev_asym\r\n")
        lines = out.split("\r\n")
        assert len(lines) == 5  # header + 3 rows + trailing newline
        assert lines[1].split(",")[0] == "0"

    def test_single_method_leaves_other_columns_empty(self, capsys):
        code, out, _ = run(["spectrum", "--alpha", "1", "--ell", "0",
                            "--n-max", "1", "--method", "asym"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["rows"][0]["e_exact"] is None
        assert doc["rows"][0]["e_asym"] is not None


class TestWkb:
    def test_action_value(self, capsys):
        code, out, _ = run(["wkb", "--alpha", "1", "--kind", "I",
                            "--energy", "5", "--ell", "0"], capsys)
        assert code == 0
        assert abs(json.loads(out)["value"] - 1.0) < 1e-10

    def test_blown_up_integrals(self, capsys):
        code, out, _ = run(["wkb", "--alpha", "1", "--kind", "J1", "--u", "0"],
                           capsys)
        assert abs(json.loads(out)["value"] - 0.25) < 1e-12
        code, out, _ = run(["wkb", "--alpha", "1", "--kind", "J2", "--nu", "2"],
                           capsys)
        assert abs(json.loads(out)["value"]) < 1e-10

    def test_missing_argument_is_usage_error(self, capsys):
        code, _, err = run(["wkb", "--alpha", "1", "--kind", "I"], capsys)
        assert code == 64
        assert "usage error" in err


class TestStokes:
    def test_graph_topology(self, capsys):
        code, out, _ = run(["stokes", "--alpha", "1", "--ell", "0.5",
                            "--energy", "2", "--no-polylines"], capsys)
        assert code == 0
        doc = json.loads(out)
        labels = sorted(v["label"] for v in doc["vertices"])
        assert labels == ["0", "inf_-1/2", "inf_-3/2", "inf_1/2", "inf_3/2",
                          "tp0", "tp1"]
        pairs = sorted("|".join(sorted((e["source"], e["target"])))
                       for e in doc["edges"])
        assert pairs.count("tp0|tp1") == 2

    def test_csv_polylines(self, capsys):
        code, out, _ = run(["stokes", "--alpha", "1", "--ell", "0.5",
                            "--energy", "4", "--format", "csv"], capsys)
        assert code == 0
        head, first = out.split("\r\n")[:2]
        assert head == "edge_index,source,target,point_index,re_x,im_x,arg_x"
        assert first.split(",")[3] == "0"

    def test_byte_identical_reruns(self, tmp_path, capsys):
        files = []
        for name in ("a.json", "b.json"):
            target = tmp_path / name
            code, _, _ = run(["stokes", "--alpha", "1", "--ell", "0.5",
                              "--energy", "1", "--out", str(target)], capsys)
            assert code == 0
            files.append(target.read_bytes())
        assert files[0] == files[1]


class TestVerify:
    def test_quick_profile(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, _, err = run(["verify", "--profile", "quick", "--out", str(target)],
                           capsys)
        assert code == 0
        doc = json.loads(target.read_text())
        assert doc["schema_version"] == 1
        assert doc["profile"] == "quick"
        assert doc["passed"] is True
        assert all(c["passed"] for c in doc["checks"])
        for c in doc["checks"]:
            assert set(c) == {"name", "criterion", "passed", "measured",
                              "bound", "detail"}
        # progress and status live on stderr, never in the artifact
        assert "running" in err
        text = target.read_text().lower()
        assert "time" not in text and "date" not in text

        code, out, _ = run(["verify", "--profile", "quick", "--format", "csv"], capsys)
        assert code == 0
        lines = out.split("\r\n")
        assert lines[0] == "criterion,name,passed,measured,bound"
        assert lines[-1] == "" and len(lines) == 7  # header + 5 checks + trailing newline
        rows = [line.split(",") for line in lines[1:-1]]
        assert [(int(r[0]), r[1], r[2]) for r in rows] == [
            (c["criterion"], c["name"], "true") for c in doc["checks"]]


class TestExitCodes:
    def test_unknown_command(self, capsys):
        assert run(["frobnicate"], capsys)[0] == 64

    def test_missing_required_flag(self, capsys):
        assert run(["spectrum", "--alpha", "1"], capsys)[0] == 64

    def test_domain_validation(self, capsys):
        code, _, err = run(["spectrum", "--alpha", "-3", "--ell", "0",
                            "--n-max", "2"], capsys)
        assert code == 64
        code, _, err = run(["spectrum", "--alpha", "1", "--ell", "-0.8",
                            "--n-max", "2"], capsys)
        assert code == 64

    @pytest.mark.parametrize("argv", [
        ["verify", "--rel-tol", "1e-9"],
        ["verify", "--abs-tol", "1e-12"],
        ["stokes", "--alpha", "1", "--ell", "0.5", "--energy", "2", "--rel-tol", "1e-9"],
        ["stokes", "--alpha", "1", "--ell", "0.5", "--energy", "2", "--abs-tol", "1e-12"],
        ["wkb", "--alpha", "1", "--kind", "J1", "--u", "0", "--rel-tol", "1e-9"],
        ["wkb", "--alpha", "1", "--kind", "J1", "--u", "0", "--format", "csv"],
        ["spectrum", "--alpha", "1", "--ell", "0", "--n-max", "0", "--abs-tol", "1e-12"],
    ], ids=lambda argv: "%s %s" % (argv[0], argv[-2]))
    def test_flag_the_subcommand_does_not_read(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == 64
        assert "usage error" in err and argv[-2] in err
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--ell", "0", "--n-max", "0", "--alpha", "nan"],
        ["spectrum", "--alpha", "1", "--n-max", "0", "--ell", "inf"],
        ["spectrum", "--alpha", "1", "--ell", "0", "--n-max", "0", "--rel-tol", "0"],
        ["spectrum", "--alpha", "1", "--ell", "0", "--n-max", "0", "--rel-tol", "-1"],
        ["spectrum", "--alpha", "1", "--ell", "0", "--n-max", "0", "--rel-tol", "nan"],
        ["wkb", "--kind", "I", "--energy", "3", "--ell", "0", "--alpha", "nan"],
        ["wkb", "--alpha", "1", "--kind", "I", "--ell", "0", "--energy", "inf"],
        ["wkb", "--alpha", "1", "--kind", "I", "--energy", "3", "--ell", "nan"],
        ["wkb", "--alpha", "1", "--kind", "J1", "--u", "-1"],
        ["wkb", "--alpha", "1", "--kind", "J1", "--u", "nan"],
        ["wkb", "--alpha", "1", "--kind", "J2", "--nu", "inf"],
        ["wkb", "--alpha", "1", "--kind", "J1", "--u", "0", "--abs-tol", "-1"],
        ["wkb", "--alpha", "1", "--kind", "J1", "--u", "0", "--abs-tol", "nan"],
        ["stokes", "--ell", "0.5", "--energy", "2", "--alpha", "inf"],
        ["stokes", "--alpha", "1", "--energy", "2", "--ell", "nan"],
        ["stokes", "--alpha", "1", "--ell", "0.5", "--energy", "nan"],
        ["stokes", "--alpha", "1", "--ell", "0.5", "--energy", "2", "--theta", "nan"],
        ["stokes", "--alpha", "1", "--ell", "0.5", "--energy", "2", "--window", "0", "nan"],
        ["stokes", "--alpha", "1", "--ell", "0.5", "--energy", "5", "--window", "1", "-1"],
        ["spectrum", "--alpha", "1", "--ell", "0", "--n-max", "-1"],
        ["wkb", "--alpha", "1", "--kind", "J1"],
        ["wkb", "--alpha", "1", "--kind", "J2"],
    ], ids=lambda argv: " ".join(argv[0:1] + argv[-2:]))
    def test_bad_flag_value_is_a_usage_error(self, argv, capsys):
        code, out, err = run(argv, capsys)
        flag = next(a for a in reversed(argv) if a.startswith("--"))
        assert code == 64
        assert "usage error" in err and flag in err
        assert out == ""

    def test_numerical_failure(self, capsys):
        # the well's turning points at E = 1e300 defeat the root finder
        code, _, err = run(["wkb", "--alpha", "1", "--kind", "I", "--energy", "1e300",
                            "--ell", "0"], capsys)
        assert code == 2
        assert err.startswith("numerical failure: turning points (alpha=1, ell=0, E=1e+300): "
                              "Brent's method did not converge in 100 iterations")

    def test_large_ell_spectrum(self, capsys):
        code, out, _ = run(["spectrum", "--alpha", "1", "--ell", "300",
                            "--n-max", "0", "--method", "exact"], capsys)
        assert code == 0
        assert abs(json.loads(out)["rows"][0]["e_exact"] / 603.0 - 1.0) < 1e-7


class TestSerialization:
    def test_float_digits(self):
        text = cli.dumps_json({"x": 1.0 / 3.0})
        assert "0.33333333333333331" in text

    def test_csv_digits_and_quoting(self):
        text = cli._csv_text(["a", "b"], [[1.0 / 3.0, 'say "hi"']])
        assert "0.333333333333333" in text
        assert '"say ""hi"""' in text

    def test_non_finite_floats_are_strings(self):
        assert json.loads(cli.dumps_json({"x": math.inf}))["x"] == "inf"

    def test_verify_report_survives_numpy_results(self, monkeypatch):
        # comparisons on numpy scalars yield np.bool_, which is not a bool
        # subclass; run_checks must normalise before the strict serializer
        import numpy as np

        from anharmonic import checks

        def fake_check():
            return checks.CheckResult(
                name="fake",
                criterion=0,
                passed=np.bool_(True),
                measured=np.float64(1.5),
                bound=np.float64(2.0),
                detail="synthetic",
            )

        monkeypatch.setattr(checks, "QUICK_CHECKS", (fake_check,))
        doc = checks.report_dict(checks.run_checks("quick"), "quick", "0")
        text = cli.dumps_json(doc)
        parsed = json.loads(text)
        assert parsed["passed"] is True
        assert parsed["checks"][0]["measured"] == 1.5
