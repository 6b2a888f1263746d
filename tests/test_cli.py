import json
import math

import pytest

from tubeforge import cli
from tubeforge.cli import main
from tubeforge.errors import ConvergenceError
from tubeforge.model import spray_from_dict
from tubeforge.tubeformula import inverse_mellin_numeric, tube_volume_residues

CANTOR_CONFIG = {
    "dimension": 1,
    "ratios": [1 / 3, 1 / 3],
    "generator": {"kappa": [2.0], "inradius": 1 / 6, "volume": 1 / 3},
}


# V_G = 2 eps^2 - eps/2 on (0, 1]: continuous at g = 1, decreasing below 1/8.
NONMONOTONE_CONFIG = {
    "dimension": 2,
    "ratios": [0.5, 0.5, 0.5],
    "generator": {"kappa": [2.0, -0.5], "inradius": 1.0, "volume": 1.5},
}
# The Cantor string with a generator volume that breaks continuity at g.
DISCONTINUOUS_CONFIG = dict(CANTOR_CONFIG,
                            generator={"kappa": [2.0], "inradius": 1 / 6, "volume": 0.5})
# Lattice {1/4, 1/16}: two of its five zeros with |Im| <= 5 lie at Re -0.347.
QUARTER_CONFIG = {
    "dimension": 1,
    "ratios": [0.25, 1 / 16],
    "generator": {"kappa": [2.0], "inradius": 0.25, "volume": 0.5},
}
# Nonlattice {1/2, 1/3}: two of its seven zeros with |Im| <= 20 lie at Re -0.638.
HALF_THIRD_CONFIG = {
    "dimension": 1,
    "ratios": [0.5, 1 / 3],
    "generator": {"kappa": [2.0], "inradius": 0.5, "volume": 1.0},
}


def write_config(tmp_path, name, data):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def cantor_config(tmp_path):
    return write_config(tmp_path, "cantor", CANTOR_CONFIG)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_pass(self, capsys, cantor_config):
        code, out, _ = run(capsys, "validate", cantor_config)
        assert code == 0
        assert out.startswith("PASS")

    def test_fail_exit_2(self, capsys, tmp_path):
        bad = dict(CANTOR_CONFIG, ratios=[0.5, 0.5])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 2
        assert "FAIL" in out

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, "validate", "/nonexistent/x.json")
        assert code == 2
        assert "error:" in err

    def test_skip_monotonicity(self, capsys, tmp_path):
        path = write_config(tmp_path, "nonmonotone", NONMONOTONE_CONFIG)
        code, out, _ = run(capsys, "validate", path)
        assert code == 2
        assert out == ("FAIL: tube polynomial is decreasing inside (0, g], first bad "
                       "sample eps = 0.000244140625\n")
        code, out, _ = run(capsys, "validate", path, "--skip-monotonicity")
        assert code == 0
        assert out.startswith("PASS")


class TestSkipFlags:
    """A model command refuses an invalid spray unless its check is skipped."""

    def test_skip_monotonicity(self, capsys, tmp_path):
        path = write_config(tmp_path, "nonmonotone", NONMONOTONE_CONFIG)
        code, out, err = run(capsys, "dim", path)
        assert code == 2 and out == ""
        assert "tube polynomial is decreasing" in err
        code, out, _ = run(capsys, "dim", path, "--skip-monotonicity")
        assert code == 0
        assert float(out.split()[1]) == pytest.approx(math.log2(3), abs=1e-12)

    def test_skip_validation(self, capsys, tmp_path):
        path = write_config(tmp_path, "discontinuous", DISCONTINUOUS_CONFIG)
        for flags in ((), ("--skip-monotonicity",)):
            code, out, err = run(capsys, "tube", path, "--eps", "0.1", "--method", "direct",
                                 *flags)
            assert code == 2 and out == ""
            assert "continuity at the inradius violated" in err
        code, out, _ = run(capsys, "tube", path, "--eps", "0.1", "--method", "direct",
                           "--skip-validation")
        assert code == 0
        assert out.startswith("direct ")


class TestDim:
    def test_prints_dimension(self, capsys, cantor_config):
        code, out, _ = run(capsys, "dim", cantor_config)
        assert code == 0
        lines = out.splitlines()
        assert float(lines[0].split()[1]) == pytest.approx(
            math.log(2) / math.log(3), abs=1e-12
        )
        assert lines[1].startswith("residual ")


class TestCzeros:
    def test_json_output(self, capsys, cantor_config):
        code, out, _ = run(capsys, "czeros", cantor_config, "--T", "12")
        assert code == 0
        records = json.loads(out)
        assert len(records) == 5
        assert all(rec["residual"] < 1e-10 for rec in records)
        ims = [rec["im"] for rec in records]
        assert ims == sorted(ims)

    @pytest.mark.parametrize("config, window, count, kept", [
        (QUARTER_CONFIG, "5", 5, 3),
        (HALF_THIRD_CONFIG, "20", 7, 5),
    ])
    def test_re_floor(self, capsys, tmp_path, config, window, count, kept):
        path = write_config(tmp_path, "spray", config)
        code, out, _ = run(capsys, "czeros", path, "--T", window)
        assert code == 0
        everything = json.loads(out)
        code, out, _ = run(capsys, "czeros", path, "--T", window, "--re-floor", "0")
        assert code == 0
        records = json.loads(out)
        assert len(records) == kept < count == len(everything)
        assert all(rec["re"] >= 0.0 and rec["residual"] < 1e-10 for rec in records)
        expected = [rec for rec in everything if rec["re"] >= 0.0]
        for rec, want in zip(records, expected):
            assert rec["re"] == pytest.approx(want["re"], abs=1e-12)
            assert rec["im"] == pytest.approx(want["im"], abs=1e-12)

    def test_re_floor_right_of_the_window_exit_2(self, capsys, tmp_path):
        path = write_config(tmp_path, "spray", HALF_THIRD_CONFIG)
        code, _, err = run(capsys, "czeros", path, "--T", "20", "--re-floor", "2")
        assert code == 2
        assert "right of D + 1/2" in err

    def test_output_file(self, capsys, cantor_config, tmp_path):
        dest = tmp_path / "zeros.json"
        code, out, _ = run(capsys, "czeros", cantor_config, "--T", "12",
                           "-o", str(dest))
        assert code == 0 and out == ""
        assert len(json.loads(dest.read_text())) == 5


class TestTube:
    def test_direct(self, capsys, cantor_config):
        code, out, _ = run(capsys, "tube", cantor_config, "--eps", "0.1",
                           "--method", "direct")
        assert code == 0
        assert float(out.split()[1]) == pytest.approx(13 / 15, rel=1e-12)

    def test_both(self, capsys, cantor_config):
        code, out, _ = run(capsys, "tube", cantor_config, "--eps", "0.1",
                           "--method", "both", "--pairs", "500")
        assert code == 0
        values = dict(line.split() for line in out.splitlines())
        assert float(values["direct"]) == pytest.approx(13 / 15, rel=1e-12)
        assert abs(float(values["residues"]) - 13 / 15) < 1e-3
        assert float(values["abs_err"]) < 1e-3

    def test_invmellin(self, capsys, cantor_config):
        code, out, _ = run(capsys, "tube", cantor_config, "--eps", "0.1",
                           "--method", "invmellin")
        assert code == 0
        assert abs(float(out.split()[1]) - 13 / 15) < 1e-2

    def test_residues_window(self, capsys, cantor_config):
        # Five pairs need |Im| <= 5 * 2pi/ln 3 = 28.6.
        code, out, _ = run(capsys, "tube", cantor_config, "--eps", "0.1",
                           "--method", "residues", "--pairs", "5", "--T", "30")
        assert code == 0
        model = spray_from_dict(CANTOR_CONFIG)
        want = tube_volume_residues(model, 0.1, 5, 30.0).residue_value
        assert out == f"residues {want:.17g}\n"
        code, _, err = run(capsys, "tube", cantor_config, "--eps", "0.1",
                           "--method", "residues", "--pairs", "5", "--T", "20")
        assert code == 2
        assert "5 conjugate pairs requested but only 3" in err

    def test_invmellin_half_length_and_abscissa(self, capsys, cantor_config):
        model = spray_from_dict(CANTOR_CONFIG)
        for flags, kwargs in ((("--T", "100"), {"half_length": 100.0}),
                              (("--c", "0.8"), {"c": 0.8}),
                              (("--T", "100", "--c", "0.9"), {"half_length": 100.0, "c": 0.9})):
            code, out, _ = run(capsys, "tube", cantor_config, "--eps", "0.1",
                               "--method", "invmellin", *flags)
            assert code == 0
            want = inverse_mellin_numeric(model, 0.1, **kwargs)
            assert out == f"invmellin {want:.17g}\n"
            assert abs(want - 13 / 15) < 1e-2

    @pytest.mark.parametrize("c", ["0.5", "1.0", "1.5"])
    def test_abscissa_outside_the_strip_exit_2(self, capsys, cantor_config, c):
        code, out, err = run(capsys, "tube", cantor_config, "--eps", "0.1",
                             "--method", "invmellin", "--c", c)
        assert code == 2 and out == ""
        assert "outside the strip" in err

    def test_eps_beyond_inradius_exit_2(self, capsys, cantor_config):
        code, _, err = run(capsys, "tube", cantor_config, "--eps", "0.2",
                           "--method", "residues")
        assert code == 2
        assert "eps < g" in err


class TestScan:
    def test_csv_format(self, capsys, cantor_config):
        code, out, _ = run(capsys, "scan", cantor_config,
                           "--grid", "0.01:0.15:4:log", "--pairs", "50")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# tubeforge-csv v1"
        assert lines[1].split(",") == [
            "epsilon", "direct", "residues", "abs_err", "rel_err",
            "pairs_used", "im_leakage",
        ]
        assert len(lines) == 6
        first = lines[2].split(",")
        # 17 significant digits round-trip
        assert float(first[0]) == 0.01
        assert float(first[1]) > 0

    def test_json_format(self, capsys, cantor_config):
        code, out, _ = run(capsys, "scan", cantor_config,
                           "--grid", "0.02:0.3:3", "--pairs", "20",
                           "--format", "json")
        assert code == 0
        records = json.loads(out.replace("NaN", "null"))
        assert len(records) == 3
        # the entry beyond the inradius carries its error, run continued
        assert records[-1]["error"] != ""

    def test_bad_grid_exit_2(self, capsys, cantor_config):
        code, _, err = run(capsys, "scan", cantor_config, "--grid", "0:1:5")
        assert code == 2
        assert "error:" in err


class TestDeterminism:
    def test_byte_identical_output(self, capsys, cantor_config):
        outputs = []
        for _ in range(2):
            _, out, _ = run(capsys, "scan", cantor_config,
                            "--grid", "0.01:0.15:6:log", "--pairs", "100")
            outputs.append(out)
        assert outputs[0] == outputs[1]


class TestSelftest:
    def test_one_line_per_row_then_summary(self, capsys):
        code, out, _ = run(capsys, "selftest")
        assert code == 0
        rows = cli.acceptance_checks()
        lines = out.splitlines()
        assert len(lines) == len(rows) + 1
        for line, (number, label, _) in zip(lines, rows):
            assert line.startswith(f"PASS {number:2d} {label}: ")
        assert lines[-1] == f"selftest: {len(rows)}/{len(rows)} passed"

    def test_failed_and_raising_rows_fail(self, capsys, monkeypatch):
        real = cli.acceptance_checks

        def boom():
            raise ConvergenceError("no zero")

        def patched():
            replace = {7: boom, 8: lambda: (False, "off by a lot")}
            return [(n, label, replace.get(n, check)) for n, label, check in real()]

        monkeypatch.setattr(cli, "acceptance_checks", patched)
        code, out, _ = run(capsys, "selftest")
        assert code == 1
        lines = out.splitlines()
        assert lines[5] == "FAIL  7 residue agreement (Cantor): error: no zero"
        assert lines[6] == "FAIL  8 residue agreement (nonlattice square): off by a lot"
        assert [line[:4] for line in lines[:-1]] == ["PASS"] * 5 + ["FAIL"] * 2 + ["PASS"]
        assert lines[-1] == "selftest: 6/8 passed"
