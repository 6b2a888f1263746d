import json
import math
import warnings

import pytest

from tubeforge import cli, complexdims, direct, tubeformula
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
# Lattice 0.16 = 0.4^2, 0.064 = 0.4^3: 1 - 3z^2 - 2z^3 = -(z + 1)^2 (2z - 1), so
# the zeros above z = -1 are double and the list has 2/3 as many distinct
# zeros as zeros counted with multiplicity.
REPEATED_ROOT_CONFIG = {
    "dimension": 1,
    "ratios": [0.16, 0.16, 0.16, 0.064, 0.064],
    "generator": {"kappa": [2.0], "inradius": 0.25, "volume": 0.5},
}

TRIPLE_ROOT_CONFIG = dict(REPEATED_ROOT_CONFIG,
                          ratios=[0.09] * 6 + [0.027] * 8 + [0.0081] * 3)


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

    def test_dimension_far_above_one_fails_without_a_traceback(self, capsys, tmp_path):
        """D = ln 2 / -ln 0.999999 ~ 6.9e5: Moran's bracket doubles past 1e6."""
        path = write_config(tmp_path, "slow", dict(CANTOR_CONFIG, ratios=[0.999999] * 2))
        code, out, err = run(capsys, "validate", path)
        assert (code, err) == (2, "")
        assert out == ("FAIL: sum of ratios^n = 1.999998 >= 1, total volume infinite\n"
                       "FAIL: similarity dimension D = 693146.8339663653 outside (0, 1)\n")
        code, out, err = run(capsys, "dim", path)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "693146.8339663653" in err

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

    def test_output_file(self, capsys, cantor_config, tmp_path):
        _, printed, _ = run(capsys, "dim", cantor_config)
        dest = tmp_path / "dim.txt"
        code, out, err = run(capsys, "dim", cantor_config, "-o", str(dest))
        assert (code, out, err) == (0, "", "")
        assert dest.read_text() == printed


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

    def test_negative_re_floor_in_exponent_form(self, capsys, tmp_path):
        path = write_config(tmp_path, "spray", HALF_THIRD_CONFIG)
        code, out, err = run(capsys, "czeros", path, "--T", "20", "--re-floor", "-1e-3")
        assert (code, err) == (0, "")
        assert run(capsys, "czeros", path, "--T", "20", "--re-floor=-0.001")[1] == out
        assert len(json.loads(out)) == 5

    @pytest.mark.parametrize("re_floor, code, count", [
        ("-640", 0, 7),
        ("-650", 2, None),
        ("-800", 2, None),
    ])
    def test_far_left_re_floor(self, capsys, tmp_path, re_floor, code, count):
        path = write_config(tmp_path, "spray", HALF_THIRD_CONFIG)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, out, err = run(capsys, "czeros", path, "--T", "20", "--re-floor", re_floor)
        assert got == code
        if count is None:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1
            assert "r_min^re_floor" in err and "overflows" in err
        else:
            assert err == "" and len(json.loads(out)) == count

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

    def test_residues_runs_no_direct_oracle(self, capsys, monkeypatch, cantor_config):
        model = spray_from_dict(CANTOR_CONFIG)
        want = tube_volume_residues(model, 0.1, 5, 30.0).residue_value

        def refused(*_):
            raise AssertionError("tube --method residues enumerated exponent vectors")

        monkeypatch.setattr(direct, "factor_multiplicities", refused)
        code, out, err = run(capsys, "tube", cantor_config, "--eps", "0.1",
                             "--method", "residues", "--pairs", "5", "--T", "30")
        assert (code, out, err) == (0, f"residues {want:.17g}\n", "")

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


class TestRepeatedRootDefaultWindow:
    """The default window holds ``--pairs`` distinct conjugate pairs when
    half of the zeros are double."""

    @pytest.mark.parametrize("pairs", [5, 10, 50, 200])
    def test_tube_and_scan(self, capsys, tmp_path, pairs):
        path = write_config(tmp_path, "repeated", REPEATED_ROOT_CONFIG)
        code, out, err = run(capsys, "tube", path, "--eps", "0.05", "--method", "both",
                             "--pairs", str(pairs))
        assert (code, err) == (0, "")
        assert float(out.splitlines()[-1].split()[1]) < 1e-2  # rel_err
        code, out, err = run(capsys, "scan", path, "--grid", "0.01:0.2:3:log",
                             "--pairs", str(pairs), "--format", "json")
        assert (code, err) == (0, "")
        assert [rec["pairs_used"] for rec in json.loads(out)] == [pairs] * 3


class TestTripleRoot:
    """1 - 6z^2 - 8z^3 - 3z^4 = (1 - 3z)(1 + z)^3: the zeros above z = -1
    are triple, and their residues are polynomials of degree 2 in ln eps."""

    def test_czeros_and_tube(self, capsys, tmp_path):
        path = write_config(tmp_path, "triple", TRIPLE_ROOT_CONFIG)
        code, out, err = run(capsys, "czeros", path, "--T", "20")
        assert (code, err) == (0, "")
        assert sorted({rec["multiplicity"] for rec in json.loads(out)}) == [1, 3]
        code, out, err = run(capsys, "tube", path, "--eps", "0.05", "--method", "both",
                             "--pairs", "20")
        assert (code, err) == (0, "")
        assert float(out.splitlines()[-1].split()[1]) < 1e-3  # rel_err


CONFIGS = {"cantor": CANTOR_CONFIG, "half_third": HALF_THIRD_CONFIG}


class TestFailuresExitWithTheirCode:
    """Each failing invocation exits 2, 3 or 4 with one ``error:`` line on
    stderr and nothing on stdout; none raises out of ``main``."""

    @pytest.mark.parametrize("spray, argv, code, fragment", [
        ("cantor", "czeros {cfg} --T inf", 2, "imaginary window"),
        ("half_third", "czeros {cfg} --T inf", 2, "imaginary window"),
        ("half_third", "tube {cfg} --eps 0.1 --method residues --T inf", 2,
         "imaginary window"),
        ("cantor", "czeros {cfg} --T 12 --re-floor nan", 2, "re_floor"),
        ("half_third", "czeros {cfg} --T 20 --re-floor nan", 2, "re_floor"),
        ("cantor", "czeros {cfg} --T 1e7", 4, "zeros"),
        ("half_third", "czeros {cfg} --T 1e300", 4, "zeros"),
        ("cantor", "tube {cfg} --eps 0.1 --method invmellin --T inf", 2, "half_length"),
        ("cantor", "tube {cfg} --eps inf --method invmellin", 2, "0 < eps < inf"),
        ("cantor", "scan {cfg} --grid 0.1:inf:3", 2, "grid"),
        ("cantor", "scan {cfg} --grid 0.01:0.1:3 --T inf", 2, "imaginary window"),
        ("cantor", "scan {cfg} --grid 0.01:0.1:2 --pairs 1000 --T 10", 2,
         "conjugate pairs requested"),
        ("cantor", "tube {cfg} --eps 0.1 --method residues --pairs 1000000000", 4, "zeros"),
        ("cantor", "tube {cfg} --eps 0.1 --method direct -o {tmp}/missing/out.txt", 2,
         "cannot write"),
        ("cantor", "czeros {cfg} --T 12 -o {tmp}", 2, "cannot write"),
    ])
    def test_exit_code(self, capsys, tmp_path, spray, argv, code, fragment):
        cfg = write_config(tmp_path, spray, CONFIGS[spray])
        got, out, err = run(capsys, *argv.format(cfg=cfg, tmp=tmp_path).split())
        assert (got, out) == (code, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert fragment in err and "Traceback" not in err

    def test_invmellin_without_agreement_exits_3(self, capsys, monkeypatch, cantor_config):
        monkeypatch.setattr(tubeformula, "_INVMELLIN_ATOL", 0.0)
        monkeypatch.setattr(tubeformula, "_INVMELLIN_RTOL", 0.0)
        monkeypatch.setattr(tubeformula, "_INVMELLIN_DOUBLINGS", 1)
        code, out, err = run(capsys, "tube", cantor_config, "--eps", "0.1",
                             "--method", "invmellin")
        assert (code, out) == (3, "")
        assert err.startswith("error: inverse Mellin trapezoid")

    def test_unpolished_zero_exits_3(self, capsys, monkeypatch, tmp_path):
        # [0.5, 0.25 (1 + 3e-9)] passes the lattice test within its 1e-9
        # match, so its lifts at T = 5000 are off the true zeros by up to
        # |f| ~ 1.8e-5; with no Newton polish they fail the check |f| <= 2E.
        def no_polish(ratios, seed, rect=None):
            raise ConvergenceError("no polish")

        monkeypatch.setattr(complexdims, "refine_zero", no_polish)
        path = write_config(tmp_path, "spray",
                            dict(CANTOR_CONFIG, ratios=[0.5, 0.25 * (1 + 3e-9)]))
        code, out, err = run(capsys, "czeros", path, "--T", "5000")
        assert (code, out) == (3, "")
        assert err.startswith("error: zero ") and err.count("\n") == 1
        assert "exceeds twice its rounding bound" in err


class TestDeterminism:
    def test_byte_identical_output(self, capsys, cantor_config):
        outputs = []
        for _ in range(2):
            _, out, _ = run(capsys, "scan", cantor_config,
                            "--grid", "0.01:0.15:6:log", "--pairs", "100")
            outputs.append(out)
        assert outputs[0] == outputs[1]


class TestSharedParser:
    def test_calls_in_one_process_match_a_fresh_parser(self, capsys, monkeypatch,
                                                      cantor_config, tmp_path):
        assert cli.build_parser() is cli.build_parser()
        monkeypatch.setattr(cli, "acceptance_checks",
                            lambda: [(1, "stub", lambda: (False, "patched"))])
        written = tmp_path / "tube.txt"
        sequence = [
            ["czeros", cantor_config, "--T", "10"],
            ["tube", cantor_config, "--eps", "0.01"],  # no --method: argparse exits 2
            ["tube", cantor_config, "--eps", "0.01", "--method", "direct", "-o", str(written)],
            ["scan", cantor_config, "--grid", "0.02:0.3:3", "--pairs", "5", "--format", "json"],
            ["selftest"],
        ]

        def run_sequence(fresh):
            results = []
            for argv in sequence:
                if fresh:
                    cli.build_parser.cache_clear()
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
                out, err = capsys.readouterr()
                text = written.read_text() if written.exists() else None
                written.unlink(missing_ok=True)
                results.append((code, out, err, text))
            return results

        fresh = run_sequence(fresh=True)
        assert [r[0] for r in fresh] == [0, 2, 0, 0, 1]
        assert fresh[2][3].startswith("direct ")
        assert fresh[4][1] == "FAIL  1 stub: patched\nselftest: 0/1 passed\n"
        assert run_sequence(fresh=False) == fresh
        assert run_sequence(fresh=False) == fresh


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
