import json
import math

import pytest

from tubeforge import cli
from tubeforge.cli import main
from tubeforge.errors import ConvergenceError

CANTOR_CONFIG = {
    "dimension": 1,
    "ratios": [1 / 3, 1 / 3],
    "generator": {"kappa": [2.0], "inradius": 1 / 6, "volume": 1 / 3},
}


@pytest.fixture
def cantor_config(tmp_path):
    path = tmp_path / "cantor.json"
    path.write_text(json.dumps(CANTOR_CONFIG))
    return str(path)


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
