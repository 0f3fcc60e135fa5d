import json

import numpy as np
import pytest

from rieszlag.cli import main


def run(args):
    return main(args)


class TestIdentities:
    def test_exit_zero_and_json(self, tmp_path):
        out = tmp_path / "id.json"
        assert run(["identities", "--jmax", "5", "--jmax-n1", "4",
                    "--nmax", "4", "--qmax", "4", "--out", str(out)]) == 0
        entries = json.loads(out.read_text())
        assert entries and all(e["status"] == "exact-pass" for e in entries)
        assert {"identity", "parameters", "status", "witness"} <= set(entries[0])


class TestKernelTable:
    def test_csv_header_and_rows(self, tmp_path):
        out = tmp_path / "kt.csv"
        assert run(["kernel-table", "--family", "laguerre-heat", "--t", "0.5",
                    "--alpha", "0.5", "--x", "1.0,2.0", "--y", "0.7",
                    "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "family,k,l,alpha,t_or_gamma,x,y,value,est_err"
        assert len(lines) == 3

    def test_diagonal_riesz_rejected(self, tmp_path):
        rc = run(["kernel-table", "--family", "laguerre-riesz", "--k", "1",
                  "--alpha", "0.5", "--x", "1.0", "--y", "1.0",
                  "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_json_format(self, tmp_path):
        out = tmp_path / "kt.json"
        assert run(["kernel-table", "--family", "hermite-frac", "--gamma",
                    "2.0", "--x", "0.5", "--y", "1.5", "--format", "json",
                    "--out", str(out)]) == 0
        rows = json.loads(out.read_text())
        assert rows[0]["family"] == "hermite-frac"


class TestRiesz:
    def test_hermite_bump_abs_diff(self, tmp_path):
        out = tmp_path / "r.csv"
        rc = run(["riesz", "--family", "hermite", "--k", "2", "--alpha",
                  "ignored", "--points", "3", "--out", str(out),
                  "--max-abs-diff", "1e-3"])
        assert rc == 0
        data = np.genfromtxt(out, delimiter=",", names=True)
        assert float(np.max(data["abs_diff"])) < 1e-3

    def test_failure_exit_code(self, tmp_path):
        rc = run(["riesz", "--family", "hermite", "--k", "1", "--points",
                  "2", "--stages", "6", "--out", str(tmp_path / "r.csv"),
                  "--max-abs-diff", "1e-12"])
        assert rc == 1


class TestScans:
    def test_scan_bounds(self, tmp_path):
        out = tmp_path / "sb.json"
        assert run(["scan-bounds", "--statement", "prop33-i", "--k", "1",
                    "--alpha", "0.5", "--nx", "4", "--ny", "3",
                    "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["stable"] is True

    def test_lp_scan_and_determinism(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["lp-scan", "--k", "1", "--alpha", "0.0", "--p", "2.0",
                "--delta", "0.0", "--family-size", "3", "--seed", "5"]
        assert run(args + ["--out", str(a), "--threads", "1"]) == 0
        assert run(args + ["--out", str(b), "--threads", "3"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_phi_limit(self, tmp_path):
        out = tmp_path / "phi.json"
        assert run(["phi-limit", "--k", "2", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert abs(rep["extrapolated"] - rep["closed_form"]) < 1e-4


class TestBasisDump:
    def test_samples(self, tmp_path):
        out = tmp_path / "b.csv"
        assert run(["basis", "--family", "laguerre", "--alpha", "0.5",
                    "--n", "3", "--points", "50", "--xmax", "6",
                    "--out", str(out)]) == 0
        data = np.genfromtxt(out, delimiter=",", names=True)
        assert len(data["x"]) == 50

    def test_coeffs(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run(["basis", "--family", "hermite", "--n", "12", "--mode",
                    "coeffs", "--out", str(out)]) == 0
        data = np.genfromtxt(out, delimiter=",", names=True)
        assert len(data["n"]) == 13


class TestInputCSV:
    def test_riesz_from_sampled_input(self, tmp_path):
        from rieszlag import operators as op
        f = op.bump(0.0, 1.0)
        xs = np.linspace(-1.0, 1.0, 251)
        src = tmp_path / "f.csv"
        src.write_text("x,f\n" + "\n".join(
            f"{float(x)!r},{float(f(x))!r}" for x in xs) + "\n")
        out = tmp_path / "r.csv"
        rc = run(["riesz", "--family", "hermite", "--k", "1", "--points",
                  "2", "--input-csv", str(src), "--out", str(out),
                  "--max-abs-diff", "5e-3"])
        assert rc == 0

    @pytest.mark.parametrize("body", [
        "",
        "x,f\n0.5,1.0\n",
        "x,f\n-1.0,0.0\n0.0,nan\n1.0,0.0\n",
        "x,f\n-1.0,0.0\n0.0,1.0\n0.0,0.5\n1.0,0.0\n",
    ], ids=["empty", "one-row", "non-finite", "repeated-x"])
    def test_bad_input_rejected(self, tmp_path, body, capsys):
        src = tmp_path / "bad.csv"
        src.write_text(body)
        rc = run(["riesz", "--family", "hermite", "--k", "1", "--input-csv",
                  str(src), "--out", str(tmp_path / "r.csv")])
        assert rc == 2
        assert str(src) in capsys.readouterr().err


class TestRemovedFlags:
    @pytest.mark.parametrize("argv", [
        ["riesz", "--family", "hermite", "--k", "1", "--seed", "1"],
        ["basis", "--family", "hermite", "--threads", "2"],
    ])
    def test_rejected_by_argparse(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
