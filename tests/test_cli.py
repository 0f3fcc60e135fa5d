import argparse
import ctypes
import json
import math
import os
import subprocess
import sys
import textwrap
import threading
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from rieszlag import basis, cli, kernels, verify
from rieszlag.cli import _build_parser, main

SRC = str(Path(__file__).resolve().parents[1] / "src")


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

    def test_failure_exits_one_with_witness(self, tmp_path, capsys,
                                            wrong_e51):
        assert run(["identities", "--jmax", "0", "--jmax-n1", "0",
                    "--nmax", "5", "--qmax", "8",
                    "--out", str(tmp_path / "id.json")]) == 1
        witness = json.loads(capsys.readouterr().err)["assertion-failure"]
        assert witness["check"] == "exact identities"
        assert [(e["parameters"], e["witness"]) for e in witness["failures"]] \
            == [({"N": 5, "q": q}, str(Fraction(math.perm(q, 4), 3)))
                for q in range(4, 9)]

    def test_empty_report_rejected(self, tmp_path, capsys):
        # a report that checks nothing must not pass
        assert run(["identities", "--jmax", "0", "--jmax-n1", "0",
                    "--nmax", "-1", "--qmax", "3",
                    "--out", str(tmp_path / "id.json")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "invalid input: the identity report has no entries"]


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

    def test_laguerre_riesz_at_tiny_x(self, tmp_path):
        # at x = 1e-30 the kernel, about 5.09e-3 x^2, is printed with exit 0
        # and no warning
        out = tmp_path / "kt.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["kernel-table", "--family", "laguerre-riesz", "--k",
                        "1", "--alpha", "0.5", "--x", "1e-30", "--y", "3",
                        "--out", str(out)]) == 0
        row = out.read_text().strip().splitlines()[1].split(",")
        assert float(row[-2]) == pytest.approx(5.0888886040661e-63,
                                               rel=1e-12)

    def test_bessel_non_convergence_propagates(self, tmp_path):
        # a numerical failure of the library is not invalid input: like
        # QuadratureConvergenceError it propagates, and nothing is written
        out = tmp_path / "kt.csv"
        with pytest.raises(RuntimeError,
                           match="Bessel series for order 42.0 not converged"):
            run(["kernel-table", "--family", "laguerre-heat", "--t", "1",
                 "--alpha", "42", "--x", "32", "--y", "32", "--out", str(out)])
        assert not out.exists()

    def test_heat_bessel_underflow_propagates(self, tmp_path):
        # t, x and y are valid but the Bessel argument underflows: a
        # numerical failure, not invalid input
        out = tmp_path / "kt.csv"
        with pytest.raises(RuntimeError, match="t=800.0, x=1.0, y=1.0"):
            run(["kernel-table", "--family", "laguerre-heat", "--t", "800",
                 "--alpha", "0.5", "--x", "1", "--y", "1", "--out", str(out)])
        assert not out.exists()

    def test_hermite_heat_underflow_propagates(self, tmp_path):
        # e^-t underflows at t = 800: the kernel printed 0.0 and exited 0
        out = tmp_path / "kt.csv"
        with pytest.raises(RuntimeError, match="t=800.0, x=1.0, y=1.0"):
            run(["kernel-table", "--family", "hermite-heat", "--t", "800",
                 "--x", "1", "--y", "1", "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--family", "hermite-heat", "--t", "0.5"],
        ["--family", "hermite-frac", "--gamma", "2"],
        ["--family", "hermite-riesz", "--k", "1"],
    ])
    def test_alpha_rejected_for_hermite(self, tmp_path, capsys, argv):
        # the table must not record a parameter the kernel never used
        assert run(["kernel-table", *argv, "--alpha", "3", "--x", "1",
                    "--y", "2", "--out", str(tmp_path / "kt.csv")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"invalid input: {argv[1]} takes no alpha, got alpha=3.0"]

    def test_laguerre_alpha_defaults_to_zero(self, tmp_path):
        out = tmp_path / "kt.csv"
        assert run(["kernel-table", "--family", "laguerre-heat", "--t", "0.5",
                    "--x", "1", "--y", "2", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1].split(",")[3] == "0.0"

    @pytest.mark.parametrize("argv,expected", [
        (["--family", "hermite-heat", "--t", "0.5"], "0.5"),
        (["--family", "hermite-frac", "--gamma", "2"], "2.0"),
        (["--family", "hermite-riesz", "--k", "1"], ""),
        (["--family", "laguerre-riesz", "--k", "1"], ""),
    ])
    def test_t_or_gamma_is_the_parameter_used(self, tmp_path, argv, expected):
        out = tmp_path / "kt.csv"
        assert run(["kernel-table", *argv, "--x", "1", "--y", "2",
                    "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1].split(",")[4] == expected

    @pytest.mark.parametrize("argv,message", [
        (["--family", "hermite-heat", "--k", "5", "--l", "2", "--t", "0.5"],
         "hermite-heat takes no k, got k=5"),
        (["--family", "laguerre-riesz", "--k", "1", "--l", "7", "--alpha",
          "0.5"], "laguerre-riesz takes no l, got l=7"),
    ])
    def test_unused_k_or_l_rejected(self, tmp_path, capsys, argv, message):
        # the table must not record a parameter the kernel never used
        assert run(["kernel-table", *argv, "--x", "1", "--y", "1.5",
                    "--out", str(tmp_path / "kt.csv")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"invalid input: {message}"]

    @pytest.mark.parametrize("argv,message", [
        (["--family", "hermite-riesz", "--k", "1", "--t", "5"],
         "hermite-riesz takes no t, got t=5.0"),
        (["--family", "hermite-heat", "--t", "0.5", "--gamma", "3"],
         "hermite-heat takes no gamma, got gamma=3.0"),
        (["--family", "laguerre-riesz", "--k", "1", "--gamma", "3"],
         "laguerre-riesz takes no gamma, got gamma=3.0"),
        (["--family", "hermite-frac", "--gamma", "2", "--t", "0.5"],
         "hermite-frac takes no t, got t=0.5"),
    ])
    def test_unused_t_or_gamma_rejected(self, tmp_path, capsys, argv,
                                        message):
        assert run(["kernel-table", *argv, "--x", "1", "--y", "2",
                    "--out", str(tmp_path / "kt.csv")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"invalid input: {message}"]

    @pytest.mark.parametrize("argv,name,text", [
        (["--family", "hermite-heat", "--t", "0.5", "--x", "", "--y", "1"],
         "x", ""),
        (["--family", "hermite-heat", "--t", "0.5", "--x", "1", "--y", ","],
         "y", ","),
        (["--family", "hermite-heat", "--t", "0.5", "--x", "nan", "--y", "1"],
         "x", "nan"),
        (["--family", "hermite-frac", "--gamma", "2", "--x", "inf", "--y",
          "1"], "x", "inf"),
    ], ids=["empty", "comma", "nan", "inf"])
    def test_empty_or_non_finite_grid_rejected(self, tmp_path, capsys, argv,
                                               name, text):
        out = tmp_path / "kt.csv"
        assert run(["kernel-table", *argv, "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.splitlines() == [
            f"invalid input: {name} must be a non-empty list of finite "
            f"numbers, got {text!r}"]

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
        rc = run(["riesz", "--family", "hermite", "--k", "2", "--points",
                  "3", "--out", str(out), "--max-abs-diff", "1e-3"])
        assert rc == 0
        data = np.genfromtxt(out, delimiter=",", names=True)
        assert float(np.max(data["abs_diff"])) < 1e-3

    def test_alpha_rejected_for_hermite(self, tmp_path, capsys):
        # as in basis and kernel-table: no parameter the basis never uses
        out = tmp_path / "r.csv"
        assert run(["riesz", "--family", "hermite", "--k", "1", "--alpha",
                    "3", "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "invalid input: hermite basis takes no alpha"]
        assert not out.exists()

    def test_support_within_the_smallest_radius(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert run(["riesz", "--family", "hermite", "--k", "1",
                    "--bump-radius", "0.001", "--stages", "3", "--points",
                    "2", "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "invalid input: the support (-0.001, 0.001) lies within the "
            "smallest excision radius 0.025 of x=-0.00076"]
        assert not out.exists()

    def test_unsettled_principal_value_warns(self, tmp_path):
        # Laguerre k = 4: the extrapolation's own estimate is of the order
        # of the value; the CSV is written as before and the exit code
        # stays that of --max-abs-diff (none given here)
        from rieszlag import operators as op
        out = tmp_path / "r.csv"
        with pytest.warns(op.PVAccuracyWarning) as caught:
            rc = run(["riesz", "--family", "laguerre", "--k", "4",
                      "--alpha", "0.5", "--out", str(out)])
        assert rc == 0
        data = np.genfromtxt(out, delimiter=",", names=True)
        assert len(data) == 5
        for w in caught:
            text = str(w.message)
            assert text.startswith("laguerre-riesz k=4 alpha=0.5 x=")
            assert "err_estimate" in text and "|value|" in text

    def test_settled_principal_value_is_silent(self, tmp_path):
        from rieszlag import operators as op
        with warnings.catch_warnings():
            warnings.simplefilter("error", op.PVAccuracyWarning)
            assert run(["riesz", "--family", "laguerre", "--k", "2",
                        "--alpha", "0.5", "--out",
                        str(tmp_path / "r.csv")]) == 0

    @pytest.mark.parametrize("points", [1, 2, 7])
    def test_hermite_spectral_column_uses_one_table(self, tmp_path,
                                                    monkeypatch, points):
        # the analysis and the whole spectral column share one table, over
        # the analysis nodes followed by the points, and every cell is the
        # text of a one-point synthesize
        from rieszlag import operators as op
        calls = []
        table = basis.hermite_fn_table

        def counted(nmax, x):
            calls.append(np.size(x))
            return table(nmax, x)

        monkeypatch.setattr(basis, "hermite_fn_table", counted)
        out = tmp_path / "r.csv"
        assert run(["riesz", "--family", "hermite", "--k", "2", "--points",
                    str(points), "--stages", "3", "--out", str(out)]) == 0
        f = op.bump(0.0, 1.0)
        nodes = basis._analysis_rule(f, 1200)[0]
        assert calls == [nodes.size + points]
        column = op.riesz_spectral_hermite(
            2, basis.analyze(f, basis.BasisTag("hermite"), 1200))
        cells = [line.split(",")[:2]
                 for line in out.read_text().splitlines()[1:]]
        assert len(cells) == points
        for x, spectral in cells:
            assert spectral == repr(basis.synthesize(column, float(x)))

    @pytest.mark.parametrize("points", [1, 2, 7])
    def test_laguerre_spectral_column_uses_one_table_per_term(
            self, tmp_path, monkeypatch, points):
        # analyze builds one table, and the spectral column one per term
        # (two at k = 2) for all its points; every cell is the text of a
        # one-point call
        from rieszlag import operators as op
        calls = []
        table = basis.phi_table

        def counted(nmax, alpha, x):
            calls.append(np.size(x))
            return table(nmax, alpha, x)

        monkeypatch.setattr(basis, "phi_table", counted)
        monkeypatch.setattr(op, "phi_table", counted)
        out = tmp_path / "r.csv"
        assert run(["riesz", "--family", "laguerre", "--k", "2", "--alpha",
                    "0.5", "--points", str(points), "--stages", "3",
                    "--out", str(out)]) == 0
        assert calls[1:] == [points, points]
        monkeypatch.undo()
        coeffs = basis.analyze(op.bump(1.25, 0.75),
                               basis.BasisTag("laguerre", 0.5), 1200)
        cells = [line.split(",")[:2]
                 for line in out.read_text().splitlines()[1:]]
        assert len(cells) == points
        for x, spectral in cells:
            assert spectral == repr(op.riesz_apply_laguerre_spectral(
                2, coeffs, float(x), tail_tol=np.inf))

    def test_alpha_is_a_number(self, capsys):
        # --alpha parses as a float for every family, as in every subcommand
        with pytest.raises(SystemExit) as exc:
            run(["riesz", "--family", "hermite", "--k", "1", "--alpha",
                 "ignored"])
        assert exc.value.code == 2
        assert "invalid float value" in capsys.readouterr().err

    @pytest.mark.parametrize("points", ["0", "-1"])
    def test_no_points_rejected(self, tmp_path, capsys, points):
        # a comparison at no point must not pass its --max-abs-diff check
        assert run(["riesz", "--family", "laguerre", "--k", "3", "--alpha",
                    "2", "--points", points, "--max-abs-diff", "1e-12",
                    "--out", str(tmp_path / "r.csv")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"invalid input: points must be >= 1, got {points}"]

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_unusable_tolerance_rejected(self, tmp_path, capsys, tol):
        # a NaN tolerance would pass any abs_diff, a negative one none
        out = tmp_path / "r.csv"
        assert run(["riesz", "--family", "hermite", "--k", "1", "--points",
                    "2", "--stages", "6", "--max-abs-diff", tol,
                    "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.splitlines() == [
            f"invalid input: max-abs-diff must be finite and >= 0, "
            f"got {float(tol)}"]

    @pytest.mark.parametrize("k", ["1", "2"])
    def test_laguerre_end_to_end(self, tmp_path, k):
        out = tmp_path / "r.csv"
        assert run(["riesz", "--family", "laguerre", "--k", k, "--alpha",
                    "0.5", "--points", "1", "--max-abs-diff", "1e-3",
                    "--out", str(out)]) == 0
        data = np.atleast_1d(np.genfromtxt(out, delimiter=",", names=True))
        assert len(data) == 1
        assert float(data["abs_diff"][0]) < 1e-3

    def test_failure_exit_code(self, tmp_path):
        rc = run(["riesz", "--family", "hermite", "--k", "1", "--points",
                  "2", "--stages", "6", "--out", str(tmp_path / "r.csv"),
                  "--max-abs-diff", "1e-12"])
        assert rc == 1

    def test_non_finite_abs_diff_fails(self, tmp_path, capsys, monkeypatch):
        # a NaN kernel makes pv and abs_diff NaN; NaN compares False against
        # any tolerance, and must fail the check
        def nan_kernel(k, alpha, x, y):
            return np.full(np.shape(y), np.nan)

        monkeypatch.setattr(kernels, "riesz_kernel_laguerre_vec", nan_kernel)
        out = tmp_path / "r.csv"
        rc = run(["riesz", "--family", "laguerre", "--k", "1", "--alpha",
                  "0.5", "--points", "1", "--stages", "3",
                  "--max-abs-diff", "1e-3", "--out", str(out)])
        assert rc == 1
        data = np.atleast_1d(np.genfromtxt(out, delimiter=",", names=True))
        assert np.isnan(data["abs_diff"][0])
        witness = json.loads(capsys.readouterr().err)["assertion-failure"]
        assert witness["non_finite_abs_diff_at_x"] == [float(data["x"][0])]

    def test_non_finite_kernel_propagates(self, tmp_path):
        # the Laguerre kernel overflows at k = 9; its QuadratureConvergenceError
        # propagates like the Bessel one, and nothing is written
        # the overflow itself prints no RuntimeWarning: the error names it
        out = tmp_path / "r.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(kernels.QuadratureConvergenceError,
                               match="Riesz kernel .* is not finite"):
                run(["riesz", "--family", "laguerre", "--k", "9", "--alpha",
                     "0.5", "--points", "1", "--stages", "3", "--out",
                     str(out)])
        assert not out.exists()


class TestScans:
    def test_scan_bounds(self, tmp_path):
        out = tmp_path / "sb.json"
        assert run(["scan-bounds", "--statement", "prop33-i", "--k", "1",
                    "--alpha", "0.5", "--nx", "4", "--ny", "3",
                    "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["stable"] is True

    @pytest.mark.parametrize("argv,name", [
        (["prop31-l-table", "--levels", "1"], "levels"),
        (["prop31-l-table", "--levels", "0"], "levels"),
        (["prop33-i", "--nx", "0"], "nx"),
        (["prop33-i", "--ny", "0"], "ny"),
    ])
    def test_unpassable_sampling_rejected(self, tmp_path, capsys, argv, name):
        # a single level has no refinement to compare, an empty axis no sup
        assert run(["scan-bounds", "--k", "1", "--statement", *argv,
                    "--out", str(tmp_path / "sb.json")]) == 2
        low = 2 if name == "levels" else 1
        assert capsys.readouterr().err.splitlines() == [
            f"invalid input: {name} must be >= {low}, got {argv[-1]}"]

    @pytest.mark.parametrize("argv,flag", [
        (["prop31-l-table", "--k", "1", "--nx", "0", "--ny", "0",
          "--alpha", "7"], "--alpha"),
        (["prop31-l-table", "--k", "2", "--alpha", "0.5"], "--alpha"),
        (["prop33-i", "--k", "1", "--l", "5"], "--l"),
    ])
    def test_foreign_flags_rejected(self, tmp_path, capsys, argv, flag):
        # a flag the chosen statement never computes with is not ignored
        assert run(["scan-bounds", "--statement", *argv,
                    "--out", str(tmp_path / "sb.json")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"invalid input: {argv[0]} does not take {flag}"]

    def test_scans_start_no_thread(self, tmp_path, monkeypatch):
        jobs = [["lp-scan", "--k", "1", "--family-size", "3", "--seed", "5"],
                ["scan-bounds", "--statement", "prop33-iii", "--k", "2",
                 "--alpha", "0.5", "--nx", "4", "--ny", "3"],
                ["scan-bounds", "--statement", "prop31-l-table", "--k", "2",
                 "--l", "1"]]
        one = []
        for i, job in enumerate(jobs):
            one.append(tmp_path / f"one{i}.json")
            assert run(job + ["--out", str(one[-1]), "--threads", "1"]) == 0

        def refuse(self):
            raise RuntimeError("the scans must run on the calling thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        for i, job in enumerate(jobs):
            four = tmp_path / f"four{i}.json"
            assert run(job + ["--out", str(four), "--threads", "4"]) == 0
            assert four.read_bytes() == one[i].read_bytes()

    def test_lp_scan_and_determinism(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["lp-scan", "--k", "1", "--alpha", "0.0", "--p", "2.0",
                "--delta", "0.0", "--family-size", "3", "--seed", "5"]
        assert run(args + ["--out", str(a), "--threads", "1"]) == 0
        assert run(args + ["--out", str(b), "--threads", "3"]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("argv,p,delta", [
        (["--p", "inf"], "inf", "0.0"),
        (["--delta", "nan"], "2.0", "nan"),
        (["--delta", "inf"], "2.0", "inf"),
        (["--delta=-inf"], "2.0", "-inf"),
    ], ids=["p-inf", "delta-nan", "delta-inf", "delta-minus-inf"])
    def test_lp_scan_non_finite_rejected(self, tmp_path, capsys, argv, p,
                                         delta):
        # p = inf reported the ratio 1.0 for every bump; a non-finite delta
        # failed inside the endpoint rule with a misleading message
        out = tmp_path / "lp.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["lp-scan", "--k", "1", "--family-size", "2", *argv,
                        "--out", str(out)]) == 2
        assert not caught and not out.exists()
        assert capsys.readouterr().err.splitlines() == [
            f"invalid input: need finite p and delta, got p={p}, "
            f"delta={delta}"]

    def test_phi_limit(self, tmp_path):
        out = tmp_path / "phi.json"
        assert run(["phi-limit", "--k", "2", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert abs(rep["extrapolated"] - rep["closed_form"]) < 1e-4

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_phi_limit_unusable_tolerance_rejected(self, tmp_path, capsys,
                                                   tol):
        out = tmp_path / "phi.json"
        assert run(["phi-limit", "--k", "2", "--tol", tol,
                    "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.splitlines() == [
            f"invalid input: tol must be finite and >= 0, got {float(tol)}"]


class TestBasisDump:
    def test_samples(self, tmp_path):
        out = tmp_path / "b.csv"
        assert run(["basis", "--family", "laguerre", "--alpha", "0.5",
                    "--n", "3", "--points", "50", "--xmax", "6",
                    "--out", str(out)]) == 0
        data = np.genfromtxt(out, delimiter=",", names=True)
        assert len(data["x"]) == 50

    @pytest.mark.parametrize("argv,message", [
        (["--points", "0"], "points must be >= 1, got 0"),
        (["--points", "-3"], "points must be >= 1, got -3"),
        (["--xmax", "nan", "--points", "2"], "xmax must be finite, got nan"),
        (["--xmin=-inf", "--points", "2"], "xmin must be finite, got -inf"),
    ])
    def test_bad_sample_grid_rejected(self, tmp_path, capsys, argv, message):
        out = tmp_path / "b.csv"
        assert run(["basis", "--family", "hermite", *argv,
                    "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.splitlines() == [
            f"invalid input: {message}"]

    def test_alpha_rejected_for_hermite(self, tmp_path, capsys):
        # the Hermite functions have no type parameter
        out = tmp_path / "b.csv"
        assert run(["basis", "--family", "hermite", "--alpha", "3",
                    "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.splitlines() == [
            "invalid input: hermite basis takes no alpha"]

    def test_laguerre_alpha_defaults_to_zero(self, tmp_path):
        outs = [tmp_path / "default.csv", tmp_path / "zero.csv"]
        for out, extra in zip(outs, ([], ["--alpha", "0"])):
            assert run(["basis", "--family", "laguerre", "--n", "3",
                        "--points", "5", *extra, "--out", str(out)]) == 0
        assert outs[0].read_text() == outs[1].read_text()

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
        # record warnings: on the command line they would print to stderr
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run(["riesz", "--family", "hermite", "--k", "1",
                      "--input-csv", str(src),
                      "--out", str(tmp_path / "r.csv")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert [str(w.message) for w in caught] == []
        assert len(err) == 1 and err[0].startswith(f"invalid input: {src}: ")
        if not body:
            assert err == [f"invalid input: {src}: empty file, expected "
                           "columns x,f"]

    def test_directory_rejected(self, tmp_path, capsys):
        rc = run(["riesz", "--family", "hermite", "--k", "1",
                  "--input-csv", str(tmp_path),
                  "--out", str(tmp_path / "r.csv")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("invalid input: ")
        assert str(tmp_path) in err[0]


def test_parser_built_once(tmp_path):
    # the parser is built on the first main call and reused after it
    _build_parser.cache_clear()
    for n in (2, 3):
        assert run(["basis", "--family", "hermite", "--n", str(n),
                    "--points", "3", "--out", str(tmp_path / "b.csv")]) == 0
    assert _build_parser.cache_info().misses == 1
    assert _build_parser.cache_info().hits == 1


def _python(code: str) -> str:
    """Standard output of `code` run in a fresh interpreter on src/."""
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": SRC}).stdout


try:
    HAS_MALLOPT = hasattr(ctypes.CDLL(None), "mallopt")
except (OSError, TypeError):
    HAS_MALLOPT = False


class TestHeapPad:
    @pytest.mark.skipif(not HAS_MALLOPT, reason="no glibc mallopt")
    def test_second_run_reuses_the_heap(self):
        # without the pad each Laguerre block faults its temporaries in
        # again: 3,502 faults with glibc 2.36 on x86-64, against 0 with
        # it.  The counts repeat exactly
        out = _python("""
            import contextlib, io, resource
            from rieszlag.cli import main
            argv = ["riesz", "--family", "laguerre", "--k", "2", "--alpha",
                    "0.5", "--points", "2", "--stages", "4"]
            for _ in range(2):
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main(argv) == 0
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            """)
        assert int(out) < 200

    def test_import_leaves_the_heap_alone(self):
        # only the first main call sets the pad, and it sets nothing else
        out = _python("""
            import contextlib, ctypes, io, json
            calls, real = [], ctypes.CDLL

            class Recording:
                def __init__(self, *args, **kwargs):
                    self.lib = real(*args, **kwargs)

                def __getattr__(self, name):
                    if name != "mallopt":
                        return getattr(self.lib, name)
                    return lambda *args: calls.append(args)

            ctypes.CDLL = Recording
            import rieszlag
            import rieszlag.cli
            seen = [len(calls)]
            for _ in range(2):
                with contextlib.redirect_stdout(io.StringIO()):
                    rieszlag.cli.main(["phi-limit", "--k", "2"])
                seen.append(list(calls))
            print(json.dumps(seen))
            """)
        pad = [-2, 16 << 20]  # M_TOP_PAD, 16 MiB
        assert json.loads(out) == [0, [pad], [pad]]

    @pytest.mark.parametrize("cdll", ["raises", "no-symbol"])
    def test_no_glibc_same_bytes(self, cdll, monkeypatch, capsys):
        argv = ["kernel-table", "--family", "laguerre-riesz", "--k", "1",
                "--alpha", "0.5", "--x", "1.0", "--y", "2.0,3.0"]
        assert run(argv) == 0
        expected = capsys.readouterr().out

        def missing(*args, **kwargs):
            if cdll == "raises":
                raise OSError("no C library")
            return object()

        monkeypatch.setattr(cli.ctypes, "CDLL", missing)
        cli._pad_heap.cache_clear()
        try:
            assert run(argv) == 0
            assert cli._pad_heap.cache_info().misses == 1
        finally:
            cli._pad_heap.cache_clear()
        assert capsys.readouterr().out == expected


def test_choices_are_the_package_tuples():
    # argparse lists these, in this order, in usage and invalid-choice text
    subparsers = next(a for a in _build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices

    def choices(sub, flag):
        return next(tuple(a.choices) for a in subparsers[sub]._actions
                    if flag in a.option_strings)

    assert choices("basis", "--family") == basis.KINDS
    assert choices("riesz", "--family") == basis.KINDS
    assert choices("kernel-table", "--family") == kernels.FAMILIES
    assert choices("scan-bounds", "--statement") == verify.STATEMENTS


class TestRemovedFlags:
    @pytest.mark.parametrize("argv", [
        ["riesz", "--family", "hermite", "--k", "1", "--seed", "1"],
        ["basis", "--family", "hermite", "--threads", "2"],
        ["riesz", "--family", "hermite", "--k", "1", "--eps-start", "0.1"],
        ["riesz", "--family", "hermite", "--k", "1", "--eps-ratio", "0.5"],
        ["phi-limit", "--k", "2", "--eps-start", "0.1"],
        ["phi-limit", "--k", "2", "--eps-ratio", "0.5"],
        ["phi-limit", "--k", "2", "--stages", "8"],
    ])
    def test_rejected_by_argparse(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
