"""Guards for tools/identity.py, the bit-identity check of CLI jobs and
library values across two source trees."""

import argparse
import importlib
import math
from pathlib import Path

import numpy as np
import pytest

from rieszlag.cli import _build_parser


@pytest.fixture
def identity(monkeypatch):
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parents[1] / "tools"))
    return importlib.import_module("identity")


def test_every_subcommand_has_a_job(identity):
    subcommands = next(a for a in _build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)).choices
    assert set(subcommands) <= {argv[0] for argv in identity.JOBS}


def test_jobs_are_distinct(identity):
    # each job names its items, and two equal jobs would give one name
    names = [" ".join(argv) for argv in identity.JOBS]
    assert len(set(names)) == len(names)


def test_value_report_measures_a_known_move(identity):
    old = np.array([1.0, -4.0, 2e-20, np.nan, 5.0])
    new = np.array([1.0, -4.0 + 4e-12, 3e-20, np.nan, 5.0])
    # moves of 4e-12 (1e-12 of its entry, 8e-13 of the largest |value|, 5)
    # and of 1e-20 (half its entry); NaN against NaN is no move
    assert identity.value_report(old, new) == (
        "2 of 5 numbers move: largest 4.00e-12 absolute, 5.00e-01 relative "
        "to its entry, 8.00e-13 relative to max |value|")
    assert identity.value_report(old, old.copy()) == "0 of 5 numbers move"
    assert identity.value_report(old, new[:3]) == "5 numbers against 3"
    assert identity.value_report(np.array([1.0]), np.array([np.nan])) == (
        "1 of 1 numbers move: largest inf absolute, inf relative to its "
        "entry, inf relative to max |value|")
    both_inf = np.array([np.inf, 0.0])
    assert identity.value_report(both_inf, both_inf.copy()) == (
        "0 of 2 numbers move")
    assert identity.value_report(both_inf, np.array([np.inf, 1e-300])) == (
        "1 of 2 numbers move: largest 1.00e-300 absolute, inf relative to "
        "its entry, inf relative to max |value|")


def test_numbers_of_results_and_text(identity):
    # "inf" inside a word is no number
    np.testing.assert_array_equal(identity._numbers(
        ("est err 5.1e-63 at (1e-30, 3.0); x=-2 inf nan infinite",
         np.array([[1.5, 2.0]]), 7, [0.25])),
        [5.1e-63, 1e-30, 3.0, -2.0, math.inf, math.nan, 1.5, 2.0, 7.0, 0.25])


@pytest.fixture
def bench_pairs(monkeypatch):
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parents[1] / "tools"))
    return importlib.import_module("bench_pairs")


def test_run_bench_records_child_faults_and_system_time(bench_pairs,
                                                        tmp_path):
    # a stand-in bench/run.py that touches 4096 fresh pages (16 MiB) in the
    # child; the delta must count them there and nothing of this process
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text(
        "import mmap\n"
        "m = mmap.mmap(-1, 4096 * 4096)\n"
        "for i in range(0, len(m), 4096):\n"
        "    m[i] = 1\n"
        "print('# env {}')\n"
        "print('value_drift 0.0 rel')\n"
        "print('{\"correct\": true, \"attempted\": 1, \"failed\": 0, "
        "\"metrics\": {}}')\n")
    run = bench_pairs.run_bench(tmp_path, "w", 0, 1, 0)
    assert run["minflt"] >= 4096
    assert run["stime_s"] >= 0.0
    assert (run["correct"], run["value_drift"], run["metrics"]) == (
        True, 0.0, {})
    again = bench_pairs.run_bench(tmp_path, "w", 0, 1, 0)
    # each run counts its own child only, not the total so far
    assert again["minflt"] < 2 * run["minflt"]


def test_oracle_table_rows(oracle_table):
    # TestFiniteExpansionOracle checks the bounds at 10 stages; here one row
    # of each family at 3 stages runs both branches cheaply
    rows = oracle_table.table(stages=3, ks=(1,), alphas=(0.5,))
    assert [row[:3] for row in rows] == [("hermite", None, 1),
                                        ("laguerre", 0.5, 1)]
    assert all(math.isfinite(v) and v > 0 for row in rows for v in row[3:])
    lines = oracle_table.format_table(rows).splitlines()
    assert [line.split() for line in lines[1:]] == [
        ["hermite", "1", f"{rows[0][3]:.2e}", f"{rows[0][4]:.2e}"],
        ["laguerre", "0.5", "1", f"{rows[1][3]:.2e}", f"{rows[1][4]:.2e}"]]
