"""Guards for tools/identity.py, the bit-identity check of CLI jobs and
library values across two source trees."""

import argparse
import importlib
from pathlib import Path

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
