"""Comparison of CLI artifacts against the recorded reference artifacts.

An artifact is flattened into leaves: (position, value), where a value is a
float for every number and the raw text or JSON value otherwise.  Two
artifacts match when they have the same leaves in the same positions, equal
non-numeric leaves, and numbers within the drift gate.
"""

from __future__ import annotations

import json
import math

# A number passes when |new - ref| <= RTOL * max(|new|, |ref|) + ATOL.  The
# absolute part covers columns that are differences of O(1) values (the
# route gap, the extrapolation error estimate), where a last-digit change of
# the operands is a large relative change of the column.
RTOL = 1e-9
ATOL = 1e-10


def _csv_leaves(text: str) -> list:
    leaves = []
    for i, line in enumerate(text.splitlines()):
        for j, cell in enumerate(line.split(",")):
            try:
                value = float(cell)
            except ValueError:
                value = cell
            leaves.append(((i, j), value))
    return leaves


def _json_leaves(obj, path=()) -> list:
    if isinstance(obj, dict):
        return [leaf for key in sorted(obj)
                for leaf in _json_leaves(obj[key], path + (key,))]
    if isinstance(obj, list):
        return [leaf for i, item in enumerate(obj)
                for leaf in _json_leaves(item, path + (i,))]
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return [(path, float(obj))]
    return [(path, obj)]


def leaves(argv: list, text: str) -> list:
    """Flatten the artifact a job wrote: CSV for ``riesz``, JSON otherwise."""
    if argv[0] == "riesz":
        return _csv_leaves(text)
    return _json_leaves(json.loads(text))


def all_finite(items: list) -> bool:
    return all(math.isfinite(v) for _, v in items if isinstance(v, float))


def compare(new: list, ref: list) -> tuple:
    """(largest relative difference, numbers compared, within the gate).

    A structural mismatch gives an infinite difference and fails the gate.
    """
    if [p for p, _ in new] != [p for p, _ in ref]:
        return math.inf, 0, False
    drift = 0.0
    numbers = 0
    ok = True
    for (_, a), (_, b) in zip(new, ref):
        if isinstance(a, float) != isinstance(b, float):
            return math.inf, numbers, False
        if not isinstance(a, float):
            if a != b:
                return math.inf, numbers, False
            continue
        numbers += 1
        if a == b:
            continue
        scale = max(abs(a), abs(b))
        diff = abs(a - b)
        drift = max(drift, diff / scale if math.isfinite(diff) else math.inf)
        ok = ok and diff <= RTOL * scale + ATOL
    return drift, numbers, ok
