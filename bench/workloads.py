"""Job cycles of the benchmark workloads and the seeded choice of their inputs.

A job is one argv for ``rieszlag.cli.main``.  Each workload is a fixed cycle
of job templates; the seed picks, per job and per cycle, one of ``VARIANTS``
input variants (a bump centre and radius inside the family's domain, or the
``lp-scan --seed``).  Seed 0 picks variant 0 everywhere, which is the CLI
default bump and ``lp-scan --seed 0``.  The variants are a fixed finite set
so that every job any seed can produce has a reference artifact in
``reference.json``.
"""

from __future__ import annotations

import numpy as np

VARIANTS = 8

# (centre, radius) per variant; variant 0 is the CLI default bump.  The
# others were drawn once within +-0.04 (Laguerre) or +-0.05 (Hermite) of its
# centre and +-0.02 / +-0.03 of its radius: a job's cost moves with the
# bump's position (up to 20% over +-0.1), and the seed should vary the
# inputs without moving the figures.
_BUMPS = {
    "laguerre": ((1.25, 0.75), (1.287, 0.749), (1.247, 0.743), (1.216, 0.74),
                 (1.279, 0.741), (1.243, 0.77), (1.22, 0.764), (1.262, 0.758)),
    "hermite": ((0.0, 1.0), (0.037, 1.027), (0.024, 0.979), (-0.032, 0.997),
                (-0.049, 1.025), (-0.036, 0.992), (0.009, 0.997),
                (-0.024, 0.993)),
}

# Wall time of one full cycle at the commit that recorded reference.json, on
# 2 cores with BLAS pinned to 1 thread.  A run executes a fixed number of
# cycles derived from --seconds and these figures, so both sides of a
# comparison time the same job mix.
NOMINAL_CYCLE_S = {"lag_riesz": 22.6, "her_riesz": 0.6, "scans": 1.4}


def _riesz(family: str, k: int, alpha: str | None):
    def argv(v: int) -> list:
        centre, radius = _BUMPS[family][v]
        head = ["riesz", "--family", family, "--k", str(k)]
        head += ["--alpha", alpha] if alpha is not None else ["--nmax", "1600"]
        return head + ["--points", "5", "--stages", "10",
                       f"--bump-center={centre}", f"--bump-radius={radius}",
                       "--max-abs-diff", "1e-3"]
    return argv


def _lp_scan(k: int):
    def argv(v: int) -> list:
        return ["lp-scan", "--k", str(k), "--alpha", "0", "--p", "2",
                "--delta", "0", "--family-size", "20", "--seed", str(v),
                "--threads", "2"]
    return argv


def _scan_bounds(statement: str, k: int):
    def argv(v: int) -> list:
        return ["scan-bounds", "--statement", statement, "--k", str(k),
                "--alpha", "0.5", "--threads", "2"]
    return argv


TEMPLATES = {
    "lag_riesz": [_riesz("laguerre", k, a)
                  for k in (1, 2, 3) for a in ("0", "0.5", "2")],
    "her_riesz": [_riesz("hermite", k, None) for k in (1, 2, 3)],
    "scans": [_lp_scan(1), _lp_scan(2),
              _scan_bounds("prop33-i", 1), _scan_bounds("prop33-iii", 2),
              _scan_bounds("prop33-ii-odd", 1),
              _scan_bounds("prop33-ii-even", 2)],
}


def cycles(workload: str, seed: int, n: int) -> list:
    """The workload's first n job cycles for this seed.

    Each cycle draws its variants afresh.  The variants of one job differ in
    cost by up to 17% (``riesz --family hermite --k 3``), so one draw per run
    would make the seed move the figures; over many cycles the draws average
    out.
    """
    rng = np.random.default_rng(seed)
    return [[t(0 if seed == 0 else int(rng.integers(VARIANTS)))
             for t in TEMPLATES[workload]] for _ in range(n)]


def every_job(workload: str) -> list:
    """Every distinct job any seed can put into the workload's cycle."""
    seen = {}
    for t in TEMPLATES[workload]:
        for v in range(VARIANTS):
            argv = t(v)
            seen.setdefault(job_key(argv), argv)
    return list(seen.values())


def job_key(argv: list) -> str:
    return " ".join(argv)
