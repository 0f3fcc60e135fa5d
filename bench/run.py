"""Benchmark of rieszlag CLI jobs: end-to-end and per-layer metrics.

One process runs ``rieszlag.cli.main(argv)`` jobs back-to-back in a closed
loop with a single client, after one untimed warm-up job.  Every artifact is
checked against ``reference.json``.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` prints the per-layer metrics of a separate traced run
(see spans.py) and the tracing overhead.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.

    python3 bench/run.py --workload lag_riesz --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --record      # rewrite reference.json

Run it from the root of a source tree: the package is imported from src/.
"""

import os

# One BLAS thread: with the default threading on 2 cores the first eigh of a
# fresh process takes 4 ms or 0.3-0.4 s at random.  Set before numpy loads.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import check  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
REFERENCE = BENCH / "reference.json"
# Fresh interpreters per run, spread between the timed cycles so that their
# median samples the machine's speed over the whole run, not one moment.
FRESH_PROCESSES = 11
# At least two cycles, so that no percentile rests on a single sample of a
# job: lag_riesz runs one 9-job cycle in about 23 s.
MIN_CYCLES = 2
UNCONTROLLED = ["shared machine (other tenants' load)", "no CPU pinning",
                "no page-cache dropping", "no CPU frequency control"]

# A fresh interpreter: import the CLI, then fill the lazily built caches the
# jobs share (the 880-node s-rule, Gauss-Legendre and Gauss-Jacobi bases).
_FRESH = """
import json, time
t0 = time.perf_counter()
import rieszlag.cli
t1 = time.perf_counter()
from rieszlag import kernels, specfun
kernels.riesz_kernel_laguerre_vec(1, 0.0, 1.0, [2.0])
kernels.riesz_kernel_hermite_vec(1, 1, 0.0, [1.0])
for n in (12, 14):
    specfun.gauss_legendre_panels([0.0, 1.0], n)
specfun.gauss_jacobi_01(160, 0.0)
print(json.dumps({"import_s": t1 - t0}), flush=True)
"""


@dataclass
class Outcome:
    argv: list
    latency_s: float
    rc: object
    artifact: str
    error: str
    agreement_warnings: int


def _import_package():
    src = ROOT / "src"
    if not (src / "rieszlag" / "__init__.py").is_file():
        sys.exit(f"bench: no rieszlag package under {src}")
    sys.path.insert(0, str(src))
    import rieszlag
    import rieszlag.cli
    if Path(rieszlag.__file__).resolve().parent != (src / "rieszlag").resolve():
        sys.exit(f"bench: rieszlag was imported from {rieszlag.__file__}")
    return rieszlag


def run_job(package, argv: list, tracer=None) -> Outcome:
    """Run one CLI job with its artifact (--out -) captured."""
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, ""
    main = package.cli.main
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        span = tracer.span("cli.main") if tracer else contextlib.nullcontext()
        t0 = perf_counter()
        try:
            with span:
                rc = main(argv)
        except SystemExit as exc:          # argparse rejected the argv
            rc = exc.code
        except Exception as exc:           # a raising job is a failed job
            error = f"{type(exc).__name__}: {exc}"
        latency = perf_counter() - t0
    agree = sum(issubclass(w.category, package.kernels.KernelAgreementWarning)
                for w in caught)
    return Outcome(argv, latency, rc, out.getvalue(),
                   error or err.getvalue().strip(), agree)


def run_cycles(package, plan: list, tracer=None, fresh=0):
    """Closed loop over the cycles of ``plan``, each a list of argvs; returns
    outcomes, cycle walls, when traced the per-layer figures of each cycle,
    and the (setup_s, import_s) of ``fresh`` fresh interpreters started
    between cycles, outside their timing."""
    outcomes, walls, layers, setups = [], [], [], []
    n = len(plan)
    for i, jobs in enumerate(plan):
        for _ in range((i + 1) * fresh // n - i * fresh // n):
            setups.append(fresh_process())
        if tracer:
            tracer.reset()
        t0 = perf_counter()
        for argv in jobs:
            outcomes.append(run_job(package, argv, tracer))
        walls.append(perf_counter() - t0)
        if tracer:
            layers.append(tracer.layer_metrics())
    return outcomes, walls, layers, setups


def fresh_process() -> tuple:
    """(setup_s, import_s) of one fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **BLAS_ENV)
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, "-c", _FRESH], cwd=ROOT,
                          env=env, stdout=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline()
        ready = perf_counter()
        proc.stdout.read()
        if proc.wait(timeout=60) != 0 or not line:
            sys.exit("bench: fresh-process set-up failed")
    return ready - t0, json.loads(line)["import_s"]


def judge(outcomes: list, reference: dict) -> dict:
    """Correctness gate: failures, drift against the reference artifacts.

    A failure is expected when the reference job exited with the same
    non-zero code (the known route-gap failures); any other failure, a job
    with no reference, or an artifact outside the drift gate makes the run
    incorrect.
    """
    failed, drift, numbers, correct = [], 0.0, 0, True
    for o in outcomes:
        ref = reference.get(workloads.job_key(o.argv))
        try:
            new = check.leaves(o.argv, o.artifact)
        except ValueError:
            new = None
        if (o.rc != 0 or o.agreement_warnings or new is None
                or not check.all_finite(new)):
            expected = (ref is not None and ref["rc"] != 0
                        and o.rc == ref["rc"] and not o.agreement_warnings)
            failed.append((o, expected))
            correct = correct and expected
        if ref is None or new is None:
            drift, correct = float("inf"), False
            continue
        d, cnt, ok = check.compare(new, check.leaves(o.argv, ref["artifact"]))
        drift, numbers, correct = max(drift, d), numbers + cnt, correct and ok
    return {"failed": failed, "drift": drift, "numbers": numbers,
            "correct": correct}


def tail(latencies: list) -> tuple:
    """(value, percentile, n): the highest percentile with at least ten
    samples beyond it.  Below 21 samples that percentile is no higher than
    the median, so the maximum is reported instead."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 21:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "rieszlag").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = "not a git checkout"
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        sha = res.stdout.strip() or sha
    return {"blas_env": BLAS_ENV, "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "git_sha": sha, "src_sha256": digest.hexdigest()[:16],
            "uncontrolled": UNCONTROLLED}


def record(package) -> None:
    """Run every job any seed can produce once and store its artifact."""
    reference = {}
    for workload in workloads.TEMPLATES:
        for argv in workloads.every_job(workload):
            o = run_job(package, argv)
            if o.rc is None:
                sys.exit(f"bench: reference job raised: {o.error}")
            reference[workloads.job_key(argv)] = {"rc": o.rc,
                                                  "artifact": o.artifact}
            print(f"{o.latency_s:7.3f} s  rc={o.rc}  {workloads.job_key(argv)}",
                  flush=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def _line(name: str, value, unit: str, note: str) -> None:
    print(f"{name:34s} {value:<14.6g} {unit:6s} {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.TEMPLATES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jobs", type=int, default=None,
                        help="run only the first N jobs of the cycle")
    parser.add_argument("--record", action="store_true",
                        help="rewrite reference.json and exit")
    args = parser.parse_args(argv)
    if not args.record and args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if args.jobs is not None and args.jobs < 1:
        parser.error("--jobs must be >= 1")

    package = _import_package()
    if args.record:
        record(package)
        return 0
    reference = json.loads(REFERENCE.read_text())
    nominal = workloads.NOMINAL_CYCLE_S[args.workload]
    if args.trace == 0:
        cycles = max(MIN_CYCLES, round(args.seconds / nominal))
    else:
        cycles = max(1, round(0.5 * args.seconds / nominal))
    plan = [jobs[:args.jobs]
            for jobs in workloads.cycles(args.workload, args.seed, cycles)]
    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}"
          f"  closed loop, 1 client, {len(plan[0])} jobs per cycle")
    print("# env " + json.dumps(environment(), sort_keys=True))

    warm = run_job(package, plan[0][0])
    if args.trace == 0:
        outcomes, walls, _, setups = run_cycles(package, plan,
                                                fresh=FRESH_PROCESSES)
        lat = [o.latency_s for o in outcomes]
        tail_s, pct, n = tail(lat)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rows = [
            ("ops_per_s", len(outcomes) / sum(walls), "1/s",
             f"{len(outcomes)} jobs / wall of {cycles} cycles"),
            ("op_p50_s", statistics.median(lat), "s", f"median of {n} jobs"),
            ("op_tail_s", tail_s, "s", f"p{pct:.1f} of {n} jobs"
             + (" (fewer than 21: maximum)" if n < 21 else "")),
            ("setup_s", statistics.median(s for s, _ in setups), "s",
             f"median of {FRESH_PROCESSES} fresh processes"),
            ("peak_rss_mb", rss_mb, "MB", "ru_maxrss of this process"),
        ]
    else:
        # untraced and traced cycles alternate, so drift in machine speed
        # over the run does not read as tracing overhead
        imports = [fresh_process()[1] for _ in range(FRESH_PROCESSES)]
        tracer = spans.Tracer()
        plain, plain_walls, traced, walls, layers = [], [], [], [], []
        for jobs in plan:
            o, w, _, _ = run_cycles(package, [jobs])
            plain += o
            plain_walls += w
            tracer.install(package)
            try:
                o, w, lay, _ = run_cycles(package, [jobs], tracer)
            finally:
                tracer.uninstall()
            traced += o
            walls += w
            layers += lay
        outcomes = plain + traced
        ops_plain = len(plain) / sum(plain_walls)
        ops_traced = len(traced) / sum(walls)
        rows = [(name, statistics.median(c[name] for c in layers),
                 spans.unit(name), f"median of {cycles} traced cycles")
                for name in layers[0]]
        rows += [
            ("cli.import_s", statistics.median(imports), "s",
             f"median of {FRESH_PROCESSES} fresh processes"),
            ("trace.ops_per_s", ops_traced, "1/s",
             f"traced; untraced {ops_plain:.6g} 1/s"),
            ("trace.overhead_frac", ops_plain / ops_traced - 1.0, "frac",
             "untraced / traced ops_per_s - 1"),
        ]

    verdict = judge([warm] + outcomes, reference)
    failed = [o for o, _ in verdict["failed"] if o is not warm]
    metrics = {}
    for name, value, unit, note in rows:
        _line(name, value, unit, note)
        metrics[name] = {"value": value, "unit": unit}
    _line("value_drift", verdict["drift"], "rel",
          f"max over {verdict['numbers']} numbers vs reference.json "
          f"(gate {check.RTOL:g} rel + {check.ATOL:g} abs)")
    _line("fail_frac", len(failed) / len(outcomes), "frac",
          f"{len(failed)} of {len(outcomes)} jobs")
    for o, expected in verdict["failed"]:
        kind = "expected" if expected else "UNEXPECTED"
        print(f"# failed ({kind}, rc={o.rc}): {workloads.job_key(o.argv)}")
    print(json.dumps({"correct": verdict["correct"],
                      "attempted": len(outcomes), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
