"""Spans around calls into the rieszlag layers, for the traced run.

The package is not edited: ``Tracer.install`` replaces each public name in
the module that looks it up at call time (``kernels.bessel_i_scaled``,
``operators.pv_apply``, ...) with a wrapper that records a span, and
``uninstall`` puts the originals back.

Each thread keeps its own stack of open spans.  A span opened on a worker
thread with an empty stack (the thread pool of ``verify``) takes the span
open on the client thread as its parent, and its duration counts as worker
busy time.  A span's self time is its duration minus the part of its
interval that its child spans cover, so overlapping children on two worker
threads are not subtracted twice.
"""

from __future__ import annotations

import contextlib
import functools
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith(("calls", "points", "entries")):
        return "count"
    return "frac" if name.endswith("_frac") else "rel"


class _Open:
    __slots__ = ("start", "children")

    def __init__(self):
        self.start = perf_counter()
        self.children = []


def _covered(intervals: list, lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Tracer:
    """Span recorder; create it on the client thread that runs the jobs."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._client = threading.get_ident()
        self._client_stack = []
        self._installed = []
        self.reset()

    def reset(self) -> None:
        """Clear the aggregates; open spans must not straddle a reset."""
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.maxima = defaultdict(float)
        self.worker_busy_s = 0.0
        self.scan_capacity_s = 0.0

    def _stack(self) -> list:
        if threading.get_ident() == self._client:
            return self._client_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        crossing = not stack and stack is not self._client_stack
        if stack:
            parent = stack[-1]
        else:
            parent = self._client_stack[-1] if crossing and self._client_stack \
                else None
        rec = _Open()
        stack.append(rec)
        try:
            yield rec
        finally:
            end = perf_counter()
            stack.pop()
            with self._lock:
                covered = _covered(rec.children, rec.start, end)
                self.self_s[name] += (end - rec.start) - covered
                self.calls[name] += 1
                if parent is not None:
                    parent.children.append((rec.start, end))
                    if crossing:
                        self.worker_busy_s += end - rec.start

    def add(self, key: str, amount) -> None:
        with self._lock:
            self.counts[key] += amount

    def note_max(self, key: str, value: float) -> None:
        with self._lock:
            self.maxima[key] = max(self.maxima[key], value)

    def wrap(self, module, attr: str, name: str, after=None) -> None:
        """Replace ``module.attr`` by a spanned wrapper; ``after(args,
        kwargs, result, seconds)`` records counts at the same boundary."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                result = original(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result, perf_counter() - rec.start)
            return result

        setattr(module, attr, wrapper)
        self._installed.append((module, attr, original))

    def install(self, package) -> None:
        """Span every layer boundary the CLI jobs cross."""
        basis, cli, kernels = package.basis, package.cli, package.kernels
        operators, verify = package.operators, package.verify

        def points(key, pos):
            return lambda a, kw, r, dt: self.add(key, int(np.size(a[pos])))

        def table_entries(a, kw, r, dt):
            self.add("basis.table.entries", int(a[0] + 1) * int(np.size(a[-1])))

        def pv_agreement(a, kw, r, dt):
            self.note_max("kernels.route_disagreement_max", r.kernel_agreement)

        def scan_capacity(a, kw, r, dt):
            with self._lock:
                self.scan_capacity_s += dt * max(1, int(kw.get("threads", 1)))

        self.wrap(kernels, "bessel_i_scaled", "specfun.bessel_i_scaled",
                  points("specfun.bessel_i_scaled.points", 1))
        self.wrap(kernels, "hermite_poly", "specfun.hermite_poly")
        for mod in (basis, operators):
            self.wrap(mod, "gauss_legendre_panels", "specfun.rules")
            self.wrap(mod, "gauss_jacobi_01", "specfun.rules")
        self.wrap(verify, "gauss_legendre_panels", "specfun.rules")
        for mod, attr in ((basis, "hermite_fn_table"), (basis, "phi_table"),
                          (operators, "phi_table")):
            self.wrap(mod, attr, "basis.table", table_entries)
        for mod in (cli, verify):
            self.wrap(mod, "analyze", "basis.analyze")
        self.wrap(cli, "synthesize", "basis.synthesize")
        self.wrap(kernels, "riesz_kernel_laguerre_vec", "kernels.laguerre_vec",
                  points("kernels.laguerre_vec.y_points", 3))
        self.wrap(kernels, "riesz_kernel_hermite_vec", "kernels.hermite_vec",
                  points("kernels.hermite_vec.y_points", 3))
        self.wrap(operators, "pv_apply", "operators.pv_apply", pv_agreement)
        for attr in ("riesz_spectral_hermite", "riesz_apply_laguerre_spectral"):
            self.wrap(operators, attr, "operators.spectral")
        self.wrap(operators, "weighted_norm", "operators.weighted_norm")
        for attr in ("check_prop33", "lp_scan"):
            self.wrap(verify, attr, "verify.scan", scan_capacity)

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def layer_metrics(self) -> dict:
        """Per-layer figures aggregated since the last reset."""
        s, c, n = self.self_s, self.calls, self.counts
        return {
            "specfun.bessel_i_scaled.calls": c["specfun.bessel_i_scaled"],
            "specfun.bessel_i_scaled.points": n["specfun.bessel_i_scaled.points"],
            "specfun.bessel_i_scaled.self_s": s["specfun.bessel_i_scaled"],
            "specfun.hermite_poly.self_s": s["specfun.hermite_poly"],
            "specfun.rules.self_s": s["specfun.rules"],
            "basis.table.calls": c["basis.table"],
            "basis.table.entries": n["basis.table.entries"],
            "basis.table.self_s": s["basis.table"],
            "basis.analyze.self_s": s["basis.analyze"],
            "basis.synthesize.self_s": s["basis.synthesize"],
            "kernels.laguerre_vec.calls": c["kernels.laguerre_vec"],
            "kernels.laguerre_vec.y_points": n["kernels.laguerre_vec.y_points"],
            "kernels.laguerre_vec.self_s": s["kernels.laguerre_vec"],
            "kernels.hermite_vec.calls": c["kernels.hermite_vec"],
            "kernels.hermite_vec.y_points": n["kernels.hermite_vec.y_points"],
            "kernels.hermite_vec.self_s": s["kernels.hermite_vec"],
            "kernels.route_disagreement_max":
                self.maxima["kernels.route_disagreement_max"],
            "operators.pv_apply.calls": c["operators.pv_apply"],
            "operators.pv_apply.self_s": s["operators.pv_apply"],
            "operators.spectral.self_s": s["operators.spectral"],
            "operators.weighted_norm.self_s": s["operators.weighted_norm"],
            "verify.scan.self_s": s["verify.scan"],
            "verify.worker_busy_frac": (self.worker_busy_s / self.scan_capacity_s
                                        if self.scan_capacity_s else 0.0),
            "cli.main.self_s": s["cli.main"],
        }
