"""Per-layer tracing of clarkspectra from outside the package.

The tracer replaces a public function by a wrapper at every place its name
is bound in a loaded clarkspectra module (cplane.nt_limit is also bound as
clark.nt_limit and clarkspectra.nt_limit), so calls made through any of the
names are seen. A wrapper records only while a request span is open, which
keeps the benchmark's own checks out of the figures. Spans are aggregated
in memory per layer: calls, total and self time (self = duration minus the
time of wrapped calls inside it), errors of a named type, calls of the
function passed as the first argument, and lengths of returned lists.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager


class Stat:
    __slots__ = ("calls", "total", "self_time", "errors", "arg_calls", "items")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.errors = 0
        self.arg_calls = 0
        self.items = 0

    def as_dict(self):
        return {k: getattr(self, k) for k in self.__slots__}


PACKAGE = "clarkspectra"

# (layer name, module, attribute). Several attributes may share a layer.
TARGETS = [
    ("livsic.livsic_eval", "livsic", "livsic_eval"),
    ("livsic.gram_matrix", "livsic", "gram_matrix"),
    ("cplane.nt_limit", "cplane", "nt_limit"),
    ("clark.ac_density", "clark", "ac_density"),
    ("clark.point_mass", "clark", "point_mass"),
    ("models.atom_scan", "models", "atom_scan"),
    ("defect.orthonormalize", "defect", "orthonormalize"),
    ("extensions.bcmap", "extensions", "alpha_from_bc_k1"),
    ("extensions.bcmap", "extensions", "bc_from_alpha_k1"),
    ("extensions.bcmap", "extensions", "alpha_from_bc_l1"),
    ("extensions.bcmap", "extensions", "bc_from_alpha_l1"),
    ("extensions.bcmap", "extensions", "alpha_from_bc_regular"),
    ("extensions.bcmap", "extensions", "bc_from_alpha_regular"),
    ("oracle.l2_eigenvalues_fd", "oracle", "l2_eigenvalues_fd"),
    ("oracle.quad_inner", "oracle", "quad_inner"),
    ("checks.run_all", "checks", "run_all"),
]

# Layers whose first argument is the function they evaluate (the ladder's
# f, the scan's B); calls of it are counted as that layer's evaluations.
COUNT_ARG_CALLS = {"cplane.nt_limit", "models.atom_scan"}


class Tracer:
    def __init__(self):
        self.stats = {}
        self.stack = []          # child time accumulated by each open span
        self.requests = 0
        self.request_self = 0.0
        self.criteria = {}       # criterion number -> CheckResult.seconds

    def install(self):
        errors = {"clark.point_mass": sys.modules[f"{PACKAGE}.errors"].ConvergenceError}
        modules = [m for name, m in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for layer, mod_name, attr in TARGETS:
            self.stats.setdefault(layer, Stat())
            mod = sys.modules.get(f"{PACKAGE}.{mod_name}")
            original = getattr(mod, attr, None) if mod is not None else None
            if not callable(original):
                continue
            wrapper = self._wrap(layer, original, errors.get(layer, ()))
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, name, wrapper)

    def _wrap(self, layer, fn, counted_errors):
        stat = self.stats[layer]
        count_arg = layer in COUNT_ARG_CALLS
        keep_criteria = layer == "checks.run_all"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.stack:
                return fn(*args, **kwargs)
            if count_arg and args:
                inner = args[0]

                def counted(*a, **k):
                    stat.arg_calls += 1
                    return inner(*a, **k)

                args = (counted,) + args[1:]
            frame = [0.0]
            self.stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except counted_errors:
                stat.errors += 1
                raise
            finally:
                dt = time.perf_counter() - t0
                self.stack.pop()
                self.stack[-1][0] += dt
                stat.calls += 1
                stat.total += dt
                stat.self_time += dt - frame[0]
            if isinstance(out, list):
                stat.items += len(out)
                if keep_criteria:
                    for r in out:
                        self.criteria[r.number] = r.seconds
            return out

        return wrapper

    @contextmanager
    def request(self):
        """Root span of one request; its self time is the time spent in
        the command-line layer outside every wrapped library call."""
        frame = [0.0]
        self.stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self.stack.pop()
            self.requests += 1
            self.request_self += dt - frame[0]

    def metrics(self):
        """Per-layer figures as {name: (value, unit)}."""
        def per(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        s = self.stats
        ev, gm, nt = s["livsic.livsic_eval"], s["livsic.gram_matrix"], s["cplane.nt_limit"]
        ac, pm, scan = s["clark.ac_density"], s["clark.point_mass"], s["models.atom_scan"]
        m = {
            "defect.orthonormalize.calls": (s["defect.orthonormalize"].calls, "count"),
            "cli.self_ms_per_request": (per(self.request_self, self.requests, 1e3), "ms"),
            "livsic.livsic_eval.calls": (ev.calls, "count"),
            "livsic.livsic_eval.us_per_call": (per(ev.total, ev.calls, 1e6), "us"),
            "livsic.gram_matrix.us_per_call": (per(gm.total, gm.calls, 1e6), "us"),
            "cplane.nt_limit.calls": (nt.calls, "count"),
            "cplane.nt_limit.evals_per_call": (per(nt.arg_calls, nt.calls), "evals/call"),
            "cplane.nt_limit.self_us_per_call": (per(nt.self_time, nt.calls, 1e6), "us"),
            "clark.ac_density.calls": (ac.calls, "count"),
            "clark.ac_density.ms_per_call": (per(ac.total, ac.calls, 1e3), "ms"),
            "clark.point_mass.calls": (pm.calls, "count"),
            "clark.point_mass.ms_per_call": (per(pm.total, pm.calls, 1e3), "ms"),
            "clark.point_mass.convergence_errors": (pm.errors, "count"),
            "models.atom_scan.calls": (scan.calls, "count"),
            "models.atom_scan.b_evals_per_call": (per(scan.arg_calls, scan.calls),
                                                  "evals/call"),
            "models.atom_scan.self_ms_per_call": (per(scan.self_time, scan.calls, 1e3),
                                                  "ms"),
            "models.atom_scan.atoms_per_kilo_eval": (
                per(scan.items, scan.arg_calls, 1e3), "atoms/kEval"),
            "extensions.bcmap_us_per_call": (
                per(s["extensions.bcmap"].total, s["extensions.bcmap"].calls, 1e6), "us"),
            "oracle.l2_eigenvalues_fd.s_total": (s["oracle.l2_eigenvalues_fd"].total, "s"),
            "oracle.quad_inner.calls": (s["oracle.quad_inner"].calls, "count"),
            "oracle.quad_inner.ms_total": (s["oracle.quad_inner"].total * 1e3, "ms"),
        }
        for n in range(1, 13):
            m[f"checks.criterion_{n:02d}_s"] = (float(self.criteria.get(n, 0.0)), "s")
        return m
