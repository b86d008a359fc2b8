"""Wall time of the characteristic function and of the atom scan, per model.

B is timed through the SchurFunction's one entry, as the density, the
scan and the point masses call it, at 1, 64 and 512 real points (one
block), in microseconds per point, alone and with B' beside it (the
point masses and the scan's Newton rounds). The atom scan is
clark.atom_scan on a fixed window and coupling per model, in milliseconds
per call, beside its deterministic work: the calls of B it makes and the
points they carry. The oracle is timed in milliseconds per call on two
inputs of the verify battery: the one stacked quad_inner of the K2 rates
at 20 points against both defect bases, as criterion 10 makes it per
model, and l2_eigenvalues on criterion 7's Dirichlet window at a = 1;
beside them, the oracle's deterministic work in one battery: the calls of
the root search's function per l2_eigenvalues of criterion 7, its
_interval_matrix calls and the quad_inner calls of all the criteria. A
density --format json request is timed in process through cli.main, in
milliseconds, on each half-line model at 20 and 80 points in s > 0,
beside its two parts: the compute (clark.ac_density on a new
SchurFunction, as the request makes it) and the write (the JSON text of
the document, printed). Each figure is the best of --repeat runs, so it
is the cost of the code, not of the machine's other load. Prints one JSON
line.

Typical run:

    PYTHONPATH=src python3 scripts/layer_timing.py --repeat 20
"""

import argparse
import contextlib
import io
import json
import math
import os
import time
from dataclasses import replace
from functools import partial
from unittest import mock

import numpy as np

from clarkspectra import checks, clark, cli, extensions, livsic, models, oracle
from clarkspectra.cplane import random_unitary

SIZES = (1, 64, 512)


def scans():
    """(model, alpha, window) per model: windows like the benchmark's
    atoms requests, each holding a few atoms."""
    robin = extensions.BoundaryMatrices([[2.0, 1.0]], np.empty((1, 0)))
    return [
        (models.k1(), extensions.alpha_from_bc_regular(models.k1(), robin),
         (-10.0, 0.5)),
        (models.k2(), -np.eye(2), (-40.0, 0.5)),
        (models.l1(1.0), [[np.exp(0.7j)]], (-20.0, 20.0)),
        (models.l2(1.0), random_unitary(2, np.random.default_rng([3, 4])),
         (-5.0, 60.0)),
    ]


def oracle_calls():
    """name -> call: the K2 pairing block of criterion 10 over its 20
    points, and the criterion-7 Dirichlet determinant roots at a = 1."""
    points = checks._points_10(np.random.default_rng([0, 10]))
    window = (-1.0, (5.0 * math.pi / 2.0) ** 2 * 1.05 + 1.0)
    return {
        "quad_inner_k2_block": partial(checks._pairings, models.k2(), points),
        "l2_eigenvalues_dirichlet": partial(oracle.l2_eigenvalues,
                                            checks._dirichlet_bm(), 1.0, window),
    }


def oracle_counts():
    """The oracle's deterministic work in one battery (seed 0): the calls
    of the root search's function, both ends included, per l2_eigenvalues
    of criterion 7 (Dirichlet and periodic at a = 1, then at a = pi/2),
    the _interval_matrix calls (all of them criterion 7's) and the
    quad_inner calls of all twelve criteria."""
    roots, matrices, quads = [], [], []
    bisect, interval_matrix, quad_inner, l2_eigenvalues = (
        oracle._bisect, oracle._interval_matrix, oracle.quad_inner,
        oracle.l2_eigenvalues)

    def counted_bisect(fn, *args):
        def fn_counted(s):
            roots[-1] += 1
            return fn(s)
        return bisect(fn_counted, *args)
    patches = {
        "_bisect": counted_bisect,
        "_interval_matrix": lambda *a: matrices.append(1) or interval_matrix(*a),
        "quad_inner": lambda *a: quads.append(1) or quad_inner(*a),
        "l2_eigenvalues": lambda *a: roots.append(0) or l2_eigenvalues(*a),
    }
    with contextlib.ExitStack() as stack:
        for name, fn in patches.items():
            stack.enter_context(mock.patch.object(oracle, name, fn))
        checks.run_all(seed=0)
    return {"l2_eigenvalues_root_search_calls": roots,
            "interval_matrix_calls": len(matrices), "quad_inner_calls": len(quads)}


def counted(b):
    """b with its evaluations counted: (the SchurFunction, the list of the
    point counts of its calls, appended to as it is called)."""
    sizes = []

    def fn(w, derivative=False):
        sizes.append(np.size(w))
        return b(w, derivative)

    return replace(b, fn=fn), sizes


def density(model, alpha, grid):
    """The compute of a density request: clark.ac_density on a new B."""
    return clark.ac_density(livsic.livsic_function(model), alpha, grid)


def density_requests():
    """(model name, point count, request, compute, write) per half-line
    model and point count: a density request like the benchmark's through
    cli.main, and the calls of its two parts."""
    rng = np.random.default_rng([3, 5])
    out = []
    for key, model in (("k1", models.k1()), ("k2", models.k2())):
        alpha = random_unitary(model.rank, rng)
        alpha_arg = json.dumps([[{"re": z.real, "im": z.imag} for z in row]
                                for row in alpha.tolist()])
        for count in (20, 80):
            grid = np.linspace(0.25, 30.0, count)
            argv = ["density", "--model", key, f"--alpha={alpha_arg}",
                    f"--grid=0.25:30.0:{count}", "--format", "json"]
            out.append((model.name, str(count), partial(quiet, cli.main, argv),
                        partial(density, model, alpha, grid),
                        partial(quiet, cli._print_measure, key, alpha, grid,
                                density(model, alpha, grid), [], [])))
    return out


def quiet(fn, *args):
    """fn(*args) with its standard output discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


def best(fn, repeat):
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=20,
                        help="runs per figure, the best one counts")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    b_us, db_us, scan_ms, scan_calls, scan_points = {}, {}, {}, {}, {}
    for model, alpha, window in scans():
        b = livsic.livsic_function(model)
        for out, derivative in ((b_us, False), (db_us, True)):
            out[model.name] = {
                str(size): round(1e6 * best(partial(b, np.linspace(0.1, 30.0, size),
                                                    derivative), args.repeat) / size, 3)
                for size in SIZES}
        scan_ms[model.name] = round(
            1e3 * best(partial(clark.atom_scan, b, alpha, window), args.repeat), 3)
        b, sizes = counted(b)
        clark.atom_scan(b, alpha, window)
        scan_calls[model.name], scan_points[model.name] = len(sizes), sum(sizes)
    oracle_ms = {name: round(1e3 * best(call, args.repeat), 3)
                 for name, call in oracle_calls().items()}
    cli_ms = {}
    for name, count, *calls in density_requests():
        cli_ms.setdefault(name, {})[count] = {
            part: round(1e3 * best(call, args.repeat), 3)
            for part, call in zip(("request", "compute", "write"), calls)}
    print(json.dumps({"b_us_per_point": b_us, "b_with_derivative_us_per_point": db_us,
                      "atom_scan_ms": scan_ms, "atom_scan_b_calls": scan_calls,
                      "atom_scan_b_points": scan_points,
                      "oracle_ms": oracle_ms, "oracle_counts": oracle_counts(),
                      "cli_ms": cli_ms,
                      "repeat": args.repeat, "cpus": os.cpu_count(),
                      "numpy": np.__version__}))


if __name__ == "__main__":
    main()
