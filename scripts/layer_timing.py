"""Wall time of the characteristic function and of the atom scan, per model.

B is timed through the SchurFunction's fn, as the density, the scan and
the residues call it, at 1, 64 and 512 real points (one block), in
microseconds per point. The atom scan is clark.atom_scan on a fixed window
and coupling per model, in milliseconds per call. Each figure is the best
of --repeat runs, so it is the cost of the code, not of the machine's
other load. Prints one JSON line.

Typical run:

    PYTHONPATH=src python3 scripts/layer_timing.py --repeat 20
"""

import argparse
import json
import os
import time
from functools import partial

import numpy as np

from clarkspectra import clark, extensions, livsic, models
from clarkspectra.cplane import random_unitary

SIZES = (1, 64, 512)


def scans():
    """(model, alpha, window) per model: windows like the benchmark's
    atoms requests, each holding a few atoms."""
    return [
        (models.k1(), [[extensions.alpha_from_bc_k1(2.0, 1.0)]], (-10.0, 0.5)),
        (models.k2(), -np.eye(2), (-40.0, 0.5)),
        (models.l1(1.0), [[np.exp(0.7j)]], (-20.0, 20.0)),
        (models.l2(1.0), random_unitary(2, np.random.default_rng([3, 4])),
         (-5.0, 60.0)),
    ]


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
    b_us, scan_ms = {}, {}
    for model, alpha, window in scans():
        b = livsic.livsic_function(model)
        b_us[model.name] = {
            str(size): round(1e6 * best(partial(b.fn, np.linspace(0.1, 30.0, size)),
                                        args.repeat) / size, 3)
            for size in SIZES}
        scan_ms[model.name] = round(
            1e3 * best(partial(clark.atom_scan, b, alpha, window), args.repeat), 3)
    print(json.dumps({"b_us_per_point": b_us, "atom_scan_ms": scan_ms,
                      "repeat": args.repeat, "cpus": os.cpu_count(),
                      "numpy": np.__version__}))


if __name__ == "__main__":
    main()
