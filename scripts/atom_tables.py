"""Atom location and weight tables for the interval models, independent
routes side by side.

l1 mode compares the closed lattice and weight formulas against the generic
scan of the characteristic function, which gives the velocity point mass at
each found location. l2 mode compares the scanned atoms of the rank-two
characteristic function against the roots of the boundary determinant of
-y'' = s y (oracle.l2_eigenvalues) on the same window.

Typical runs:

    python3 scripts/atom_tables.py l1 --theta 1.2 --a 0.8 --n-range=-4..4
    python3 scripts/atom_tables.py l2 --bc periodic --a 1.5 --top 60
"""

import argparse
import cmath
import math
import sys

import numpy as np

from clarkspectra import clark, extensions, livsic, models, oracle

BCS = {
    "dirichlet": lambda: extensions.BoundaryMatrices([[1, 0], [0, 0]],
                                                     [[0, 0], [1, 0]]),
    "periodic": lambda: extensions.BoundaryMatrices(np.eye(2), -np.eye(2)),
    "antiperiodic": lambda: extensions.BoundaryMatrices(np.eye(2), np.eye(2)),
}


def l1_table(args):
    a = args.a
    alpha = cmath.exp(1j * args.theta)
    lo, hi = (int(t) for t in args.n_range.split(".."))
    closed = models.l1_atoms(alpha, a, (lo, hi))
    model = models.l1(a)
    b = livsic.livsic_function(model)
    window = (closed[0] - 0.4 / a, closed[-1] + 0.4 / a)
    scanned, masses = clark.atom_scan(b, [[alpha]], window)
    if len(scanned) != len(closed):
        print(f"scan found {len(scanned)} atoms against {len(closed)} closed "
              f"lattice points; window {window}")
        return 1
    print(f"# l1, a = {a:g}, coupling phase {args.theta:g}")
    print(f"{'s closed':>14} {'ds scan':>10} {'w closed':>14} "
          f"{'dw rel':>10} {'running mass':>13}")
    running = 0.0
    for s_c, s_g, m_g in zip(closed, scanned, masses):
        w_c = models.l1_weight(alpha, a, s_c)
        w_g = float(m_g[0, 0].real)
        running += math.pi * (1.0 + s_c * s_c) * w_c
        print(f"{s_c:14.8f} {abs(s_g - s_c):10.2e} {w_c:14.10f} "
              f"{abs(w_g - w_c) / w_c:10.2e} {running:13.9f}")
    print(f"# running mass tends to 1 as the lattice window grows")
    return 0


def l2_table(args):
    a = args.a
    bm = BCS[args.bc]()
    alpha = extensions.alpha_from_bc_regular(models.l2(a), bm)
    window = (-0.5, args.top)
    atoms, _ = clark.atom_scan(livsic.livsic_function(models.l2(a)), alpha,
                               window)
    roots = oracle.l2_eigenvalues(bm, a, window)
    print(f"# l2, a = {a:g}, {args.bc}, window top {args.top:g}")
    print(f"{'s scan':>14} {'nearest root':>14} {'deviation':>12}")
    for s in atoms:
        near = min(roots, key=lambda v: abs(v - s)) if roots else float("nan")
        print(f"{s:14.8f} {near:14.8f} {abs(near - s):12.3e}")
    distinct = sorted(set(roots))
    print(f"# root count {len(distinct)}, scan count {len(atoms)}, "
          f"double roots {len(roots) - len(distinct)}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    p1 = sub.add_parser("l1")
    p1.add_argument("--theta", type=float, default=0.9,
                    help="coupling phase in radians")
    p1.add_argument("--a", type=float, default=1.0)
    p1.add_argument("--n-range", dest="n_range", default="-3..3")
    p1.set_defaults(func=l1_table)
    p2 = sub.add_parser("l2")
    p2.add_argument("--bc", default="dirichlet", choices=sorted(BCS))
    p2.add_argument("--a", type=float, default=1.0)
    p2.add_argument("--top", type=float, default=40.0,
                    help="upper edge of the eigenvalue window")
    p2.set_defaults(func=l2_table)
    args = ap.parse_args()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
