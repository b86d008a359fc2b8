"""Mass budget of the boundary measure across a phase family of couplings.

For each coupling alpha = exp(i theta) (scalar, or that multiple of the
identity for the rank-two models) the script integrates the trace of the
absolutely continuous density over a real window with the trapezoid rule,
scans a second window for atoms, and adds the normalized atom masses
pi (1 + s^2) tr mu({s}). When the two windows cover the spectrum, the
budget column approaches the model rank; whatever is missing sits outside
the windows or in the trapezoid error. The interval models are purely
atomic, so their ac column is exactly zero and the lattice carries the
whole budget.

Typical runs:

    python3 scripts/density_sweep.py --model k1 --phases 9
    python3 scripts/density_sweep.py --model k2 --grid 0.001:120:600
    python3 scripts/density_sweep.py --model l1 --a 1 --grid=-20:20:81 \
        --atom-window=-20:20
"""

import argparse
import cmath
import math
import sys

import numpy as np

from clarkspectra import clark, livsic, models


def make_model(name, a):
    return {"k1": models.k1, "k2": models.k2,
            "l1": lambda: models.l1(a), "l2": lambda: models.l2(a)}[name]()


def phase_coupling(model, theta):
    return cmath.exp(1j * theta) * np.eye(model.rank, dtype=complex)


def parse_range(text, count_default):
    parts = text.split(":")
    lo, hi = float(parts[0]), float(parts[1])
    count = int(parts[2]) if len(parts) > 2 else count_default
    return lo, hi, count


def mass_budget(model, theta, grid, atom_window):
    b = livsic.livsic_function(model)
    alpha = phase_coupling(model, theta)
    dens = np.trace(clark.ac_density(b, alpha, grid), axis1=1, axis2=2).real
    ac_part = float(np.trapezoid(dens, grid))
    atoms, masses = clark.atom_scan(b, alpha, atom_window)
    atom_part = sum(math.pi * (1.0 + s * s) * float(np.trace(m).real)
                    for s, m in zip(atoms, masses))
    return ac_part, len(atoms), atom_part


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--model", default="k1", choices=["k1", "k2", "l1", "l2"])
    ap.add_argument("--a", type=float, default=1.0)
    ap.add_argument("--phases", type=int, default=5,
                    help="number of theta samples in (-pi, pi]")
    ap.add_argument("--grid", default="0.001:80:400",
                    help="lo:hi[:count] window for the ac integral")
    ap.add_argument("--atom-window", default="-40:0.5",
                    help="lo:hi window for the atom scan")
    args = ap.parse_args()

    model = make_model(args.model, args.a)
    lo, hi, count = parse_range(args.grid, 400)
    if model.halfline and lo >= 0:
        # the half-line densities behave like s^(+-1/2) at the edge; grading
        # the nodes by sqrt keeps the trapezoid honest there
        grid = np.linspace(math.sqrt(lo), math.sqrt(hi), count) ** 2
    else:
        grid = np.linspace(lo, hi, count)
    wlo, whi, _ = parse_range(args.atom_window, 0)

    print(f"# model {args.model} rank {model.rank}, ac window "
          f"[{lo:g}, {hi:g}] with {count} nodes, atom window [{wlo:g}, {whi:g}]")
    print(f"{'theta/pi':>9} {'atoms':>6} {'ac integral':>13} "
          f"{'atom mass':>13} {'budget':>13}")
    for k in range(args.phases):
        theta = -math.pi + 2.0 * math.pi * (k + 1) / args.phases
        ac_part, n_atoms, atom_part = mass_budget(
            model, theta, grid, (wlo, whi))
        print(f"{theta / math.pi:9.4f} {n_atoms:6d} {ac_part:13.8f} "
              f"{atom_part:13.8f} {ac_part + atom_part:13.8f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
