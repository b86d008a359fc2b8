"""Reference values the benchmark checks clarkspectra's answers against.

Everything here is written from the paper's formulas with numpy and the
standard library only; nothing imports clarkspectra. The half-line model K1
(-d^2/dx^2 on (0, inf)) has the closed characteristic function

    B(s) = (s - sqrt(2 s) + 1) / (s + i),

taken on the real axis as the limit from the upper half-plane (so
sqrt(2 s) = i sqrt(2 |s|) for s < 0, where |B| = 1). The interval models
L1 (i d/dx) and L2 (-d^2/dx^2) on (-a, a) have explicit atom lattices.
"""

from __future__ import annotations

import cmath
import math

import numpy as np


def k1_b(s):
    """Closed-form K1 characteristic function at the real point s."""
    s = float(s)
    return (s - cmath.sqrt(complex(2.0 * s, 0.0)) + 1.0) / complex(s, 1.0)


def k1_db(s):
    """d B / d s of the K1 characteristic function at a real s != 0."""
    s = float(s)
    root = cmath.sqrt(complex(2.0 * s, 0.0))
    num = s - root + 1.0
    den = complex(s, 1.0)
    return ((1.0 - 1.0 / root) * den - num) / (den * den)


def k1_density(alpha, s):
    """rho(s) = (1 - |B|^2) / (pi (1 + s^2) |alpha - B|^2), zero for s <= 0."""
    s = float(s)
    if s <= 0.0:
        return 0.0
    b = k1_b(s)
    return (1.0 - abs(b) ** 2) / (math.pi * (1.0 + s * s) * abs(alpha - b) ** 2)


def k1_atom_weight(alpha, s):
    """Residue weight 2i / (pi (1 + s^2)^2 conj(alpha) B'(s)) of a K1 atom."""
    s = float(s)
    w = 2j / (math.pi * (1.0 + s * s) ** 2 * complex(alpha).conjugate() * k1_db(s))
    return w.real


def l1_base(alpha, a):
    """Lattice base s_0 in [-pi/(2a), pi/(2a)) of the L1 atoms:
    tan(s a) = -tanh(a) cot(theta / 2) with alpha = e^{i theta}."""
    theta = cmath.phase(alpha)
    return math.atan(-math.tanh(a) / math.tan(theta / 2.0)) / a


def l1_weight(a, s):
    """(cosh 2a - cos 2sa) / (a pi sinh 2a (1 + s^2)^2)."""
    return ((math.cosh(2.0 * a) - math.cos(2.0 * s * a))
            / (a * math.pi * math.sinh(2.0 * a) * (1.0 + s * s) ** 2))


def l1_tail_bound(a, smin):
    """Upper bound on sum pi (1 + s^2) w(s) over L1 atoms with |s| > smin.

    The summand is at most coth(a) / (a (1 + s^2)) <= coth(a) / (a s^2), and
    each side of the lattice (spacing pi / a) beyond smin sums to at most
    1 / smin^2 + a / (pi smin) by comparison with the integral.
    """
    per_side = 1.0 / smin ** 2 + a / (math.pi * smin)
    return 2.0 * per_side / (a * math.tanh(a))


# L2 boundary conditions beta_a hat(f)(-a) + beta_b hat(f)(a) = 0 with
# hat(f) = (f, f'), and the k of the eigenvalues s = k^2 they produce.
L2_BOUNDARY = {
    "dirichlet": ([[1, 0], [0, 0]], [[0, 0], [1, 0]]),
    "periodic": ([[1, 0], [0, 1]], [[-1, 0], [0, -1]]),
    "antiperiodic": ([[1, 0], [0, 1]], [[1, 0], [0, 1]]),
}


def l2_eigenvalues(bc, a, count):
    """The first count distinct eigenvalues of -f'' = s f on (-a, a):
    (n pi / 2a)^2, n >= 1 (Dirichlet); (n pi / a)^2, n >= 0 (periodic);
    ((2n + 1) pi / 2a)^2, n >= 0 (antiperiodic)."""
    if bc == "dirichlet":
        ks = [n * math.pi / (2.0 * a) for n in range(1, count + 1)]
    elif bc == "periodic":
        ks = [n * math.pi / a for n in range(count)]
    elif bc == "antiperiodic":
        ks = [(2 * n + 1) * math.pi / (2.0 * a) for n in range(count)]
    else:
        raise ValueError(f"unknown boundary condition {bc!r}")
    return [k * k for k in ks]


def l2_boundary_system(bc, a, s):
    """beta_a Y(-a) + beta_b Y(a) for the fundamental matrix
    Y(x) = [[cos kx, sin(kx)/k], [-k sin kx, cos kx]], k = sqrt(s).

    Its kernel is the space of solutions of -f'' = s f that meet the
    boundary condition, so s is an eigenvalue of multiplicity m exactly when
    the matrix has nullity m."""
    beta_a, beta_b = (np.array(m, dtype=float) for m in L2_BOUNDARY[bc])
    k = math.sqrt(s)

    def fundamental(x):
        if k == 0.0:
            return np.array([[1.0, x], [0.0, 1.0]])
        return np.array([[math.cos(k * x), math.sin(k * x) / k],
                         [-k * math.sin(k * x), math.cos(k * x)]])

    return beta_a @ fundamental(-a) + beta_b @ fundamental(a)
