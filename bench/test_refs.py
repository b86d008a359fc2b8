"""Tests of the benchmark's reference formulas, without clarkspectra.

Run from the root of the checkout:

    python3 -m pytest -q bench/test_refs.py
"""

import cmath
import math

import numpy as np
import pytest
from scipy import integrate

import refs


@pytest.mark.parametrize("sigma", [0.2, 0.7, 1.0, 1.9, 3.0])
def test_k1_robin_mass_budget(sigma):
    """Density integral plus the normalized bound-state weight is 1, the
    rank of K1. The coupling of the Robin condition sigma f(0) + f'(0) = 0
    is the alpha with an atom at the bound state, B(-sigma^2) = alpha."""
    s0 = -sigma ** 2
    alpha = refs.k1_b(s0)
    assert abs(abs(alpha) - 1.0) < 1e-14
    ac, err = integrate.quad(lambda u: 2.0 * u * refs.k1_density(alpha, u * u),
                             0.0, math.inf, epsabs=1e-14, epsrel=1e-13,
                             limit=400)
    assert err < 1e-11
    weight = refs.k1_atom_weight(alpha, s0)
    assert weight > 0.0
    total = ac + math.pi * (1.0 + s0 * s0) * weight
    assert abs(total - 1.0) <= 1e-10


def test_k1_derivative_matches_difference_quotient():
    for s in (-4.0, -0.3, 0.8, 6.0):
        h = 1e-6 * (1.0 + abs(s))
        fd = (refs.k1_b(s + h) - refs.k1_b(s - h)) / (2.0 * h)
        assert abs(fd - refs.k1_db(s)) <= 1e-7 * abs(fd)


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("theta", [-2.9, -0.4, 1.3, 3.1])
def test_l1_weights_sum_to_one(a, theta):
    """sum over the lattice of pi (1 + s^2) w(s) is 1; the partial sum over
    |n| <= N misses at most the analytic tail bound."""
    alpha = cmath.exp(1j * theta)
    base = refs.l1_base(alpha, a)
    h = math.pi / a
    assert abs(math.tan(base * a) + math.tanh(a) / math.tan(theta / 2.0)) < 1e-12
    big_n = 4000
    total = math.fsum(math.pi * (1.0 + s * s) * refs.l1_weight(a, s)
                      for s in (base + n * h for n in range(-big_n, big_n + 1)))
    bound = refs.l1_tail_bound(a, (big_n + 1) * h - abs(base))
    assert bound < 1e-3
    assert 1.0 - bound <= total <= 1.0 + 1e-12


@pytest.mark.parametrize("bc", sorted(refs.L2_BOUNDARY))
@pytest.mark.parametrize("a", [0.5, 1.3, 2.0])
def test_l2_eigenvalues_meet_the_boundary_condition(bc, a):
    """Each reference eigenvalue makes the boundary system singular with
    the expected multiplicity, and no s strictly between two of them does."""
    evs = refs.l2_eigenvalues(bc, a, 10)
    assert all(x < y for x, y in zip(evs, evs[1:]))
    for i, s in enumerate(evs):
        sv = np.linalg.svd(refs.l2_boundary_system(bc, a, s), compute_uv=False)
        double = bc == "antiperiodic" or (bc == "periodic" and i > 0)
        scale = max(1.0, sv[0])
        assert sv[-1] <= 1e-12 * scale
        assert (sv[0] <= 1e-12 * scale) == double
    for lo, hi in zip(evs, evs[1:]):
        for s in np.linspace(lo, hi, 202)[1:-1]:
            sv = np.linalg.svd(refs.l2_boundary_system(bc, a, s), compute_uv=False)
            assert sv[-1] > 1e-6 * max(1.0, sv[0])
