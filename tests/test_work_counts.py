"""Deterministic work counts: B evaluations per boundary value and per scan.

Wall time on a shared machine is noisy; the number of characteristic-function
evaluations a routine makes is not, so these counts pin the cost of the
boundary-limit ladder and of the atom scan.
"""

import math

import numpy as np

from clarkspectra import clark, extensions, livsic, models


class CountingB:
    def __init__(self, model):
        self.b = livsic.livsic_function(model)
        self.calls = 0

    def __call__(self, w):
        self.calls += 1
        return self.b(w)


def test_ladder_evaluation_counts():
    b = CountingB(models.k1())
    clark.ac_density(b, [[-1.0]], 1.0)
    assert b.calls == 8
    b = CountingB(models.k2())
    clark.ac_density(b, np.eye(2), 1.5)
    assert b.calls == 8
    b = CountingB(models.l1(1.0))
    clark.point_mass(b, [[1.0]], math.pi / 2)
    assert b.calls == 7


def test_l2_dirichlet_scan_counts():
    model = models.l2(1.0)
    bm = extensions.BoundaryMatrices([[1, 0], [0, 0]], [[0, 0], [1, 0]])
    alpha = extensions.alpha_from_bc_regular(model, bm)
    b = CountingB(model)
    atoms = models.atom_scan(b, alpha, (-1.0, 26.0), step=math.pi / 8)
    assert b.calls == 280
    assert len(atoms) == 3
