import math

import numpy as np
import pytest

from clarkspectra import clark, livsic, models
from clarkspectra.cplane import cayley, inv_cayley, random_unitary
from clarkspectra.errors import (DimensionError, NonUnitaryError,
                                 SingularError, ToleranceError)


@pytest.fixture(scope="module")
def b_k1():
    return livsic.livsic_function(models.k1())


@pytest.fixture(scope="module")
def b_l1():
    return livsic.livsic_function(models.l1(1.0))


def test_check_alpha_guards():
    with pytest.raises(NonUnitaryError):
        clark.check_alpha([[0.5]], 1)
    with pytest.raises(NonUnitaryError):
        clark.check_alpha([[np.nan]], 1)
    with pytest.raises(DimensionError):
        clark.check_alpha(np.eye(2), 1)
    out = clark.check_alpha(1j * np.eye(2), 2)
    assert out.shape == (2, 2)


def test_ac_density_matches_closed_scalar(b_k1):
    for alpha in (1.0, -1.0, 1j):
        for s in (0.5, 2.0, 10.0):
            got = clark.ac_density(b_k1, [[alpha]], s)[0, 0].real
            ref = models.k1_density(alpha, s)
            assert got == pytest.approx(ref, rel=1e-7)


def test_ac_density_vanishes_off_support(b_k1):
    val = clark.ac_density(b_k1, [[1.0]], -3.0)[0, 0]
    assert abs(val) < 1e-10


def test_ac_density_disk_consistency(b_k1):
    # the disk-side value divided by pi (1 + s^2) is the half-plane density
    s = 1.0
    alpha = np.array([[-1.0 + 0.0j]])
    disk_b = lambda zeta: b_k1(inv_cayley(zeta))
    disk_val = clark.ac_density_disk(disk_b, alpha, cayley(s))[0, 0].real
    half_val = clark.ac_density(b_k1, alpha, s)[0, 0].real
    assert disk_val / (math.pi * (1 + s * s)) == pytest.approx(half_val, rel=1e-6)
    assert half_val == pytest.approx(math.sqrt(2) / (6 * math.pi), rel=1e-7)


def test_point_mass_on_and_off_atoms(b_l1):
    s0 = math.pi / 2  # alpha = 1 atom
    mass = clark.point_mass(b_l1, [[1.0]], s0)[0, 0].real
    ref = models.l1_weight(1.0, 1.0, s0)
    assert mass == pytest.approx(ref, rel=1e-6)
    off = clark.point_mass(b_l1, [[1.0]], 0.7)[0, 0]
    assert abs(off) < 1e-9


def test_point_mass_is_hermitian_psd_matrix_case():
    from clarkspectra import extensions
    m = models.l2(1.0)
    b = livsic.livsic_function(m)
    bm = extensions.BoundaryMatrices(np.eye(2), -np.eye(2))
    alpha = extensions.alpha_from_bc_regular(m, bm)
    mass = clark.point_mass(b, alpha, math.pi ** 2)
    assert np.max(np.abs(mass - mass.conj().T)) < 1e-10
    assert np.min(np.linalg.eigvalsh(mass)) > -1e-10
    assert np.trace(mass).real > 1e-8


def test_nevanlinna_positive_hermitian_part(b_k1):
    rng = np.random.default_rng(2)
    for _ in range(20):
        w = complex(rng.uniform(-5, 5), rng.uniform(0.1, 4.0))
        h = clark.nevanlinna(b_k1, [[1j]], w)
        herm = (h + h.conj().T) / 2
        assert np.min(np.linalg.eigvalsh(herm)) > -1e-11


def test_conjugation_check_scalar_and_matrix():
    rng = np.random.default_rng(9)
    b1 = livsic.livsic_function(models.k1())
    res = clark.conjugation_check(b1, [[np.exp(0.7j)]], [[np.exp(-0.3j)]],
                                  [[1.0]], 2.0, kind="ac")
    assert res < 1e-8
    b2 = livsic.livsic_function(models.k2())
    r = random_unitary(2, rng)
    q = random_unitary(2, rng)
    alpha = random_unitary(2, rng)
    res2 = clark.conjugation_check(b2, r, q, alpha, 1.5, kind="ac")
    assert res2 < 1e-7
    with pytest.raises(ValueError):
        clark.conjugation_check(b1, [[1.0]], [[1.0]], [[1.0]], 2.0, kind="sc")


def test_conjugation_check_atom_kind():
    b = livsic.livsic_function(models.l1(1.0))
    rng = np.random.default_rng(31)
    phase = np.exp(1j * rng.uniform(0, 2 * math.pi))
    res = clark.conjugation_check(b, [[phase]], [[phase.conjugate()]],
                                  [[-1.0]], math.pi, kind="atom")
    assert res < 1e-8


def test_measure_report_validation():
    rep = clark.MeasureReport(model="k1", alpha=np.array([[1.0]]),
                              grid=[1.0, 2.0],
                              density=[np.array([[0.1]]), np.array([[0.2]])],
                              atoms=[(-1.0, np.array([[0.3]]))])
    assert rep.validate()
    bad = clark.MeasureReport(model="k1", alpha=np.array([[1.0]]),
                              grid=[1.0], density=[np.array([[-0.2]])])
    with pytest.raises(ToleranceError):
        bad.validate()
    unsorted = clark.MeasureReport(model="l1", alpha=np.array([[1.0]]),
                                   atoms=[(2.0, np.array([[0.1]])),
                                          (1.0, np.array([[0.1]]))])
    with pytest.raises(ToleranceError):
        unsorted.validate()


def test_density_at_an_atom_fails_loudly(b_l1):
    # the ladder blows up like 1/eps at an atom; that must not pass silently
    from clarkspectra.errors import ConvergenceError
    with pytest.raises((ConvergenceError, SingularError)):
        clark.ac_density(b_l1, [[1.0]], math.pi / 2)
