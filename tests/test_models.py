import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clarkspectra import livsic, models
from clarkspectra.cplane import random_unitary
from clarkspectra.errors import (DomainError, NonUnitaryError, SingularError,
                                 ToleranceError)

phases = st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False)
lengths = st.floats(min_value=0.2, max_value=2.5, allow_nan=False)


def test_model_factories_and_hashability():
    m = models.k2()
    assert (m.rank, m.order, m.halfline) == (2, 4, True)
    assert (models.k1().rank, models.k1().order) == (1, 2)
    assert (models.l1(1.0).rank, models.l1(1.0).order) == (1, 1)
    assert (models.l2(1.0).rank, models.l2(1.0).order) == (2, 2)
    assert models.l1(1.0) == models.l1(1.0)
    assert hash(models.l2(0.5)) == hash(models.l2(0.5))
    with pytest.raises(DomainError):
        models.l1(-1.0)
    with pytest.raises(DomainError):
        models.l2(0.0)


def test_raw_rates_square_integrable_and_consistent():
    for m in (models.k1(), models.k2()):
        for w in (1j, 2.0 + 0.1j, -3.0 + 2.0j):
            for r in m.raw_rates(w):
                assert r.real < 0
                # rates are characteristic roots: (i r)^order = w
                assert abs(m.expression_eigenvalue(r) - w) < 1e-12
    for m in (models.l1(1.0), models.l2(1.0)):
        for w in (1j, 2.0 + 0.1j):
            for r in m.raw_rates(w):
                assert abs(m.expression_eigenvalue(r) - w) < 1e-12


def test_k2_rates_at_center():
    up = models.k2().raw_rates(1j)
    expect = (cmath.exp(1j * 5 * math.pi / 8), -cmath.exp(1j * math.pi / 8))
    assert all(abs(a - b) < 1e-14 for a, b in zip(up, expect))
    lo = models.k2().raw_rates(-1j)
    expect_lo = (-cmath.exp(-1j * math.pi / 8), cmath.exp(-1j * 5 * math.pi / 8))
    assert all(abs(a - b) < 1e-14 for a, b in zip(lo, expect_lo))


def test_k1_livsic_closed_identities():
    # rational form (w - sqrt(2w) + 1)/(w + i) equals the factored form
    # gamma(w) (sqrt(w) - e^{-i pi/4})/(sqrt(w) + e^{i pi/4})
    from clarkspectra.cplane import principal_power
    for w in (0.5 + 0.2j, 2.0 + 1.0j, -1.0 + 0.5j, 3.0 + 0.0j):
        got = models.k1_livsic(w)
        root = principal_power(w, 0.5)
        ref = (w - math.sqrt(2) * root + 1) / (w + 1j)
        factored = ((w - 1j) / (w + 1j)) * (
            (root - cmath.exp(-1j * math.pi / 4))
            / (root + cmath.exp(1j * math.pi / 4)))
        assert got == pytest.approx(ref)
        assert got == pytest.approx(factored)
    assert abs(models.k1_livsic(1j)) < 1e-15


def test_k1_density_spot_value_and_support():
    ref = math.sqrt(2) / (6 * math.pi)
    assert models.k1_density(-1.0, 1.0) == pytest.approx(ref, rel=1e-14)
    assert models.k1_density(1.0, -2.0) == 0.0
    assert models.k1_density(1j, 0.0) == 0.0
    with pytest.raises(NonUnitaryError):
        models.k1_density(0.5, 1.0)


@given(phases, st.floats(min_value=0.01, max_value=50.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_k1_density_nonnegative(theta, s):
    alpha = cmath.exp(1j * theta)
    assert models.k1_density(alpha, s) >= 0.0


def test_k1_density_total_mass():
    # Herglotz normalization: int rho ds + sum pi (1+s^2) mu({s}) = 1.
    # alpha = 1 puts no mass below zero; alpha = -1 has an atom at -1/2.
    from scipy.integrate import quad
    from clarkspectra.oracle import k1_bound_state_check
    val, err = quad(lambda s: models.k1_density(1.0, s), 0.0, np.inf,
                    limit=400)
    assert err < 1e-7
    assert val == pytest.approx(1.0, abs=1e-7)
    val2, _ = quad(lambda s: models.k1_density(-1.0, s), 0.0, np.inf,
                   limit=400)
    loc, mass = k1_bound_state_check(1.0, math.sqrt(2.0))
    assert loc == pytest.approx(-0.5, abs=1e-12)
    total = val2 + math.pi * (1 + loc * loc) * mass
    assert total == pytest.approx(1.0, abs=1e-7)


def test_k2_density_hermitian_psd_and_mass():
    rng = np.random.default_rng(4)
    alpha = random_unitary(2, rng)
    for s in (0.4, 1.0, 6.0):
        rho = models.k2_density(alpha, s)
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
        assert np.min(np.linalg.eigvalsh(rho)) > -1e-12
    assert np.max(np.abs(models.k2_density(alpha, -1.0))) == 0.0


def test_k2_density_total_mass_trace():
    # trace normalization int tr rho ds + sum pi (1+s^2) tr mu({s}) = rank;
    # alpha = I carries one bound state near -6.057
    from scipy.integrate import quad
    from clarkspectra import clark
    alpha = np.eye(2)
    f = lambda s: float(np.trace(models.k2_density(alpha, s)).real)
    val, err = quad(f, 0.0, np.inf, limit=600)
    b = livsic.livsic_function(models.k2())
    atoms = models.atom_scan(b, alpha, (-30.0, -1e-4), step=0.05)
    assert len(atoms) == 1
    assert atoms[0] == pytest.approx(-6.0568, abs=1e-3)
    tr_mass = float(np.trace(clark.point_mass(b, alpha, atoms[0])).real)
    total = val + math.pi * (1 + atoms[0] ** 2) * tr_mass
    assert total == pytest.approx(2.0, abs=1e-6)


def test_l1_atoms_lattice_structure():
    locs = models.l1_atoms(1.0, 1.0, (-2, 2))
    assert locs == pytest.approx([(-2 + 0.5) * math.pi, -0.5 * math.pi,
                                  0.5 * math.pi, 1.5 * math.pi, 2.5 * math.pi])
    locs_iter = models.l1_atoms(1.0, 1.0, [0, -1])
    assert sorted(locs_iter) == pytest.approx([-0.5 * math.pi, 0.5 * math.pi])
    base = models.l1_atoms(-1.0, 2.0, (0, 0))
    assert base == pytest.approx([0.0])
    with pytest.raises(NonUnitaryError):
        models.l1_atoms(2.0, 1.0, (-1, 1))


@given(phases, lengths, st.integers(min_value=-6, max_value=6))
@settings(max_examples=60, deadline=None)
def test_l1_weight_nonnegative_on_lattice(theta, a, n):
    alpha = cmath.exp(1j * theta)
    s = models.l1_atoms(alpha, a, (n, n))[0]
    w = models.l1_weight(alpha, a, s)
    assert w > 0


def test_l1_weight_closed_values_and_off_lattice_guard():
    a = 1.0
    s = math.pi / 2
    ref = (math.cosh(2 * a) - math.cos(2 * s * a)) / (
        a * math.pi * math.sinh(2 * a) * (1 + s * s) ** 2)
    assert models.l1_weight(1.0, a, s) == pytest.approx(ref, rel=1e-14)
    assert models.l1_weight(1.0, a, s) == pytest.approx(
        math.cosh(a) / math.sinh(a) / (math.pi * (1 + s * s) ** 2), rel=1e-12)
    assert models.l1_weight(-1.0, a, 0.0) == pytest.approx(
        math.tanh(a) / (a * math.pi), rel=1e-12)
    with pytest.raises(DomainError):
        models.l1_weight(1.0, a, 0.3)


@given(phases, lengths)
@settings(max_examples=40, deadline=None)
def test_l1_total_mass_partial_sums(theta, a):
    # sum of pi (1 + s^2) mu({s}) over the lattice approaches 1 from below
    alpha = cmath.exp(1j * theta)
    total = sum(math.pi * (1 + s * s) * models.l1_weight(alpha, a, s)
                for s in models.l1_atoms(alpha, a, (-300, 300)))
    assert total < 1.0 + 1e-12
    assert total > 0.95


def test_l1_nonneg_product_check():
    # at every atom the truncated product is positive and squeezes the
    # closed weight from above (each omitted tail factor lies in (0, 1))
    a = 1.0
    for s in models.l1_atoms(1j, a, (-2, 2)):
        out = models.l1_nonneg_product_check(1j, a, s, big_k=4000)
        assert out.sign == 1
        w = models.l1_weight(1j, a, s)
        assert out.value >= w > 0.99 * out.value
    with pytest.raises(DomainError):
        models.l1_nonneg_product_check(1.0, a, 1.0, big_k=100)
    with pytest.raises(DomainError):
        models.l1_nonneg_product_check(1j, a, 50.0, big_k=3)


def test_atom_scan_recovers_l1_lattice():
    b = livsic.livsic_function(models.l1(1.0))
    closed = models.l1_atoms(1j, 1.0, (-2, 2))
    found = models.atom_scan(b, [[1j]], (closed[0] - 0.4, closed[-1] + 0.4),
                             step=math.pi / 8)
    assert len(found) == len(closed)
    assert max(abs(f - c) for f, c in zip(found, closed)) < 1e-9


def test_atom_scan_k2_locations_feed_point_mass():
    # the golden bracket alone leaves ~1e-11 location error, which stalls
    # the point-mass ladder; the polish step must land close enough that
    # both negative atoms of this coupling yield convergent masses
    from clarkspectra import clark
    b = livsic.livsic_function(models.k2())
    alpha = -np.eye(2, dtype=complex)
    locs = models.atom_scan(b, alpha, (-1.0, -0.01), step=math.pi / 16)
    assert len(locs) == 2
    total = 0.0
    for s in locs:
        mass = clark.point_mass(b, alpha, s)
        tr = float(np.trace(mass).real)
        assert tr > 0
        total += math.pi * (1.0 + s * s) * tr
    # atom block of the normalized trace measure, strictly inside (0, rank)
    assert total == pytest.approx(1.5435932, abs=1e-4)


def test_atom_scan_empty_window_and_bad_input():
    b = livsic.livsic_function(models.l1(1.0))
    # alpha = 1 atoms sit at (n + 1/2) pi; a window strictly between two
    assert models.atom_scan(b, [[1.0]], (1.8, 2.8), step=0.1) == []
    with pytest.raises(DomainError):
        models.atom_scan(b, [[1.0]], (2.0, 1.0), step=0.1)

    # a grid of 2e10 points (about 150 GiB) or a bad step is refused before
    # any allocation or B evaluation
    def never(s):
        raise AssertionError("B evaluated")

    with pytest.raises(DomainError):
        models.atom_scan(never, [[-1.0]], (-1e9, 0.0), step=0.05)
    for step in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            models.atom_scan(never, [[1.0]], (0.0, 1.0), step=step)


def test_atom_scan_failure_policy():
    def typo(s):
        raise TypeError("programming error")

    with pytest.raises(TypeError):
        models.atom_scan(typo, [[1.0]], (0.0, 1.0), step=0.1)

    def overflow(s):
        raise OverflowError("math range error")

    assert models.atom_scan(overflow, [[1.0]], (0.0, 1.0), step=0.1) == []


def test_l2_atoms_dirichlet_lattice():
    from clarkspectra import extensions
    m = models.l2(1.0)
    bm = extensions.BoundaryMatrices([[1, 0], [0, 0]], [[0, 0], [1, 0]])
    alpha = extensions.alpha_from_bc_regular(m, bm)
    atoms = models.l2_atoms(alpha, 1.0, (-1.0, 26.0))
    expect = [(k * math.pi / 2) ** 2 for k in (1, 2, 3)]
    assert len(atoms) == 3
    assert max(abs(x - y) for x, y in zip(atoms, expect)) < 1e-8


def test_l2_atoms_periodic_includes_zero():
    from clarkspectra import extensions
    m = models.l2(1.0)
    bm = extensions.BoundaryMatrices(np.eye(2), -np.eye(2))
    alpha = extensions.alpha_from_bc_regular(m, bm)
    atoms = models.l2_atoms(alpha, 1.0, (-0.5, 11.0))
    assert len(atoms) == 2
    assert abs(atoms[0]) < 1e-8
    assert abs(atoms[1] - math.pi ** 2) < 1e-8
