import cmath
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clarkspectra import clark, livsic, models
from clarkspectra.cplane import random_unitary
from clarkspectra.errors import DomainError, NonUnitaryError

phases = st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False)
lengths = st.floats(min_value=0.2, max_value=2.5, allow_nan=False)


def test_model_factories_and_hashability():
    # a model is its name and a: rank, order and halfline come from the
    # name's row, so a model cannot contradict them, and a name without a
    # row is refused
    assert [f.name for f in fields(models.Model)] == ["name", "a"]
    pinned = {models.k1(): (1, 2, True), models.k2(): (2, 4, True),
              models.l1(1.0): (1, 1, False), models.l2(1.0): (2, 2, False)}
    for model, row in pinned.items():
        assert (model.rank, model.order, model.halfline) == row
    with pytest.raises(DomainError, match="unknown model 'K3'"):
        models.Model("K3")
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
                assert abs((1j * r) ** m.order - w) < 1e-12
    for m in (models.l1(1.0), models.l2(1.0)):
        for w in (1j, 2.0 + 0.1j):
            for r in m.raw_rates(w):
                assert abs((1j * r) ** m.order - w) < 1e-12


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
    from clarkspectra import clark
    rng = np.random.default_rng(4)
    alpha = random_unitary(2, rng)
    b = livsic.livsic_function(models.k2())
    for s in (0.4, 1.0, 6.0):
        rho = clark.ac_density(b, alpha, s)
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
        assert np.min(np.linalg.eigvalsh(rho)) > -1e-12
    assert np.max(np.abs(clark.ac_density(b, alpha, -1.0))) == 0.0


def test_k2_density_total_mass_trace():
    # trace normalization int tr rho ds + sum pi (1+s^2) tr mu({s}) = rank;
    # alpha = I carries one bound state near -6.057
    from scipy.integrate import quad
    from clarkspectra import clark
    alpha = np.eye(2)
    b = livsic.livsic_function(models.k2())
    f = lambda s: float(np.trace(clark.ac_density(b, alpha, s)).real)
    val, err = quad(f, 0.0, np.inf, limit=600)
    atoms, masses = clark.atom_scan(b, alpha, (-30.0, -1e-4))
    assert len(atoms) == 1
    assert atoms[0] == pytest.approx(-6.0568, abs=1e-3)
    tr_mass = float(np.trace(masses[0]).real)
    total = val + math.pi * (1 + atoms[0] ** 2) * tr_mass
    assert total == pytest.approx(2.0, abs=1e-6)


def test_l1_atoms_lattice_structure():
    locs = models.l1_atoms(1.0, 1.0, (-2, 2))
    assert locs == pytest.approx([(-2 + 0.5) * math.pi, -0.5 * math.pi,
                                  0.5 * math.pi, 1.5 * math.pi, 2.5 * math.pi])
    pair = models.l1_atoms(1.0, 1.0, (-1, 0))
    assert pair == pytest.approx([-0.5 * math.pi, 0.5 * math.pi])
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
    # at a = 1e-300, a sinh(2a) underflows: a typed refusal, not NaN
    atom = models.l1_atoms(1.0, 1e-300, (0, 0))[0]
    with pytest.raises(DomainError, match="not finite"):
        models.l1_weight(1.0, 1e-300, atom)


def test_l1_closed_forms_keep_their_digits_on_short_and_long_intervals():
    # B as a ratio of expm1 values matches the generic B at a = 1e-12, where
    # the ratio of plain exponentials was off by 1.8e-5; and it stays
    # finite and unimodular on the axis at a = 400, where e^{2a} overflows
    a = 1e-12
    b = livsic.livsic_function(models.l1(a))
    for w in (-2.0, 0.5, 3.0 + 0.2j, 1j, 2.0 + 5.0j):
        assert abs(models.l1_livsic(w, a) - b(w)[0, 0]) <= 1e-15
    for w in (-2.0, 0.3):
        assert abs(models.l1_livsic(w, 400.0)) == pytest.approx(1.0, abs=1e-15)
    # the weight as 2 (sinh^2 a + sin^2 s_0 a) has no cancellation: at
    # alpha = -1 it is tanh(a)/(a pi (1 + s^2)^2) on s = n pi / a
    for a in (1e-4, 1e-8):
        for n in range(-2, 3):
            s = n * math.pi / a
            ref = math.tanh(a) / (a * math.pi * (1.0 + s * s) ** 2)
            assert models.l1_weight(-1.0, a, s) == pytest.approx(ref, rel=1e-14)


@given(phases, lengths)
@settings(max_examples=40, deadline=None)
def test_l1_weight_array_matches_points(theta, a):
    # one call on the lattice array gives the pointwise values; one point
    # off the lattice refuses the whole array
    alpha = cmath.exp(1j * theta)
    atoms = np.array(models.l1_atoms(alpha, a, (-40, 40)))
    weights = models.l1_weight(alpha, a, atoms)
    assert weights.shape == atoms.shape
    for s, w in zip(atoms, weights):
        point = models.l1_weight(alpha, a, s)
        assert type(point) is float
        assert abs(point - w) <= 1e-15 * abs(point)
    grid = models.l1_weight(alpha, a, atoms.reshape(9, 9))
    assert np.array_equal(grid.reshape(-1), weights)
    with pytest.raises(DomainError):
        models.l1_weight(alpha, a, np.append(atoms, atoms[-1] + 0.5 / a))
    with pytest.raises(DomainError):
        models.l1_weight(alpha, a, [atoms[0], math.nan])


@given(phases, lengths)
@settings(max_examples=40, deadline=None)
def test_l1_total_mass_partial_sums(theta, a):
    # sum of pi (1 + s^2) mu({s}) over the lattice approaches 1 from below
    alpha = cmath.exp(1j * theta)
    total = sum(math.pi * (1 + s * s) * models.l1_weight(alpha, a, s)
                for s in models.l1_atoms(alpha, a, (-300, 300)))
    assert total < 1.0 + 1e-12
    assert total > 0.95


def test_atom_scan_recovers_l1_lattice():
    b = livsic.livsic_function(models.l1(1.0))
    closed = models.l1_atoms(1j, 1.0, (-2, 2))
    found, masses = clark.atom_scan(b, [[1j]],
                                    (closed[0] - 0.4, closed[-1] + 0.4))
    assert len(found) == len(closed)
    assert max(abs(f - c) for f, c in zip(found, closed)) < 1e-12
    for s, m in zip(closed, masses):
        assert m[0, 0].real == pytest.approx(models.l1_weight(1j, 1.0, s),
                                             rel=1e-12)


def test_atom_scan_k2_locations_feed_point_mass():
    # both negative atoms of this coupling, found by the scan, with their
    # masses, which point_mass gives again at the locations
    b = livsic.livsic_function(models.k2())
    alpha = -np.eye(2, dtype=complex)
    locs, masses = clark.atom_scan(b, alpha, (-1.0, -0.01))
    assert len(locs) == 2
    np.testing.assert_allclose(clark.point_mass(b, alpha, locs), masses,
                               rtol=0, atol=1e-14)
    total = 0.0
    for s, mass in zip(locs, masses):
        tr = float(np.trace(mass).real)
        assert tr > 0
        total += math.pi * (1.0 + s * s) * tr
    # atom block of the normalized trace measure, strictly inside (0, rank)
    assert total == pytest.approx(1.5435932, abs=1e-4)


def test_atom_scan_empty_window_and_bad_input():
    b = livsic.livsic_function(models.l1(1.0))
    # alpha = 1 atoms sit at (n + 1/2) pi; a window strictly between two
    locs, masses = clark.atom_scan(b, [[1.0]], (1.8, 2.8))
    assert locs.shape == (0,) and masses.shape == (0, 1, 1)
    for window in ((2.0, 1.0), (0.0, math.inf), (math.nan, 1.0)):
        with pytest.raises(DomainError):
            clark.atom_scan(b, [[1.0]], window)

    # on an interval model a grid of 4e10 points (about 300 GiB) is
    # refused before any allocation or B evaluation, and a window on the
    # essential spectrum of a half-line model has no atoms to look for
    def never(s, derivative=False):
        raise AssertionError("B evaluated")

    never = livsic.SchurFunction(n=1, fn=never, ac_edge=math.inf,
                                 scan_step=0.05)
    with pytest.raises(DomainError):
        clark.atom_scan(never, [[-1.0]], (-1e9, 0.0))
    never_k1 = replace(never, ac_edge=0.0)
    locs, _ = clark.atom_scan(never_k1, [[-1.0]], (0.0, 5.0))
    assert locs.size == 0


def test_atom_scan_failure_policy():
    # B is NaN where its pairing matrix is singular and raises only for
    # points the scan never passes (not finite, or -i), so an exception
    # from it is a programming error and propagates
    def typo(s, derivative=False):
        raise TypeError("programming error")

    b = livsic.SchurFunction(n=1, fn=typo, ac_edge=math.inf, scan_step=0.1)
    with pytest.raises(TypeError):
        clark.atom_scan(b, [[1.0]], (0.0, 1.0))

    # points where B is NaN are skipped, so a B that is NaN everywhere has
    # no atoms
    def undefined(s, derivative=False):
        value = np.full(np.shape(s) + (1, 1), np.nan + 0j)
        return (value, value) if derivative else value

    b = livsic.SchurFunction(n=1, fn=undefined, ac_edge=math.inf,
                             scan_step=0.1)
    assert clark.atom_scan(b, [[1.0]], (0.0, 1.0))[0].size == 0


def test_l2_atoms_dirichlet_lattice():
    from clarkspectra import extensions
    m = models.l2(1.0)
    bm = extensions.BoundaryMatrices([[1, 0], [0, 0]], [[0, 0], [1, 0]])
    alpha = extensions.alpha_from_bc_regular(m, bm)
    atoms, _ = clark.atom_scan(livsic.livsic_function(m), alpha, (-1.0, 26.0))
    expect = [(k * math.pi / 2) ** 2 for k in (1, 2, 3)]
    assert len(atoms) == 3
    assert max(abs(x - y) for x, y in zip(atoms, expect)) < 1e-8


def test_l2_atoms_periodic_includes_zero():
    from clarkspectra import extensions
    m = models.l2(1.0)
    bm = extensions.BoundaryMatrices(np.eye(2), -np.eye(2))
    alpha = extensions.alpha_from_bc_regular(m, bm)
    atoms, _ = clark.atom_scan(livsic.livsic_function(m), alpha, (-0.5, 11.0))
    assert len(atoms) == 2
    assert abs(atoms[0]) < 1e-8
    assert abs(atoms[1] - math.pi ** 2) < 1e-8


@pytest.mark.parametrize("label,a,first", [("neumann", 5.0, 0),
                                           ("dirichlet", 20.0, 1),
                                           ("dirichlet", 40.0, 1),
                                           ("dirichlet", 80.0, 1)])
def test_l2_atoms_long_interval_finds_the_lowest(label, a, first):
    # the lowest L2 eigenvalues are (pi/(2a))^2 apart, so at large a the
    # scan step must shrink like 1/a^2 to keep them in separate cells; from
    # a = 40 the dip of sigma_min at the lowest Dirichlet atom is narrower
    # than a grid cell
    from clarkspectra import extensions
    bcs = {"neumann": ([[0, 1], [0, 0]], [[0, 0], [0, 1]]),
           "dirichlet": ([[1, 0], [0, 0]], [[0, 0], [1, 0]])}
    bm = extensions.BoundaryMatrices(*bcs[label])
    alpha = extensions.alpha_from_bc_regular(models.l2(a), bm)
    expect = [(k * math.pi / (2 * a)) ** 2 for k in range(first, first + 8)]
    hi = expect[-1] + 0.5 * (expect[-1] - expect[-2])
    atoms, _ = clark.atom_scan(livsic.livsic_function(models.l2(a)), alpha,
                               (-1.0, hi))
    assert len(atoms) == 8
    assert max(abs(x - y) for x, y in zip(atoms, expect)) < 1e-8


def test_scan_step_per_model():
    # the half-line grid is geometric in the distance to the cut, so the
    # step is an interval quantity
    assert models.k1().scan_step == models.k2().scan_step == math.inf
    assert models.l1(3.0).scan_step == math.pi / 24
    # L2 keeps pi/(8a) up to a = 2 pi/3 and shrinks like 1/a^2 beyond
    assert models.l2(2.0).scan_step == math.pi / 16
    assert models.l2(20.0).scan_step == pytest.approx(math.pi ** 2 / 4800)
