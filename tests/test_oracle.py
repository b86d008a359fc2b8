import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clarkspectra import (checks, clark, defect, extensions, livsic, models,
                          oracle)
from clarkspectra.cplane import random_unitary
from clarkspectra.errors import (DimensionError, DomainError, NonUnitaryError,
                                 RankError, ToleranceError)

DIRICHLET = extensions.BoundaryMatrices([[1, 0], [0, 0]], [[0, 0], [1, 0]])
PERIODIC = extensions.BoundaryMatrices(np.eye(2), -np.eye(2))


def _closed_inner(model, f, g):
    (cf, rf), (cg, rg) = f, g
    pair = model.inner(np.asarray(rf)[:, None], np.asarray(rg)[None, :])
    return complex(np.asarray(cf) @ pair @ np.conj(cg))


def test_quad_inner_matches_closed_halfline():
    m = models.k1()
    f = ([1.0, 0.5j], [-1.0, -2.0 + 1.0j])
    g = ([2.0], [-0.5 - 0.3j])
    assert oracle.quad_inner(m, f, g) == pytest.approx(_closed_inner(m, f, g),
                                                       rel=1e-9, abs=1e-10)
    assert oracle.quad_inner(m, g, f) == pytest.approx(_closed_inner(m, g, f),
                                                       rel=1e-9, abs=1e-10)


def test_quad_inner_matches_closed_interval():
    m = models.l2(1.5)
    f = ([1.0, 1.0], [0.5j, -0.5j])
    g = ([1.0, -0.25j], [0.2, -1.0 + 2.0j])
    assert oracle.quad_inner(m, f, g) == pytest.approx(_closed_inner(m, f, g),
                                                       rel=1e-9, abs=1e-10)
    norm = oracle.quad_inner(m, f, f)
    assert norm.imag == pytest.approx(0.0, abs=1e-10)
    assert norm.real > 0


def test_quad_inner_domain_mismatch():
    # a rate that grows does not belong to the half-line, though it is fine
    # on a bounded interval; a zero coefficient leaves its rate out
    f = ([1.0], [-1.0])
    g = ([1.0], [0.2])
    with pytest.raises(DomainError):
        oracle.quad_inner(models.k1(), f, g)
    with pytest.raises(DomainError):
        oracle.quad_inner(models.k2(), g, f)
    assert oracle.quad_inner(models.l1(1.0), g, g) == pytest.approx(
        math.sinh(0.4) / 0.2, rel=1e-10)
    assert oracle.quad_inner(models.k1(), ([1.0, 0.0], [-1.0, 0.2]), f) == \
        pytest.approx(0.5, rel=1e-10)


def test_quad_inner_budget_enforced(monkeypatch):
    # a two-digit cutoff leaves a fat truncation tail on the half-line
    f = ([1.0], [-1.0])
    assert oracle.quad_inner(models.k1(), f, f) == pytest.approx(0.5, rel=1e-14)
    monkeypatch.setattr(oracle, "_CUTOFF_DIGITS", 2.0)
    with pytest.raises(ToleranceError):
        oracle.quad_inner(models.k1(), f, f)
    assert oracle._ABS_TOL == oracle._REL_TOL == 1e-10


@pytest.mark.parametrize("model", [models.k1(), models.k2(), models.l1(1.0),
                                   models.l2(1.5)], ids=lambda m: m.name)
def test_quad_inner_stack_matches_the_entries(model):
    # three functions over the rates at two points against both bases: one
    # set of panels for the stack, each entry on its own by the scalar call
    rng = np.random.default_rng(17)
    rates = model.raw_rates(np.array([1.3 + 0.7j, -2.0 + 0.4j])).ravel()
    f = (rng.standard_normal((3, rates.size))
         + 1j * rng.standard_normal((3, rates.size)), rates)
    g = checks._defect_bases(model)
    stack = oracle.quad_inner(model, f, g)
    assert stack.shape == (3, g[0].shape[0])
    entries = np.array([[oracle.quad_inner(model, (cf, f[1]), (cg, g[1]))
                         for cg in g[0]] for cf in f[0]])
    tol = 1e-14 * max(1.0, np.max(np.abs(entries)))
    assert np.max(np.abs(stack - entries)) <= tol
    # a stack against one function has the stack's shape
    column = oracle.quad_inner(model, f, (g[0][0], g[1]))
    assert column.shape == (3,)
    assert np.max(np.abs(column - entries[:, 0])) <= tol


@pytest.mark.parametrize("model", [models.k1(), models.k2(), models.l1(1.0),
                                   models.l2(1.0)], ids=lambda m: m.name)
def test_criterion_10_stack_matches_the_points(model):
    # criterion 10's one call over its 20 points against one call per
    # point; the stack's panels are those of its fastest rate
    w = checks._points_10(np.random.default_rng([0, 10]))
    stack = checks._pairings(model, w)
    bases, n = checks._defect_bases(model), model.rank
    assert stack.shape == (20, n, 2 * n)
    points = np.array([oracle.quad_inner(model, (np.eye(n), model.raw_rates(p)),
                                         bases) for p in w])
    assert np.all(np.abs(stack - points) <= 1e-13 * np.abs(points))


def test_identity_coefficients_skip_their_product():
    # criterion 10's K2 stack: plain exponentials in identity coefficients
    # take no product with the coefficients, and give the same bits as the
    # product, which a zero row below the identity forces (the stack is no
    # longer square)
    model = models.k2()
    rates = model.raw_rates(checks._points_10(np.random.default_rng([0, 10])))
    m, bases = rates.size, checks._defect_bases(model)
    plain = oracle.quad_inner(model, (np.eye(m), rates), bases)
    product = oracle.quad_inner(
        model, (np.vstack([np.eye(m), np.zeros((1, m))]), rates), bases)
    assert np.array_equal(plain, product[:m])


def test_quad_inner_memory_is_bounded():
    # 200 (30 + 30) / 2 = 6000 panels of 16 nodes on (-100, 100): the
    # exponentials at all the nodes at once would take 12 MB per side, a
    # block of 32 panels takes 65 kB
    m = models.l1(100.0)
    f = (np.eye(8), 1j * np.linspace(-30.0, 30.0, 8))
    expected = oracle.quad_inner(m, f, f)
    tracemalloc.start()
    try:
        value = oracle.quad_inner(m, f, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    assert np.array_equal(value, expected)
    # the diagonal is the interval's length
    assert np.max(np.abs(np.diag(value) - 200.0)) < 1e-10


def test_quad_inner_of_two_functions_is_one_complex():
    value = oracle.quad_inner(models.k1(), ([1.0], [-1.0]), ([1.0], [-2.0]))
    assert type(value) is complex
    assert value == pytest.approx(1.0 / 3.0, rel=1e-13)
    assert type(oracle.quad_inner(models.k1(), ([0.0], [-1.0]),
                                  ([1.0], [-2.0]))) is complex


def test_quad_inner_stack_budget_is_per_entry(monkeypatch):
    # with a two-digit cutoff the tail of a unit row is over budget; a row
    # of 1e-12 stays under it alone, and the stack of both raises
    monkeypatch.setattr(oracle, "_CUTOFF_DIGITS", 2.0)
    g = ([1.0], [-1.0])
    small = oracle.quad_inner(models.k1(), ([[1e-12]], [-1.0]), g)
    assert small.shape == (1,) and small[0] == pytest.approx(5e-13, rel=1e-2)
    with pytest.raises(ToleranceError):
        oracle.quad_inner(models.k1(), ([[1e-12], [1.0]], [-1.0]), g)


def test_quad_inner_stack_with_a_growing_row():
    # the growing rate has a nonzero coefficient in one row only
    f = ([[1.0, 0.0], [0.0, 1.0]], [-1.0, 0.2])
    g = ([1.0], [-1.0])
    assert oracle.quad_inner(models.k1(), ([[1.0, 0.0]], f[1]), g)[0] == \
        pytest.approx(0.5, rel=1e-10)
    with pytest.raises(DomainError):
        oracle.quad_inner(models.k1(), f, g)


def test_l1_direct_eigenvalue_anchors():
    vals = oracle.l1_eigenvalues_direct(1.0, 1.0, (-2, 2))
    assert vals == pytest.approx([-2 * math.pi, -math.pi, 0.0,
                                  math.pi, 2 * math.pi])
    vals = oracle.l1_eigenvalues_direct(-1.0, 1.0, (0, 1))
    assert vals == pytest.approx([-1.5 * math.pi, -0.5 * math.pi])
    # quasi-momentum shift: arg(beta) translates the whole lattice
    theta = 0.7
    base = oracle.l1_eigenvalues_direct(1.0, 2.0, (0, 3))
    shifted = oracle.l1_eigenvalues_direct(np.exp(1j * theta), 2.0, (0, 3))
    assert shifted == pytest.approx([v - theta / 4.0 for v in base])


def test_l1_direct_matches_mapped_atoms():
    # f(a) = beta f(-a) through the generic map, as [[-beta]] | [[1]]
    a = 0.8
    for beta in (1.0, np.exp(0.9j), np.exp(-2.4j)):
        alpha = extensions.alpha_from_bc_regular(
            models.l1(a), extensions.BoundaryMatrices([[-beta]], [[1.0]]))[0, 0]
        direct = oracle.l1_eigenvalues_direct(beta, a, (-3, 3))
        mapped = models.l1_atoms(alpha, a, (-4, 4))
        for s in direct:
            assert min(abs(s - t) for t in mapped) < 1e-10


def test_l1_direct_guards():
    # beta goes through the one unitary check (cplane.check_unitary)
    for beta in (0.5, 1.0 + 1e-9):
        with pytest.raises(NonUnitaryError):
            oracle.l1_eigenvalues_direct(beta, 1.0, (0, 1))
    with pytest.raises(DimensionError):
        oracle.l1_eigenvalues_direct([[1.0, 0.0]], 1.0, (0, 1))
    with pytest.raises(DomainError):
        oracle.l1_eigenvalues_direct(1.0, -1.0, (0, 1))


def test_quad_inner_bounded_rate_and_panel_limit():
    # a bounded rate is allowed on the half-line when the product decays,
    # as for the generalized eigenfunctions; a fast oscillation over a long
    # cutoff needs more panels than the limit
    m = models.k1()
    assert oracle.quad_inner(m, ([1.0], [-1.0]), ([1.0], [1j])) == \
        pytest.approx(1.0 / (1.0 + 1j), rel=1e-13)
    with pytest.raises(DomainError):
        oracle.quad_inner(m, ([1.0], [1j]), ([1.0], [-2j]))
    with pytest.raises(ToleranceError):
        oracle.quad_inner(m, ([1.0], [-1e-3]), ([1.0], [-1e-3 + 1e3j]))


def test_l2_eigenvalues_dirichlet_lattice():
    vals = oracle.l2_eigenvalues(DIRICHLET, 1.0, (0.5, 25.0))
    exact = [(k * math.pi / 2.0) ** 2 for k in (1, 2, 3)]
    assert vals == pytest.approx(exact, rel=1e-14)


def test_l2_eigenvalues_periodic_doubles():
    # a double root has no sign change; its M vanishes, rank 0, count 2
    vals = oracle.l2_eigenvalues(PERIODIC, 1.0, (-0.5, 45.0))
    pi2 = math.pi ** 2
    assert len(vals) == 5 and abs(vals[0]) < 1e-14
    assert vals[1:] == pytest.approx([pi2, pi2, 4 * pi2, 4 * pi2], rel=1e-14)
    # a double root on the window's last cell is still seen
    assert oracle.l2_eigenvalues(PERIODIC, 1.0, (1.0, 40.0)) == \
        pytest.approx([pi2, pi2, 4 * pi2, 4 * pi2], rel=1e-14)


@pytest.mark.parametrize("theta", [0.3, 2.0, -1.2])
def test_l2_eigenvalues_quasi_periodic(theta):
    # y(a) = e^{i theta} y(-a), y'(a) = e^{i theta} y'(-a): complex
    # conditions with the simple roots 2 k a = theta mod 2 pi
    bm = extensions.BoundaryMatrices(-np.exp(1j * theta) * np.eye(2), np.eye(2))
    a = 0.8
    vals = oracle.l2_eigenvalues(bm, a, (-1.0, 150.0))
    ks = sorted({abs(theta + 2 * math.pi * m) / (2 * a) for m in range(-5, 6)})
    exact = [k * k for k in ks if k * k <= 150.0]
    assert vals == pytest.approx(exact, rel=1e-13)


@pytest.mark.parametrize("seed, a, tol", [
    *(pytest.param(seed, 1.0, 1e-13, id=str(seed)) for seed in range(3)),
    # short intervals, where atoms of general couplings come closer than
    # the scan step; det M varies like a^2 there, so the roots themselves
    # are good to about 5e-13 (the boundary system is closer to singular at
    # the scanned atoms than at the roots)
    *(pytest.param(seed, a, 1e-12, id=f"{seed}-a{a}") for a in (0.1, 0.3)
      for seed in range(3)),
    # two roots in (-1.3, -0.2) at a = 0.1, closer than pi/(32a) in
    # sign(s) sqrt|s|: found once the bracketing cells are at most 1/8 wide
    *(pytest.param(seed, 0.1, 1e-12, id=f"{seed}-a0.1-close")
      for seed in (4, 16))])
def test_l2_eigenvalues_match_the_scanned_atoms(seed, a, tol):
    model = models.l2(a)
    alpha = random_unitary(2, np.random.default_rng([seed, 4]))
    bm = extensions.bc_from_alpha_regular(model, alpha)
    atoms, _ = clark.atom_scan(livsic.livsic_function(model), alpha,
                               (-5.0, 200.0))
    roots = oracle.l2_eigenvalues(bm, a, (-5.0, 200.0))
    assert len(roots) == len(atoms) > 0
    assert np.max(np.abs(np.array(roots) - atoms) / (1 + np.abs(atoms))) < tol


@pytest.mark.parametrize("window", [(-40.0, 30.0), (-2.0, 2.0), (-5.0, 5.0)])
def test_close_l2_atoms_match_the_oracle(window):
    # two atoms 0.51 apart at a = 0.5, closer than the scan step (0.785):
    # found on every window, at the roots of the boundary determinant and
    # with the eigenfunction masses, to 1e-12
    a = 0.5
    model = models.l2(a)
    alpha = random_unitary(2, np.random.default_rng([18, 4]))
    atoms, masses = clark.atom_scan(livsic.livsic_function(model), alpha,
                                    window)
    assert atoms == pytest.approx([-0.25832, 0.24932], abs=1e-5)
    roots = oracle.l2_eigenvalues(extensions.bc_from_alpha_regular(model, alpha),
                                  a, window)
    assert np.max(np.abs(np.array(roots) - atoms) / (1 + np.abs(atoms))) <= 1e-12
    for s, mass in zip(atoms, masses):
        ref = oracle.eigen_mass(model, alpha, s)
        assert np.max(np.abs(mass - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("seed", [[1, 4], [5, 4]])
def test_l2_eigenvalues_below_the_axis(seed):
    # atoms near -17.59 and -14.54 at a = 2, where the entries of M grow like
    # e^{2a sqrt(-s)} = 2e7 and det M only like their square root: the roots
    # come from the exponential basis and land within 1e-12 of the atoms
    a = 2.0
    alpha = random_unitary(2, np.random.default_rng(seed))
    bm = extensions.bc_from_alpha_regular(models.l2(a), alpha)
    atoms, _ = clark.atom_scan(livsic.livsic_function(models.l2(a)), alpha,
                               (-30.0, 5.0))
    roots = oracle.l2_eigenvalues(bm, a, (-30.0, 5.0))
    assert len(roots) == len(atoms) == 4 and atoms[0] < -14.0
    assert np.max(np.abs(np.array(roots) - atoms)) <= 1e-12


def _fd_system(bm, a, npts):
    """Second-order finite differences for -y'' = s y on npts nodes of
    [-a, a]: the three-point stencil rows of the interior nodes, and the two
    boundary rows with one-sided second-order endpoint derivatives."""
    h = 2.0 * a / (npts - 1)
    eye = np.eye(npts)
    stencil = (2 * eye - np.eye(npts, k=1) - np.eye(npts, k=-1))[1:-1] / h ** 2
    dl = (-1.5 * eye[0] + 2.0 * eye[1] - 0.5 * eye[2]) / h
    dr = (1.5 * eye[-1] - 2.0 * eye[-2] + 0.5 * eye[-3]) / h
    beta_a, beta_b = np.asarray(bm.beta_a), np.asarray(bm.beta_b)
    edge = (beta_a[:, :1] * eye[0] + beta_a[:, 1:] * dl
            + beta_b[:, :1] * eye[-1] + beta_b[:, 1:] * dr)
    return stencil, edge


def _fd_eigenvalues(bm, a, npts, window):
    """Real eigenvalues of the finite-difference problem in window, sorted:
    the boundary rows give the end values from the interior ones."""
    stencil, edge = _fd_system(bm, a, npts)
    ends, mid = [0, npts - 1], slice(1, npts - 1)
    op = stencil[:, mid] - stencil[:, ends] @ np.linalg.solve(edge[:, ends],
                                                              edge[:, mid])
    vals = np.linalg.eigvals(op)
    real = np.abs(vals.imag) <= 1e-6 * np.maximum(1.0, np.abs(vals.real))
    return sorted(v.real for v in vals[real]
                  if window[0] <= v.real <= window[1])


def _fd_extrapolated(bm, a, npts, window):
    """Richardson extrapolation (4 v_fine - v_coarse)/3 of the eigenvalues
    on npts and 2 npts - 1 nodes (h halved)."""
    coarse, fine = (np.array(_fd_eigenvalues(bm, a, n, window))
                    for n in (npts, 2 * npts - 1))
    assert len(coarse) == len(fine)
    return list((4.0 * fine - coarse) / 3.0)


def test_fd_dirichlet_lattice():
    # the extrapolated discretization lands on the determinant roots
    roots = oracle.l2_eigenvalues(DIRICHLET, 1.0, (0.5, 25.0))
    vals = _fd_extrapolated(DIRICHLET, 1.0, 200, (0.5, 25.0))
    assert len(vals) == len(roots) == 3
    for v, t in zip(vals, roots):
        assert abs(v - t) < 1e-4 * (1.0 + abs(t))


def test_fd_periodic_doubles():
    roots = oracle.l2_eigenvalues(PERIODIC, 1.0, (-0.5, 45.0))
    vals = _fd_extrapolated(PERIODIC, 1.0, 200, (-0.5, 45.0))
    assert len(vals) == len(roots) == 5
    assert abs(vals[0]) < 1e-3
    assert vals[1:] == pytest.approx(roots[1:], rel=1e-2)


def test_fd_observed_order_near_two():
    # halving h divides the distance to the roots by about four
    for bm in (DIRICHLET, PERIODIC):
        roots = np.array(oracle.l2_eigenvalues(bm, 1.0, (0.5, 25.0)))
        coarse, fine = (np.array(_fd_eigenvalues(bm, 1.0, n, (0.5, 25.0)))
                        for n in (101, 201))
        order = np.log2(np.abs(coarse - roots) / np.abs(fine - roots))
        assert np.all((1.6 < order) & (order < 2.4)), order


def test_fd_guards():
    # a rank-one boundary system leaves two dependent rows in A - s B for
    # every s, so the problem has no eigenvalues to find: RankError
    bad = extensions.BoundaryMatrices([[1, 0], [2, 0]], [[1, 0], [2, 0]])
    assert np.linalg.matrix_rank(_fd_system(bad, 1.0, 200)[1]) == 1
    assert np.linalg.matrix_rank(_fd_system(DIRICHLET, 1.0, 200)[1]) == 2
    with pytest.raises(RankError):
        oracle.l2_eigenvalues(bad, 1.0, (0.0, 10.0))


def test_l2_eigenvalues_guards():
    with pytest.raises(DomainError):
        oracle.l2_eigenvalues(DIRICHLET, 1.0, (10.0, 0.0))
    with pytest.raises(DomainError):
        oracle.l2_eigenvalues(DIRICHLET, 1.0, (-1e6, 0.0))
    with pytest.raises(DomainError):
        oracle.l2_eigenvalues(DIRICHLET, 1.0, (0.0, math.inf))
    bad = extensions.BoundaryMatrices([[1, 0], [2, 0]], [[1, 0], [2, 0]])
    with pytest.raises(RankError):
        oracle.l2_eigenvalues(bad, 1.0, (0.0, 10.0))


def test_eigen_mass_matches_the_residue_masses():
    # (the masses are Clark's eigenphase-velocity masses of clark.point_mass)
    # K2 atoms of two couplings, and the double L2 periodic atom at pi^2,
    # whose mass has rank two
    model = models.k2()
    b = livsic.livsic_function(model)
    rng = np.random.default_rng(13)
    for alpha in (random_unitary(2, rng) for _ in range(2)):
        locs, masses = clark.atom_scan(b, alpha, (-60.0, 0.5))
        assert len(locs) > 0
        for s, mass in zip(locs, masses):
            ref = oracle.eigen_mass(model, alpha, s)
            assert np.max(np.abs(mass - ref)) < 1e-12 * np.max(np.abs(ref))
    l2 = models.l2(1.0)
    alpha = extensions.alpha_from_bc_regular(l2, PERIODIC)
    mass = clark.point_mass(livsic.livsic_function(l2), alpha, math.pi ** 2)
    ref = oracle.eigen_mass(l2, alpha, math.pi ** 2)
    assert np.min(np.linalg.eigvalsh(ref)) > 1e-3 * np.max(np.abs(ref))
    assert np.max(np.abs(mass - ref)) < 1e-12 * np.max(np.abs(ref))


@given(st.sampled_from(["k1", "k2"]), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_halfline_atoms_on_the_whole_axis_property(name, seed):
    # Newton steps within a tolerance relative to the distance to the cut: a
    # scan down to -1e8 finds at most rank atoms of a Haar coupling,
    # refuses none, and every atom with 1e-2 <= |s| <= 1e4 has its
    # eigenfunction mass to 1e-12
    model = getattr(models, name)()
    alpha = random_unitary(model.rank, np.random.default_rng(seed))
    locs, masses = clark.atom_scan(livsic.livsic_function(model), alpha,
                                   (-1e8, 0.5))
    assert len(locs) <= model.rank
    for s, mass in zip(locs, masses):
        if 1e-2 <= abs(s) <= 1e4:
            ref = oracle.eigen_mass(model, alpha, s)
            assert np.max(np.abs(mass - ref)) <= 1e-12 * np.max(np.abs(ref))


@given(st.sampled_from(["k1", "k2"]), st.integers(0, 2 ** 32 - 1),
       st.floats(-2.0, 4.0))
@settings(max_examples=30, deadline=None)
def test_halfline_window_holds_the_whole_axis_atoms_property(name, seed, u):
    # a scan of (-10^u, 0.5) finds the atoms of the scan down to -1e8 that
    # lie in it, with the same masses: the grid reaches past the window's
    # lower end, and the atoms below it are dropped
    model = getattr(models, name)()
    b = livsic.livsic_function(model)
    alpha = random_unitary(model.rank, np.random.default_rng(seed))
    every, every_mass = clark.atom_scan(b, alpha, (-1e8, 0.5))
    locs, masses = clark.atom_scan(b, alpha, (-10.0 ** u, 0.5))
    keep = every >= -10.0 ** u
    assert locs == pytest.approx(every[keep], rel=1e-12)
    assert np.max(np.abs(masses - every_mass[keep]), initial=0.0) <= (
        1e-12 * np.max(np.abs(masses), initial=0.0))


@pytest.mark.parametrize("model, seed, below", [
    (models.k2(), 955, -0.8077), (models.k2(), 67, -1.048),
    (models.l2(1.0), 31, -0.8197)])
@pytest.mark.parametrize("frac", [0.1, 0.5])
def test_window_end_between_two_close_atoms(model, seed, below, frac):
    # the window's lower end falls between the atom near `below` and the
    # next one (on K2 their ratio is below 1.7, on L2 their gap below the
    # scan step); each is placed in its own cell, the one below the end is
    # dropped, and the next one is weighed as the eigenfunctions do
    b = livsic.livsic_function(model)
    alpha = random_unitary(2, np.random.default_rng(seed))
    hi = 0.5 if model.halfline else 10.0
    every, _ = clark.atom_scan(b, alpha, (-1e8 if model.halfline else -5.0, hi))
    i = int(np.argmin(np.abs(every - below)))
    lo = every[i] + frac * (every[i + 1] - every[i])
    locs, masses = clark.atom_scan(b, alpha, (lo, hi))
    assert locs == pytest.approx(every[i + 1:], rel=1e-12)
    ref = oracle.eigen_mass(model, alpha, locs[0])
    assert np.max(np.abs(masses[0] - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("alpha", [1.0, -1.0, np.exp(0.7j)])
def test_eigen_mass_matches_the_l1_weights(alpha):
    for s in models.l1_atoms(alpha, 1.3, (-3, 3)):
        val = oracle.eigen_mass(models.l1(1.3), [[alpha]], s)
        assert val[0, 0] == pytest.approx(models.l1_weight(alpha, 1.3, s),
                                          rel=1e-13)


@pytest.mark.parametrize("alpha", [1.0, -1.0, 1j, np.exp(2.5j)])
def test_eigen_density_matches_the_k1_closed_form(alpha):
    for s in np.logspace(-3, 2, 7):
        ref = models.k1_density(alpha, s)
        val = oracle.eigen_density(models.k1(), [[alpha]], s)
        assert val[0, 0] == pytest.approx(ref, rel=1e-12)


def test_eigen_density_matches_k2_ac_density():
    model = models.k2()
    b = livsic.livsic_function(model)
    alpha = random_unitary(2, np.random.default_rng(7))
    for s in (1e-3, 0.5, 4.0, 100.0):
        ref = oracle.eigen_density(model, alpha, s)
        val = clark.ac_density(b, alpha, s)
        assert np.max(np.abs(val - ref)) < 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("model", [models.k1(), models.k2()],
                         ids=lambda m: m.name)
def test_eigen_density_on_an_array_matches_the_points(model):
    # one quad_inner call for the stack against one per point
    rng = np.random.default_rng(17)
    points = np.array([1e-3, 0.3, 0.7, 1.5, 3.0, 7.0, 100.0])
    for alpha in (random_unitary(model.rank, rng) for _ in range(3)):
        stack = oracle.eigen_density(model, alpha, points)
        assert stack.shape == (points.size, model.rank, model.rank)
        for s, val in zip(points, stack):
            ref = oracle.eigen_density(model, alpha, s)
            assert ref.shape == (model.rank, model.rank)
            assert np.max(np.abs(val - ref)) <= 1e-13 * np.max(np.abs(ref))
    for bad in ([0.5, 0.0, 2.0], [1.0, 2.0, -3.0], []):
        with pytest.raises(DomainError):
            oracle.eigen_density(model, np.eye(model.rank), np.array(bad))


def _two_call_mass(model, alpha, s, monkeypatch):
    """eigen_mass from V and G in two quad_inner calls, on the
    eigenfunctions u that eigen_mass pairs (the second argument of its one
    quad_inner call)."""
    seen = []
    quad_inner = oracle.quad_inner
    with monkeypatch.context() as m:
        m.setattr(oracle, "quad_inner",
                  lambda mod, f, g: seen.append(g) or quad_inner(mod, f, g))
        mass = oracle.eigen_mass(model, alpha, s)
    assert len(seen) == 1
    u = seen[0]
    v = quad_inner(model, defect.defect_onb(model, "+"), u)
    gram = quad_inner(model, u, u)
    ref = v @ np.linalg.solve(gram, v.conj().T) / (np.pi * (1.0 + s * s))
    return mass, 0.5 * (ref + ref.conj().T), gram


def test_eigen_mass_is_the_two_call_formula(monkeypatch):
    # criterion 11's twelve K2 atoms, and the double L2 periodic atom at
    # pi^2, whose G is 2 x 2
    model = models.k2()
    b = livsic.livsic_function(model)
    rng = np.random.default_rng(13)
    count = 0
    for alpha in (random_unitary(2, rng) for _ in range(8)):
        for s in clark.atom_scan(b, alpha, (-1e6, 0.5))[0]:
            mass, ref, _ = _two_call_mass(model, alpha, s, monkeypatch)
            assert np.max(np.abs(mass - ref)) <= 1e-13 * np.max(np.abs(ref))
            count += 1
    assert count == 12
    l2 = models.l2(1.0)
    alpha = extensions.alpha_from_bc_regular(l2, PERIODIC)
    mass, ref, gram = _two_call_mass(l2, alpha, math.pi ** 2, monkeypatch)
    assert gram.shape == (2, 2)
    assert np.max(np.abs(mass - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_eigen_routine_guards():
    with pytest.raises(DomainError):
        oracle.eigen_mass(models.k1(), [[1.0]], 0.5)
    with pytest.raises(DomainError):
        oracle.eigen_density(models.k2(), np.eye(2), -1.0)
    with pytest.raises(DomainError):
        oracle.eigen_density(models.l1(1.0), [[1.0]], 1.0)
    with pytest.raises(DomainError):
        # the two L2 rates meet at s = 0
        oracle.eigen_mass(models.l2(1.0), np.eye(2), 0.0)


def test_bound_state_robin_unit_slope():
    location, weight = oracle.k1_bound_state_check(1.0, 1.0)
    assert location == pytest.approx(-1.0, abs=1e-12)
    assert weight == pytest.approx((math.sqrt(2.0) - 1.0) / math.pi, rel=1e-14)
    # projective invariance of the ray
    location2, weight2 = oracle.k1_bound_state_check(2.0, 2.0)
    assert location2 == pytest.approx(location, abs=1e-12)
    assert weight2 == pytest.approx(weight, rel=1e-9)


def test_bound_state_second_ray():
    location, weight = oracle.k1_bound_state_check(1.0, math.sqrt(2.0))
    assert location == pytest.approx(-0.5, abs=1e-12)
    # sigma = 1/sqrt(2): pi (1 + s^2) mu = 2 sqrt(2) sigma / |sigma - r|^2
    # with r = e^{3 i pi/4}, which is 0.8
    assert weight == pytest.approx(0.64 / math.pi, rel=1e-14)


def test_bound_state_absent():
    assert oracle.k1_bound_state_check(1.0, 0.0) is None   # Dirichlet
    assert oracle.k1_bound_state_check(0.0, 1.0) is None   # Neumann
    assert oracle.k1_bound_state_check(1.0, -1.0) is None  # wrong sign
    with pytest.raises(DomainError):
        oracle.k1_bound_state_check(1j, 1.0)
    # the empty ray is refused by the boundary map, before sigma's sign
    # would return None
    with pytest.raises(RankError):
        oracle.k1_bound_state_check(0.0, 0.0)


@pytest.mark.parametrize("b,c", [(1e15, 1.0), (1.0, 1e-15), (1e60, 1.0)])
def test_bound_state_of_a_far_robin_ray(b, c):
    # sigma = b/c far out: the atom at -sigma^2 is the scan's on a window
    # that reaches it, with the scan's mass
    location, weight = oracle.k1_bound_state_check(b, c)
    assert location == pytest.approx(-(b / c) ** 2, rel=1e-15)
    model = models.k1()
    alpha = extensions.alpha_from_bc_regular(
        model, extensions.BoundaryMatrices([[b, c]], np.empty((1, 0))))
    atoms, masses = clark.atom_scan(livsic.livsic_function(model), alpha,
                                    (2.0 * location, 0.5))
    assert len(atoms) == 1
    assert atoms[0] == pytest.approx(location, rel=1e-14)
    assert masses[0, 0, 0].real == pytest.approx(weight, rel=1e-13)
    assert weight == pytest.approx(9.0031631615710e-76 * (1e15 * c / b) ** 5,
                                   rel=1e-12)


def test_bound_state_beyond_the_float_range():
    # -sigma^2 overflows; an atom whose mass underflows is still placed
    with pytest.raises(DomainError):
        oracle.k1_bound_state_check(1e200, 1.0)
    with pytest.raises(DomainError):
        oracle.k1_bound_state_check(1.0, 1e-200)
    assert oracle.k1_bound_state_check(1e150, 1.0) == (-1e150 * 1e150, 0.0)


def test_l2_atom_in_the_cell_around_zero():
    # at a = 0.1 the two eigenphases of B alpha* sweep about 4 pi within
    # |s| < 2, and B is NaN at s = 0, so the cell around 0 spans two cells.
    # The window puts a grid point on 0 for cells of pi/(16a) = 1.96 as
    # well as for cells of 0.25: with the wider ones the step of that cell
    # passes 2 pi and the atom at -0.245 is not counted
    a = 0.1
    model = models.l2(a)
    alpha = random_unitary(2, np.random.default_rng([3, 4]))
    h = math.pi / (16 * a)
    atoms, masses = clark.atom_scan(livsic.livsic_function(model), alpha,
                                    (-3 * h, 3 * h))
    assert atoms == pytest.approx([-0.245, 5.3642], abs=1e-4)
    roots = oracle.l2_eigenvalues(extensions.bc_from_alpha_regular(model, alpha),
                                  a, (-3 * h, 3 * h))
    assert np.max(np.abs(np.array(roots) - atoms) / (1 + np.abs(atoms))) <= 1e-12
    for s, mass in zip(atoms, masses):
        ref = oracle.eigen_mass(model, alpha, s)
        assert np.max(np.abs(mass - ref)) <= 1e-12 * np.max(np.abs(ref))
