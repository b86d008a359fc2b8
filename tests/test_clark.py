import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clarkspectra import clark, extensions, livsic, models
from clarkspectra.cplane import random_unitary
from clarkspectra.errors import (ConvergenceError, DimensionError, DomainError,
                                 NonUnitaryError, SingularError)


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
            assert got == pytest.approx(ref, rel=1e-12)
    # hand-derived anchor: rho(1) = sqrt(2)/(6 pi) at alpha = -1
    val = clark.ac_density(b_k1, [[-1.0]], 1.0)[0, 0].real
    assert val == pytest.approx(math.sqrt(2) / (6 * math.pi), rel=1e-12)


@given(st.floats(min_value=1e-3, max_value=60.0),
       st.floats(min_value=-math.pi, max_value=math.pi))
@settings(max_examples=200, deadline=None)
def test_k1_ac_density_matches_closed_form_property(s, phase):
    b = livsic.livsic_function(models.k1())
    alpha = complex(math.cos(phase), math.sin(phase))
    got = clark.ac_density(b, [[alpha]], s)[0, 0]
    ref = models.k1_density(alpha, s)
    assert abs(got - ref) <= 1e-12 * ref


def test_ac_density_vanishes_off_support(b_k1):
    val = clark.ac_density(b_k1, [[1.0]], -3.0)[0, 0]
    assert val == 0.0


def test_ac_density_rejects_non_finite_points(b_k1, b_l1):
    # off the support no B evaluation would catch these
    for b in (b_k1, b_l1):
        for s in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                clark.ac_density(b, [[1.0]], s)


def test_point_mass_on_and_off_atoms(b_l1):
    s0 = math.pi / 2  # alpha = 1 atom
    mass = clark.point_mass(b_l1, [[1.0]], s0)[0, 0].real
    ref = models.l1_weight(1.0, 1.0, s0)
    assert mass == pytest.approx(ref, rel=1e-6)
    off = clark.point_mass(b_l1, [[1.0]], 0.7)[0, 0]
    assert abs(off) < 1e-9


def test_ac_density_grid_matches_points(b_k1):
    # a grid is one evaluation of B, with what each point gives alone
    grid = np.array([-1.0, 0.0, 0.3, 2.0, 17.0])
    rho = clark.ac_density(b_k1, [[1j]], grid)
    assert rho.shape == (5, 1, 1)
    for s, r in zip(grid, rho):
        np.testing.assert_array_equal(r, clark.ac_density(b_k1, [[1j]], s))
    # a point of the support where B is not defined (the K2 pairing is
    # singular within rounding of the branch point) is refused
    b_k2 = livsic.livsic_function(models.k2())
    with pytest.raises(SingularError):
        clark.ac_density(b_k2, np.eye(2), [1e-300, 1.0])


def _sandwich(b, alpha, s):
    # (alpha* - B*)^{-1} (I - B* B) (alpha - B)^{-1} / (pi (1 + s^2))
    n = alpha.shape[0]
    bval = np.asarray(b(s)).reshape(-1, n, n)
    x = np.linalg.inv(alpha - bval)
    xh, bh = x.conj().swapaxes(-1, -2), bval.conj().swapaxes(-1, -2)
    return xh @ (np.eye(n) - bh @ bval) @ x / (np.pi * (1.0 + s * s))[:, None, None]


@given(st.sampled_from(["k1", "k2"]), st.integers(0, 2 ** 32 - 1),
       st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=1,
                max_size=12))
@settings(max_examples=60, deadline=None)
def test_density_is_the_herglotz_real_part_property(name, seed, logs):
    # Re[(alpha + B)(alpha - B)^{-1}] / (pi (1 + s^2)) is the sandwich for
    # unitary alpha; exactly Hermitian, and exactly zero at -s
    model = getattr(models, name)()
    b = livsic.livsic_function(model)
    alpha = random_unitary(model.rank, np.random.default_rng(seed))
    s = 10.0 ** np.array(logs)
    rho = clark.ac_density(b, alpha, np.concatenate([s, -s]))
    on, off = rho[:s.size], rho[s.size:]
    ref = _sandwich(b, alpha, s)
    err = np.max(np.abs(on - ref), axis=(1, 2))
    assert np.all(err <= 1e-13 * np.max(np.abs(ref), axis=(1, 2)))
    assert np.array_equal(rho, rho.conj().swapaxes(-1, -2))
    assert np.all(off == 0.0)


def test_density_refuses_a_singular_alpha_minus_b():
    # alpha - B(s) is invertible for unitary alpha where ||B(s)|| < 1; a
    # function equal to alpha at s = 2 shows the refusal the solve's NaN
    # gives, and K2 at s = 1e-70, where B is NaN, the real case
    alpha = random_unitary(2, np.random.default_rng(8))
    b = livsic.livsic_function(models.k2())
    at = lambda w: np.where(np.asarray(w)[..., None, None] == 2.0, alpha,
                            b.fn(w))
    with pytest.raises(SingularError, match="s = 2.0"):
        clark.ac_density(replace(b, fn=at), alpha, [1.0, 2.0, 3.0])
    with pytest.raises(SingularError):
        clark.ac_density(b, np.eye(2), [1e-70])


def test_point_mass_array_and_refusals(b_k1, b_l1):
    # alpha = 1 on L1: atoms at pi/2 + n pi
    atoms = models.l1_atoms(1.0, 1.0, (-2, 2))
    masses = clark.point_mass(b_l1, [[1.0]], atoms)
    assert masses.shape == (5, 1, 1)
    for s, m in zip(atoms, masses):
        assert m[0, 0].real == pytest.approx(models.l1_weight(1.0, 1.0, s),
                                             rel=1e-13)
    assert clark.point_mass(b_l1, [[1.0]], []).shape == (0, 1, 1)
    # non-finite, repeated, on the essential spectrum
    for s in (math.nan, [0.5, 0.5]):
        with pytest.raises(DomainError):
            clark.point_mass(b_l1, [[1.0]], s)
    for s in (0.0, 0.7):
        with pytest.raises(DomainError):
            clark.point_mass(b_k1, [[1j]], s)
    # an atom at s with its neighbours at pi just outside the circle
    # (radius 3) slows the trapezoid rule down: the two node counts
    # disagree
    with pytest.raises(ConvergenceError):
        clark.point_mass(replace(b_l1, scan_step=6.0), [[1.0]], math.pi / 2)


def test_point_mass_is_zero_next_to_an_atom(b_l1):
    # the atom at pi/2 inside the circle off its centre (radius 0.025,
    # offset 0.005), next to its edge (offset 0.0249), and just outside it
    # (radius 0.25, offset 0.26): no atom at s, so no mass
    for offset, step in ((0.005, 0.05), (0.0249, 0.05), (0.26, 0.5)):
        mass = clark.point_mass(replace(b_l1, scan_step=step), [[1.0]],
                                math.pi / 2 + offset)
        assert np.array_equal(mass, np.zeros((1, 1)))
    # an array mixes the atom and a point next to it
    masses = clark.point_mass(replace(b_l1, scan_step=0.5), [[1.0]],
                              [math.pi / 2, math.pi / 2 + 0.1])
    assert masses[0, 0, 0].real == pytest.approx(
        models.l1_weight(1.0, 1.0, math.pi / 2), rel=1e-13)
    assert masses[1, 0, 0] == 0.0


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
    with pytest.raises(DomainError):
        clark.conjugation_check(b1, [[1.0]], [[1.0]], [[1.0]], 2.0, kind="sc")


def test_conjugation_check_atom_kind():
    b = livsic.livsic_function(models.l1(1.0))
    rng = np.random.default_rng(31)
    phase = np.exp(1j * rng.uniform(0, 2 * math.pi))
    res = clark.conjugation_check(b, [[phase]], [[phase.conjugate()]],
                                  [[-1.0]], math.pi, kind="atom")
    assert res < 1e-8


def test_density_is_exact_zero_off_the_support(b_k1, b_l1):
    # the interval models have no essential spectrum: the density is an
    # exact zero everywhere, at an atom (alpha = 1, s = pi/2) as well
    assert not np.any(clark.ac_density(b_l1, [[1.0]], math.pi / 2))
    assert not np.any(clark.ac_density(b_l1, [[1j]], 0.3))
    m = models.l2(1.0)
    alpha = extensions.alpha_from_bc_regular(
        m, extensions.BoundaryMatrices(np.eye(2), -np.eye(2)))
    b_l2 = livsic.livsic_function(m)
    for s in (math.pi ** 2, 2.0, -4.0):
        rho = clark.ac_density(b_l2, alpha, s)
        assert rho.shape == (2, 2) and not np.any(rho)
    # the half-line models: zero on s <= 0, including at the K1 atom of
    # alpha = 1j at s = -2 and at the branch point s = 0
    for s in (-2.0, -1e-12, 0.0):
        assert clark.ac_density(b_k1, [[1j]], s)[0, 0] == 0.0
    assert clark.ac_density(b_k1, [[1j]], 1e-12)[0, 0].real > 0.0


def _ac_mass(b, alpha):
    # int_0^inf tr rho(s) ds in u = s^(1/4): 20-point Gauss-Legendre on
    # [0, 1e-4] and 300 log panels up to 10^2.5 (s = 1e10)
    x, wt = np.polynomial.legendre.leggauss(20)
    edges = np.concatenate([[0.0], np.logspace(-4.0, 2.5, 301)])
    lo, hi = edges[:-1, None], edges[1:, None]
    u = (0.5 * (hi - lo) * x + 0.5 * (hi + lo)).ravel()
    w = (0.5 * (hi - lo) * wt).ravel()
    rho = np.trace(clark.ac_density(b, alpha, u ** 4), axis1=1, axis2=2).real
    return float(np.sum(w * rho * 4.0 * u ** 3))


def test_mass_budget_closes_with_the_scanned_atoms():
    # the ac mass plus pi (1 + s^2) tr mu({s}) over the atoms of the scan is
    # the rank: K1 at two Robin couplings and one without a bound state,
    # K2 at three Haar couplings whose atoms all lie in (-60, 0); leaving
    # out any one atom breaks the budget
    rng = np.random.default_rng(13)
    cases = [(models.k1(), [[extensions.alpha_from_bc_k1(sigma, 1.0)]])
             for sigma in (0.5, 2.0, -1.0)]
    cases += [(models.k2(), random_unitary(2, rng)) for _ in range(3)]
    counts = []
    for model, alpha in cases:
        b = livsic.livsic_function(model)
        locs, masses = clark.atom_scan(b, alpha, (-60.0, 0.0))
        atoms = np.pi * (1.0 + locs ** 2) * np.trace(masses, axis1=1,
                                                     axis2=2).real
        ac = _ac_mass(b, alpha)
        assert abs(ac + atoms.sum() - model.rank) <= 1e-10
        for k in range(atoms.size):
            assert abs(ac + atoms.sum() - atoms[k] - model.rank) > 1e-3
        counts.append(locs.size)
    assert counts == [1, 1, 0, 2, 2, 1]


@pytest.mark.parametrize("model, window", [
    pytest.param(models.k1(), (-1e12, 0.0), id="K1"),
    pytest.param(models.k2(), (-1e12, 0.0), id="K2"),
    *(pytest.param(make(a), (-60.0, 60.0), id=f"{make(a).name}-a{a}")
      for make in (models.l1, models.l2) for a in (0.3, 1.0, 2.0)),
    *(pytest.param(models.l2(a), (-30.0, 30.0), id=f"L2-a{a}")
      for a in (0.01, 0.1))])
def test_det_phase_steps_below_pi_on_the_scan_grid(model, window):
    # the atom count of a scan cell takes the step of arg det(B alpha*) in
    # [0, 2 pi): it is exact while the phase increases by less than 2 pi
    # across the cell. The step does not depend on alpha. Summed over 65
    # subcells it stays positive and below pi on every cell of the scan
    # grid; on the interval models also with the grid shifted to put a
    # point on s = 0, where L2's B is NaN and the cell spans two (the
    # largest step, 1.96, is that cell's on L2 at a <= 0.8)
    b = livsic.livsic_function(model)
    grid = clark._scan_grid(*window, 0.5 * b.scan_step, b.ac_edge)
    grids = [grid] if model.halfline else [grid, grid - grid[np.argmin(abs(grid))]]
    for pts in grids:
        pts = pts[np.all(np.isfinite(b.fn(pts)), axis=(1, 2))]
        t = np.concatenate([[0.0], (np.arange(64) + 0.5) / 64, [1.0]])
        det = np.linalg.det(b.fn(pts[:-1, None] + np.diff(pts)[:, None] * t))
        step = np.sum(np.angle(det[:, 1:] / det[:, :-1]), axis=1)
        assert 0.0 < np.min(step) and np.max(step) < math.pi


def test_point_mass_refuses_two_poles_in_one_circle():
    # two L2 atoms 0.073 apart, both inside a circle of radius 0.115 (half
    # the scan step) around the one pole that the sums of such a circle
    # place between them: the second moment shows the two poles, where the
    # residue alone would read as one atom with their summed mass
    alpha = np.array(
        [[-0.49121901621699293 - 0.3404899637733655j,
          -0.5320378119597038 + 0.5997551411380755j],
         [-0.45443034394051274 + 0.6605024793159593j,
          -0.44849476727109416 - 0.3950721213323274j]])
    b = livsic.livsic_function(models.l2(1.7255712856402476))
    locs, _ = clark.atom_scan(b, alpha, (0.0, 1.0))
    assert locs == pytest.approx([0.270936, 0.344274], abs=1e-6)
    radius = np.array([0.5 * b.scan_step])
    f = clark._circle_resolvent(b, alpha, np.array([locs.mean()]), radius)
    between = locs.mean() + clark._pole_offset(clark._moments(f), radius)[0].real
    assert locs[0] < between < locs[1]
    with pytest.raises(ConvergenceError, match="more than one pole"):
        clark.point_mass(b, alpha, between)


def test_point_mass_refusal_names_the_failed_test():
    # (I - B(w))^{-1} = R/(w - s0) + I has one pole, whose mass (a multiple
    # of R, not Hermitian) has a positive definite Hermitian part: the
    # residue fails on its skew part alone, and the message names that test
    # and does not blame two poles, since the second moment vanishes
    s0 = -1.0
    mass = np.array([[1.0, 0.1], [-0.1, 1.0]])
    r = mass * np.pi * (1.0 + s0 * s0) ** 2 / -2j

    def fn(w):
        d = (np.asarray(w) - s0)[..., None, None]
        return np.eye(2) - d * np.linalg.inv(r + d * np.eye(2))

    b = livsic.SchurFunction(n=2, fn=fn, ac_edge=math.inf, scan_step=1.0)
    with pytest.raises(ConvergenceError, match="skew part") as info:
        clark.point_mass(b, np.eye(2), s0)
    message = str(info.value)
    assert "more than one pole" not in message
    assert "second moment" not in message and "lowest" not in message


@pytest.mark.parametrize("model, alpha", [
    (models.l1(1.0), [[1.0]]),
    (models.l2(1.0), random_unitary(2, np.random.default_rng([3, 4])))])
def test_circle_moments_from_the_node_power_table(model, alpha):
    # the table product gives mean(F t^k) over all nodes for k = 1, 2, 3
    # and over the even nodes for k = 1, 2, as the sums node by node do
    b = livsic.livsic_function(model)
    centre = np.array([-1.3, 0.2, 2.9])
    radius = np.array([0.1, 0.4, 0.05])
    f = clark._circle_resolvent(b, np.asarray(alpha, dtype=complex),
                                centre, radius)
    got = clark._moments(f)
    t = np.exp(2j * np.pi * np.arange(64) / 64)[:, None, None]
    want = [np.mean(f * t ** k, axis=1) for k in (1, 2, 3)]
    want += [np.mean(f[:, ::2] * t[::2] ** k, axis=1) for k in (1, 2)]
    want = np.stack(want, axis=1)
    assert got.shape == want.shape
    scale = np.max(np.abs(f), axis=(1, 2, 3))[:, None, None, None]
    assert np.max(np.abs(got - want) / scale) <= 1e-15


def _double_k2_coupling(s0):
    # the unitary part of B_K2(s0): both eigenphases of B alpha* pass 0 at s0
    u, _, vh = np.linalg.svd(livsic.livsic_eval(models.k2(), s0))
    return u @ vh


@pytest.mark.parametrize("s0", [-1e12, -1e18])
def test_atom_scan_refinement_is_bounded(monkeypatch, s0):
    # far down the K2 axis the counts are noise; splitting every failing
    # cell into 8 once grew the grid to 2e5 points and then ran out of
    # memory. A negative count, or sub-cell counts that do not add up to
    # their cell's, now ends the scan before any count passes 1000 points
    counts = clark._cell_counts

    def bounded(b, alpha, pts, rows):
        assert pts.size <= 1000, f"a count of {pts.size} points"
        return counts(b, alpha, pts, rows)

    monkeypatch.setattr(clark, "_cell_counts", bounded)
    b = livsic.livsic_function(models.k2())
    with pytest.raises(ConvergenceError):
        clark.atom_scan(b, _double_k2_coupling(s0), (2.0 * s0, 0.5))


def test_atom_scan_double_k2_atoms_are_found():
    b = livsic.livsic_function(models.k2())
    for s0 in (-0.5, -30.0, -1e3):
        locs, masses = clark.atom_scan(b, _double_k2_coupling(s0), (2.0 * s0, 0.5))
        assert locs == pytest.approx([s0], rel=1e-12)
        assert np.all(np.linalg.eigvalsh(masses[0]) > 0.0)


def test_split_cell_counts_must_add_up():
    # B = exp(i (c w - 0.05)) steps its phase by c > 2 pi per cell of width
    # 1, so a cell that holds two atoms counts one; its circle holds two
    # poles, and its sub-cells count two: the scan refuses
    c = 2.0 * math.pi + 0.3

    def alias(w):
        return np.exp(1j * (c * np.asarray(w) - 0.05))[..., None, None]

    b = livsic.SchurFunction(n=1, fn=alias, ac_edge=math.inf, scan_step=2.0)
    with pytest.raises(ConvergenceError, match="do not add up"):
        clark.atom_scan(b, [[1.0]], (0.0, 1.0))


def test_failing_cell_stops_at_float_resolution():
    # a B that is NaN off the axis fails every circle; the cell around its
    # atom at 0.3 is split until it is too narrow to split
    def axis_only(w):
        w = np.asarray(w, dtype=complex)
        return np.where(w.imag == 0, np.exp(0.5j * (w - 0.3)),
                        np.nan)[..., None, None]

    b = livsic.SchurFunction(n=1, fn=axis_only, ac_edge=math.inf, scan_step=2.0)
    with pytest.raises(ConvergenceError, match="float resolution"):
        clark.atom_scan(b, [[1.0]], (0.0, 1.0))


def test_nan_on_a_residue_circle_is_refused(b_k1):
    # the K1 Robin atom at -1 (mass 0.1318...) seen through a B that is NaN
    # at the nodes with |Im w| > 0.49: a NaN sum is not a zero mass.
    # point_mass's radius-0.5 circle meets two of them and refuses; the
    # scan's first circle around the atom's cell meets them too, so the
    # cell is split and a narrower circle without NaN weighs the atom
    alpha = [[extensions.alpha_from_bc_k1(1.0, 1.0)]]
    assert clark.point_mass(b_k1, alpha, -1.0)[0, 0].real == pytest.approx(
        0.1318482719, rel=1e-9)
    holes = []

    def holed(w):
        hole = (np.abs(np.imag(w)) > 0.49)[..., None, None]
        holes.append(bool(np.any(hole)))
        return np.where(hole, np.nan, b_k1.fn(w))

    b = replace(b_k1, fn=holed)
    with pytest.raises(ConvergenceError):
        clark.point_mass(b, alpha, -1.0)
    holes.clear()
    locs, masses = clark.atom_scan(b, alpha, (-10.0, 0.5))
    assert locs == pytest.approx([-1.0], rel=1e-12)
    assert masses[0, 0, 0].real == pytest.approx(0.1318482719, rel=1e-9)
    # the grid, the circle with NaN, the split cell, the circle without
    assert holes == [False, True, False, False]


def test_atoms_on_the_window_ends_are_inside():
    # an atom on an end of the window, placed an ulp outside it, is kept:
    # the K1 Robin atom at -1 on (-1, 0.5), and on L1 (alpha = i) a window
    # from one lattice point to another holds both
    b = livsic.livsic_function(models.k1())
    locs, masses = clark.atom_scan(
        b, [[extensions.alpha_from_bc_k1(1.0, 1.0)]], (-1.0, 0.5))
    assert locs == pytest.approx([-1.0], rel=1e-12)
    assert masses[0, 0, 0].real == pytest.approx(0.1318482719, rel=1e-9)
    lattice = models.l1_atoms(1j, 1.0, (-2, 1))
    locs, _ = clark.atom_scan(livsic.livsic_function(models.l1(1.0)), [[1j]],
                              (lattice[0], lattice[-1]))
    assert locs == pytest.approx(lattice, rel=1e-12)


def test_coupling_of_the_wrong_size_is_refused(b_k1, b_l1):
    b_k2 = livsic.livsic_function(models.k2())
    for call in (lambda: clark.ac_density(b_k2, [[1.0]], [1.0, 2.0]),
                 lambda: clark.ac_density(b_k1, np.eye(2), 1.0),
                 lambda: clark.point_mass(b_k2, [[1.0]], -1.0),
                 lambda: clark.atom_scan(b_l1, np.eye(2), (-3.0, 3.0))):
        with pytest.raises(DimensionError):
            call()
