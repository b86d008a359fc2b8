import math
import warnings
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
    # a point of the support where alpha - B(s) is singular to rounding
    # (K1's B tends to 1 as s grows, and alpha = 1) is refused
    with pytest.raises(SingularError, match="s = 1e"):
        clark.ac_density(b_k1, [[1.0]], [1.0, 1e100])
    # K2's B is defined far out, where 1 + s^2 overflows: the density
    # underflows to an exact zero, with no warning
    b_k2 = livsic.livsic_function(models.k2())
    assert not np.any(clark.ac_density(b_k2, np.eye(2), [1e160]))


def test_k2_density_is_hermitian_psd_next_to_the_branch_point():
    # the density is the real part of an O(1) Herglotz matrix, so its
    # eigenvalues are nonnegative to that matrix's rounding; at s = 1e-40
    # one read -1.0e-7, and at s = 1e-70 B was singular
    b = livsic.livsic_function(models.k2())
    rho = clark.ac_density(b, np.eye(2), [1e-70, 1e-40, 1e-30])
    assert np.array_equal(rho, rho.conj().swapaxes(-1, -2))
    assert np.min(np.linalg.eigvalsh(rho)) >= -1e-15


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
    # gives, and K1 at s = 1e100 with alpha = 1, where B = 1 to rounding,
    # the real case
    alpha = random_unitary(2, np.random.default_rng(8))
    b = livsic.livsic_function(models.k2())
    at = lambda w, derivative=False: np.where(
        np.asarray(w)[..., None, None] == 2.0, alpha, b.fn(w))
    with pytest.raises(SingularError, match="s = 2.0"):
        clark.ac_density(replace(b, fn=at), alpha, [1.0, 2.0, 3.0])
    with pytest.raises(SingularError):
        clark.ac_density(livsic.livsic_function(models.k1()), [[1.0]], [1e100])


def test_point_mass_array_and_refusals(b_k1, b_l1):
    # alpha = 1 on L1: atoms at pi/2 + n pi
    atoms = models.l1_atoms(1.0, 1.0, (-2, 2))
    masses = clark.point_mass(b_l1, [[1.0]], atoms)
    assert masses.shape == (5, 1, 1)
    for s, m in zip(atoms, masses):
        assert m[0, 0].real == pytest.approx(models.l1_weight(1.0, 1.0, s),
                                             rel=1e-13)
    assert clark.point_mass(b_l1, [[1.0]], []).shape == (0, 1, 1)
    # not finite, on the essential spectrum
    with pytest.raises(DomainError):
        clark.point_mass(b_l1, [[1.0]], math.nan)
    for s in (0.0, 0.7):
        with pytest.raises(DomainError):
            clark.point_mass(b_k1, [[1j]], s)


def test_point_mass_is_zero_next_to_an_atom(b_l1):
    # points 0.005, 0.0249 and 0.26 from the atom at pi/2: the Newton step
    # to the atom is over the tolerance, so no atom at s, and no mass
    for offset in (0.005, 0.0249, 0.26):
        mass = clark.point_mass(b_l1, [[1.0]], math.pi / 2 + offset)
        assert np.array_equal(mass, np.zeros((1, 1)))
    # an array mixes the atom and a point next to it
    masses = clark.point_mass(b_l1, [[1.0]], [math.pi / 2, math.pi / 2 + 0.1])
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
      for a in (0.01, 0.1)),
    pytest.param(models.l2(5.0), (-3.0, 50.0), id="L2-a5.0")])
def test_det_phase_steps_below_pi_on_the_scan_grid(model, window):
    # the atom count of a scan cell takes the step of arg det(B alpha*) in
    # [0, 2 pi): it is exact while the phase increases by less than 2 pi
    # across the cell. The step does not depend on alpha. Summed over 65
    # subcells it stays positive and below pi on every cell of the scan
    # grid; on the interval models also with the grid shifted to put a
    # point on s = 0, where L2's even and odd raw functions keep B defined
    # (the largest step, 0.98, is L2's at a <= 0.8). At a = 5 the step is
    # the third of the Dirichlet gap, pi^2/(12 a^2)
    b = livsic.livsic_function(model)
    grid = clark._scan_grid(*window, 0.5 * b.scan_step, b.ac_edge)
    grids = [grid] if model.halfline else [grid, grid - grid[np.argmin(abs(grid))]]
    for pts in grids:
        pts = pts[np.all(np.isfinite(b.fn(pts)), axis=(1, 2))]
        t = np.concatenate([[0.0], (np.arange(64) + 0.5) / 64, [1.0]])
        det = np.linalg.det(b.fn(pts[:-1, None] + np.diff(pts)[:, None] * t))
        step = np.sum(np.angle(det[:, 1:] / det[:, :-1]), axis=1)
        assert 0.0 < np.min(step) and np.max(step) < math.pi


def test_two_close_l2_atoms_are_found_apart():
    # two L2 atoms 0.073 apart, closer than the scan step (0.23): the scan
    # places both, with the eigenfunction masses, and the point between
    # them carries no mass
    from clarkspectra import oracle
    alpha = np.array(
        [[-0.49121901621699293 - 0.3404899637733655j,
          -0.5320378119597038 + 0.5997551411380755j],
         [-0.45443034394051274 + 0.6605024793159593j,
          -0.44849476727109416 - 0.3950721213323274j]])
    model = models.l2(1.7255712856402476)
    b = livsic.livsic_function(model)
    locs, masses = clark.atom_scan(b, alpha, (0.0, 1.0))
    assert locs == pytest.approx([0.270936, 0.344274], abs=1e-6)
    for s, mass in zip(locs, masses):
        ref = oracle.eigen_mass(model, alpha, s)
        assert np.max(np.abs(mass - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert not np.any(clark.point_mass(b, alpha, locs.mean()))


def _double_k2_coupling(s0):
    # the unitary part of B_K2(s0): both eigenphases of B alpha* pass 0 at s0
    u, _, vh = np.linalg.svd(livsic.livsic_eval(models.k2(), s0))
    return u @ vh


@pytest.mark.parametrize("s0", [-1e12, -1e18])
def test_atom_scan_refinement_is_bounded(monkeypatch, s0):
    # far down the K2 axis the counts were noise; splitting every failing
    # cell into 8 once grew the grid to 2e5 points and then ran out of
    # memory. No count passes 1000 points, and the scan places the double
    # atom: at -1e12 4.4e-13 relative off s0, its rank-2 mass 2.7e-11 off
    # the eigenfunction mass, at -1e18 3.2e-11 and 6.7e-8. B' keeps its
    # digits there (1e-15 relative), but the mass is H^{-1} for an H whose
    # eigenvalues differ by a factor 1e9 at -1e18
    from clarkspectra import oracle
    counts = clark._cell_counts

    def bounded(b, alpha, pts, rows):
        assert pts.size <= 1000, f"a count of {pts.size} points"
        return counts(b, alpha, pts, rows)

    monkeypatch.setattr(clark, "_cell_counts", bounded)
    b = livsic.livsic_function(models.k2())
    alpha = _double_k2_coupling(s0)
    locs, masses = clark.atom_scan(b, alpha, (2.0 * s0, 0.5))
    assert locs == pytest.approx([s0], rel=1e-12 if s0 > -1e16 else 1e-10)
    ref = oracle.eigen_mass(models.k2(), alpha, locs[0])
    bound = 5e-10 if s0 > -1e16 else 1e-6
    assert np.max(np.abs(masses[0] - ref)) <= bound * np.max(np.abs(ref))


def test_atom_scan_double_k2_atoms_are_found():
    # a double atom is one atom with a rank-2 mass, to 1e-11 of the
    # eigenfunction mass down to -1e8 (where the scan refused before;
    # 9.9e-13 there)
    from clarkspectra import oracle
    b = livsic.livsic_function(models.k2())
    for s0 in (-0.5, -30.0, -1e3, -1e8):
        alpha = _double_k2_coupling(s0)
        locs, masses = clark.atom_scan(b, alpha, (2.0 * s0, 0.5))
        assert locs == pytest.approx([s0], rel=1e-12)
        assert np.all(np.linalg.eigvalsh(masses[0]) > 0.0)
        ref = oracle.eigen_mass(models.k2(), alpha, locs[0])
        assert np.max(np.abs(masses[0] - ref)) <= 1e-11 * np.max(np.abs(ref))


def test_double_k2_atom_on_a_scan_grid_point():
    # a double atom on a point -10^(k/16) of the geometric grid splits
    # across two cells; Newton steps on the fast eigenphase, not on the
    # slow, ill-conditioned one, and places it to 1e-12
    b = livsic.livsic_function(models.k2())
    for k in range(-16, 192, 3):
        s0 = -10.0 ** (k / 16)
        locs, _ = clark.atom_scan(b, _double_k2_coupling(s0), (2.0 * s0, 0.5))
        assert locs == pytest.approx([s0], rel=1e-12), k


@pytest.mark.parametrize("sigma", [1e6, 1e15, 1e39, 1e60])
def test_far_k1_robin_atom(sigma):
    # the Robin atom at -sigma^2 of sigma, far down the half-line, with
    # its eigenfunction mass, also where (1 + s^2)^2 overflows
    # (|s| > 1.3e77), with no warning
    from clarkspectra import oracle
    alpha = [[extensions.alpha_from_bc_k1(sigma, 1.0)]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        locs, masses = clark.atom_scan(livsic.livsic_function(models.k1()),
                                       alpha, (-2.0 * sigma ** 2, 0.5))
    assert locs == pytest.approx([-sigma ** 2], rel=1e-12)
    ref = oracle.eigen_mass(models.k1(), alpha, -sigma ** 2)[0, 0].real
    assert abs(masses[0, 0, 0].real - ref) <= 1e-12 * ref


def test_point_mass_is_zero_next_to_the_k2_branch_point():
    # 40 points on [-1e-8, -1e-11] that are not atoms of the third Haar
    # coupling of seed 13: each Newton step is over its tolerance, which
    # is relative to the distance to the cut there
    rng = np.random.default_rng(13)
    alpha = [random_unitary(2, rng) for _ in range(3)][2]
    b = livsic.livsic_function(models.k2())
    masses = clark.point_mass(b, alpha, -np.logspace(-8.0, -11.0, 40))
    assert not np.any(masses)


def _fake_b(phase, slope):
    """A 1 x 1 Schur function exp(i phase(w)) with derivative."""
    def fn(w, derivative=False):
        w = np.asarray(w)
        value = np.exp(1j * phase(w))[..., None, None]
        if derivative:
            return value, 1j * slope(w)[..., None, None] * value
        return value
    return livsic.SchurFunction(n=1, fn=fn, ac_edge=math.inf, scan_step=2.0)


def test_split_cell_counts_must_add_up():
    # B = exp(i (c w - 0.05)) steps its phase by c > 2 pi per cell of width
    # 1, so a cell that holds two atoms counts one; Newton places one of
    # them, but its velocity c sweeps more than the counted turn across
    # the cell, so the cell is split, and its sub-cells count two: the
    # scan refuses
    c = 2.0 * math.pi + 0.3
    b = _fake_b(lambda w: c * w - 0.05, lambda w: c + 0.0 * w)
    with pytest.raises(ConvergenceError, match="do not add up"):
        clark.atom_scan(b, [[1.0]], (0.0, 1.0))


def test_failing_cell_stops_at_float_resolution():
    # the eigenphase (s - 0.3)^3 has zero velocity at its atom: Newton
    # converges only linearly there and no step is accepted, so the cell
    # around 0.3 is split until it is too narrow to split
    b = _fake_b(lambda w: (w - 0.3) ** 3, lambda w: 3.0 * (w - 0.3) ** 2)
    with pytest.raises(ConvergenceError, match="float resolution"):
        clark.atom_scan(b, [[1.0]], (0.0, 1.0))


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
