"""Deterministic work counts: B evaluations per boundary value and per scan.

Wall time on a shared machine is noisy; the number of characteristic-function
evaluations a routine makes is not, so these counts pin the cost of the
density's direct boundary evaluation, of the point masses and of the atom
scan. B takes arrays of points, so each count is both the number of calls
and the number of points evaluated. The oracle's counts are its
quadrature calls per criterion and the calls of its root search.
"""

import argparse
import math

import numpy as np
import pytest

from clarkspectra import checks, clark, cli, extensions, livsic, models, oracle
from clarkspectra.cplane import random_unitary


class CountingB:
    """A model's SchurFunction that counts its calls and the points they
    carry."""

    def __init__(self, model):
        self.b = livsic.livsic_function(model)
        self.n = self.b.n
        self.ac_edge = self.b.ac_edge
        self.scan_step = self.b.scan_step
        self.calls = 0
        self.points = 0
        self.sizes = []

    def __call__(self, w, derivative=False):
        self.calls += 1
        self.points += np.size(w)
        self.sizes.append(np.size(w))
        return self.b(w, derivative)


def test_density_evaluation_counts():
    # one B evaluation on the essential spectrum, none off it
    for model, alpha in ((models.k1(), [[-1.0]]), (models.k2(), np.eye(2))):
        b = CountingB(model)
        clark.ac_density(b, alpha, 1.5)
        assert (b.calls, b.points) == (1, 1)
        clark.ac_density(b, alpha, 0.0)
        clark.ac_density(b, alpha, -2.0)
        assert b.calls == 1
    b = CountingB(models.l1(1.0))
    clark.ac_density(b, [[1.0]], math.pi / 2)
    assert b.calls == 0


def test_density_grid_is_one_call():
    # a grid across the edge of the essential spectrum: one call of B on
    # the points with s > 0
    b = CountingB(models.k2())
    grid = np.linspace(-2.0, 5.0, 141)
    rho = clark.ac_density(b, np.eye(2), grid)
    assert rho.shape == (141, 2, 2)
    assert (b.calls, b.points) == (1, int(np.sum(grid > 0)))


def test_density_request_validates_alpha_once(monkeypatch, capsys):
    seen = []
    check = clark.check_unitary
    monkeypatch.setattr(clark, "check_unitary",
                        lambda *a, **k: seen.append(1) or check(*a, **k))
    assert cli.main(["density", "--model", "k2", "--alpha", "[[1,0],[0,1]]",
                     "--grid", "0.1:5:200"]) == 0
    capsys.readouterr()
    assert len(seen) == 1


def test_residue_evaluation_counts():
    # one point of B and B' per atom, all atoms of a call in one call of B
    b = CountingB(models.l1(1.0))
    atoms = oracle.l1_atoms(1.0, 1.0, (-3, 3))
    clark.point_mass(b, [[1.0]], atoms)
    assert (b.calls, b.points) == (1, len(atoms))


def test_l2_dirichlet_scan_counts():
    # three calls: the grid (141 points, cells of at most pi/16 on the
    # window widened by pi/16 at each end, so that an atom on an end lies
    # inside a cell), and two Newton rounds on the 3 cells that count an
    # atom, each at the iterate and at a second point next to it
    model = models.l2(1.0)
    bm = extensions.BoundaryMatrices([[1, 0], [0, 0]], [[0, 0], [1, 0]])
    alpha = extensions.alpha_from_bc_regular(model, bm)
    b = CountingB(model)
    atoms, _ = clark.atom_scan(b, alpha, (-1.0, 26.0))
    assert len(atoms) == 3
    assert (b.calls, b.points) == (3, 141 + 2 * 2 * 3)


# Three Newton rounds on the two cells of the K2 atoms of alpha = -I, at
# two points per cell (one cell is placed in the second)
_K2_NEWTON = [4, 4, 2]


def test_k2_scan_of_a_wide_window_counts():
    # below the branch point the grid is geometric, 16 points per decade of
    # the distance to 0 down to 1e-10: 22 decades cost fewer than 400
    # points
    b = CountingB(models.k2())
    atoms, _ = clark.atom_scan(b, -np.eye(2), (-1e12, 0.5))
    assert len(atoms) == 2
    assert b.sizes == [356] + _K2_NEWTON


def test_scan_reaches_past_each_end_by_its_own_distance_to_the_cut():
    # the grid reaches past each end of a half-line window by half of that
    # end's distance to the cut, so the top end of a window far down the
    # axis stays far down: (-1e300, -1e299) is one call of 25 points with
    # no atom, not every decade down to -1e-10; windows below the cut
    # keep their atoms with shorter grids
    b = CountingB(models.k2())
    atoms, _ = clark.atom_scan(b, np.eye(2), (-1e300, -1e299))
    assert atoms.size == 0 and b.sizes == [25]
    b = CountingB(models.k1())
    atoms, _ = clark.atom_scan(b, [[-1.0]], (-1.0, -0.1))
    assert np.allclose(atoms, [-0.5], rtol=1e-12, atol=0.0)
    assert b.sizes == [25, 2, 2]
    b = CountingB(models.k2())
    atoms, _ = clark.atom_scan(b, -np.eye(2), (-40.0, -0.001))
    assert len(atoms) == 2 and b.sizes == [83] + _K2_NEWTON


def test_atom_scan_runs_no_lapack_svd(monkeypatch):
    # the eigenphases on the scan grid come from the closed-form 2 x 2
    # eigenvalues, not from LAPACK; each scan is the grid and at most four
    # Newton rounds on the cells that count atoms where no cell splits
    # (these take one to three), each at two points per cell
    dirichlet = extensions.BoundaryMatrices([[1, 0], [0, 0]], [[0, 0], [1, 0]])
    robin = extensions.BoundaryMatrices([[1.0, 1.0]], np.empty((1, 0)))
    cases = (
        (models.l1(1.0), [[1.0]], (-10.0, 10.0), [105, 12, 12]),
        (models.l2(1.0), extensions.alpha_from_bc_regular(models.l2(1.0), dirichlet),
         (-1.0, 26.0), [141, 6, 6]),
        (models.k1(), extensions.alpha_from_bc_regular(models.k1(), robin),
         (-10.0, 0.5), [180, 2]),
        (models.k2(), -np.eye(2), (-1.0, 0.5), [164] + _K2_NEWTON),
    )
    svd_calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda *a, **k: svd_calls.append(1) or svd(*a, **k))
    for model, alpha, window, sizes in cases:
        b = CountingB(model)
        atoms, _ = clark.atom_scan(b, alpha, window)
        assert len(atoms) > 0, model.name
        assert b.sizes == sizes, model.name
        assert len(b.sizes) <= 1 + clark._ROUNDS
    assert svd_calls == []


def test_atoms_request_evaluates_b_in_the_scan_only(monkeypatch, capsys):
    # a CLI atoms request on the half-line: the geometric grid and the
    # Newton rounds of the scan, and no other evaluation of B
    b = CountingB(models.k2())
    monkeypatch.setattr(livsic, "livsic_function", lambda model: b)
    assert cli.main(["atoms", "--model", "k2", "--alpha", "[[-1,0],[0,-1]]",
                     "--window=-1:0.5"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3
    assert b.sizes == [164] + _K2_NEWTON


def test_one_parser_per_process(monkeypatch, capsys):
    # main builds the parser on its first call and reuses it: one top-level
    # parser and its five subparsers, however many requests follow
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._parser.cache_clear()
    try:
        for argv in (
                ["density", "--model", "k1", "--alpha", "-1", "--grid", "1:2:3"],
                ["density", "--model", "k2", "--alpha", "[[1,0],[0,1]]",
                 "--grid", "1:2:3", "--format", "json"],
                ["atoms", "--model", "l1", "--alpha", "1", "--window=0:7"],
                ["livsic", "--model", "l2", "--grid=-1:1:3"],
                ["bcmap", "--model", "k1", "--b", "1", "--c", "1"]):
            assert cli.main(argv) == 0
    finally:
        cli._parser.cache_clear()
    capsys.readouterr()
    assert sorted(built) == ["clarkspectra", "clarkspectra atoms",
                             "clarkspectra bcmap", "clarkspectra density",
                             "clarkspectra livsic", "clarkspectra verify"]


def test_oracle_quadrature_calls(monkeypatch):
    # one stacked quad_inner per model of criterion 10 (4, each over its 20
    # points), one per coupling of criterion 6 (3, each over its 5 points)
    # and one per mass of criterion 11 (the K1 Robin mass and 12 K2 atoms):
    # 20 in all
    calls = []
    quad_inner = oracle.quad_inner
    monkeypatch.setattr(oracle, "quad_inner",
                        lambda *a, **k: calls.append(1) or quad_inner(*a, **k))
    results = checks.run_all(seed=0, numbers={6, 10, 11})
    assert all(r.passed for r in results)
    assert len(calls) == 20


def test_criterion_2_weight_calls(monkeypatch):
    # one closed-weight call per coupling on its array of atoms (4) and one
    # for the coth comparison
    calls = []
    l1_weight = oracle.l1_weight
    monkeypatch.setattr(oracle, "l1_weight",
                        lambda *a, **k: calls.append(1) or l1_weight(*a, **k))
    results = checks.run_all(seed=0, numbers={2})
    assert all(r.passed for r in results)
    assert len(calls) == 5


def _reference_bisect(fn, lo, hi):
    """Bisection to float resolution, the root search that oracle._bisect
    made before its Illinois steps: 100 halvings with no early stop."""
    flo = fn(lo)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        fmid = fn(mid)
        left = fmid * flo > 0
        lo, flo, hi = (np.where(left, mid, lo), np.where(left, fmid, flo),
                       np.where(left, hi, mid))
    return lo


def _roots_both_ways(monkeypatch, bm, a, window):
    """(roots, calls, reference) of l2_eigenvalues: its roots, the calls of
    the searched function per search of oracle._bisect, both ends
    included, and the roots with _reference_bisect in its place, where a
    root within the zero tolerance of 0 reads 0, as oracle._bisect
    returns it."""
    zero = np.finfo(float).eps * max(1.0, abs(window[0]), abs(window[1]))
    with monkeypatch.context() as m:
        m.setattr(oracle, "_bisect", lambda fn, lo, hi, _: _reference_bisect(fn, lo, hi))
        reference = [0.0 if abs(r) <= zero else r
                     for r in oracle.l2_eigenvalues(bm, a, window)]
    bisect, calls = oracle._bisect, []

    def counting(fn, lo, hi, tol):
        calls.append(0)

        def counted(s):
            calls[-1] += 1
            return fn(s)
        return bisect(counted, lo, hi, tol)
    with monkeypatch.context() as m:
        m.setattr(oracle, "_bisect", counting)
        got = oracle.l2_eigenvalues(bm, a, window)
    return got, calls, reference


def test_l2_root_search_ends_on_the_bisection_roots(monkeypatch):
    """The Illinois search on criterion 7's four inputs: one search per
    l2_eigenvalues over the sign-change and the local-minimum brackets
    together, the roots bitwise those of bisection to float resolution,
    the two roots of the periodic windows at s = 0 are 0 itself, and no
    search takes more than 25 calls of its function, both ends included
    (bisection takes up to 51)."""
    inputs = []
    l2_eigenvalues = oracle.l2_eigenvalues
    with monkeypatch.context() as m:
        m.setattr(oracle, "l2_eigenvalues",
                  lambda *a: inputs.append(a) or l2_eigenvalues(*a))
        assert checks.check_7()[0]
    assert len(inputs) == 4
    at_zero = 0
    for bm, a, window in inputs:
        got, calls, reference = _roots_both_ways(monkeypatch, bm, a, window)
        assert got == reference
        assert len(calls) == 1 and max(calls) <= 25
        at_zero += got.count(0.0)
    assert at_zero == 2


def test_criterion_7_interval_matrix_calls(monkeypatch):
    # per l2_eigenvalues: one on the grid, one on the ends of the minimum
    # brackets, one per call of the root search (11, 11, 11 and 12 calls)
    # and one on the roots: 14 + 14 + 14 + 15
    calls = []
    interval_matrix = oracle._interval_matrix
    monkeypatch.setattr(oracle, "_interval_matrix",
                        lambda *a: calls.append(1) or interval_matrix(*a))
    assert checks.check_7()[0]
    assert len(calls) == 57


@pytest.mark.parametrize("a,tol", [(0.3, 1e-13), (1.0, 1e-15), (2.0, 1e-15)])
def test_l2_root_search_sweep_matches_bisection(monkeypatch, a, tol):
    # five Haar couplings mapped to boundary conditions, on three windows:
    # the same roots as bisection, up to the noise of det M, which is
    # larger on short intervals; never more calls than bisection's 51
    for seed in range(5):
        alpha = random_unitary(2, np.random.default_rng([seed, 77]))
        bm = extensions.bc_from_alpha_regular(models.l2(a), alpha)
        for window in ((-5.0, 200.0), (-30.0, 5.0), (-1.0, 60.0 / a ** 2)):
            got, calls, reference = _roots_both_ways(monkeypatch, bm, a, window)
            assert len(got) == len(reference)
            assert all(abs(x - y) <= tol * max(1.0, abs(y))
                       for x, y in zip(got, reference))
            assert max(calls) <= 51
