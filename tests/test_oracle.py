import cmath
import math

import numpy as np
import pytest
import scipy.sparse.linalg
from scipy import linalg

from clarkspectra import extensions, models, oracle
from clarkspectra.cplane import principal_power, random_unitary
from clarkspectra.errors import (ConvergenceError, DomainError, RankError,
                                 ToleranceError)

DIRICHLET = extensions.BoundaryMatrices([[1, 0], [0, 0]], [[0, 0], [1, 0]])
PERIODIC = extensions.BoundaryMatrices(np.eye(2), -np.eye(2))


def test_nt_limit_polynomial_is_exact():
    # f(w) = 3 + 2w has boundary value 3 + 2s
    val = oracle.nt_limit(lambda w: 3.0 + 2.0 * w, 0.7)
    assert val == pytest.approx(3.0 + 1.4, abs=1e-10)


def test_nt_limit_sqrt_branch_behaviour():
    # sqrt(w) off the cut: ladder must handle the eps^(1/2) expansion at s=0
    val = oracle.nt_limit(lambda w: principal_power(w, 0.5), 0.0)
    assert abs(val) < 1e-7


def test_nt_limit_full_output_and_failure():
    val, err, k = oracle.nt_limit(lambda w: w * w, 2.0, full_output=True)
    assert val == pytest.approx(4.0, abs=1e-9)
    assert err >= 0 and k >= 1
    with pytest.raises(ConvergenceError):
        # oscillating, no boundary limit
        oracle.nt_limit(lambda w: cmath.exp(1j / w.imag), 0.0)


def test_nt_limit_rejects_non_finite_ladder_values():
    with pytest.raises(ConvergenceError):
        oracle.nt_limit(lambda w: complex("nan"), 1.0)


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


def test_quad_inner_budget_enforced():
    # a two-digit cutoff leaves a fat truncation tail on the half-line
    f = ([1.0], [-1.0])
    spec = oracle.QuadratureSpec(halfline_cutoff_digits=2.0)
    with pytest.raises(ToleranceError):
        oracle.quad_inner(models.k1(), f, f, spec)
    assert oracle.QuadratureSpec().abs_tol == 1e-10


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
    a = 0.8
    for beta in (1.0, np.exp(0.9j), np.exp(-2.4j)):
        alpha = extensions.alpha_from_bc_l1(beta, a)
        direct = oracle.l1_eigenvalues_direct(beta, a, (-3, 3))
        mapped = models.l1_atoms(alpha, a, (-4, 4))
        for s in direct:
            assert min(abs(s - t) for t in mapped) < 1e-10


def test_l1_direct_guards():
    with pytest.raises(DomainError):
        oracle.l1_eigenvalues_direct(0.5, 1.0, (0, 1))
    with pytest.raises(DomainError):
        oracle.l1_eigenvalues_direct(1.0, -1.0, (0, 1))


def test_fd_dirichlet_lattice():
    vals = oracle.l2_eigenvalues_fd(DIRICHLET, 1.0, (0.5, 25.0),
                                    grid_points=200)
    exact = [(k * math.pi / 2.0) ** 2 for k in (1, 2, 3)]
    assert len(vals) == 3
    for v, t in zip(vals, exact):
        assert abs(v - t) < 1e-4 * (1.0 + abs(t))


def test_fd_periodic_doubles():
    vals = oracle.l2_eigenvalues_fd(PERIODIC, 1.0, (-0.5, 45.0),
                                    grid_points=200)
    assert len(vals) == 5
    assert abs(vals[0]) < 1e-3
    pi2 = math.pi ** 2
    assert vals[1] == pytest.approx(pi2, rel=1e-2)
    assert vals[2] == pytest.approx(pi2, rel=1e-2)
    assert vals[3] == pytest.approx(4 * pi2, rel=1e-2)
    assert vals[4] == pytest.approx(4 * pi2, rel=1e-2)


def _dense_fd(bm, a, npts, window):
    """Reference: every eigenvalue of the densified pencil by QZ, under the
    filters _fd_raw applies."""
    amat, bmat = oracle._fd_pencil(bm, a, npts)
    vals = linalg.eig(amat.toarray(), bmat.toarray(), right=False)
    return sorted(v.real for v in vals
                  if np.isfinite(v)
                  and abs(v.imag) <= 1e-6 * max(1.0, abs(v.real))
                  and window[0] <= v.real <= window[1])


FD_BCS = {"dirichlet": DIRICHLET, "periodic": PERIODIC}
FD_BCS.update(
    (f"random{seed}", extensions.bc_from_alpha_regular(
        models.l2(1.0), random_unitary(2, np.random.default_rng([seed, 4]))))
    for seed in range(3))


@pytest.mark.parametrize("label", list(FD_BCS))
@pytest.mark.parametrize("window", [(-5.0, 50.0), (-5.0, 2000.0),
                                    (-200.0, 20000.0)])
def test_fd_sparse_matches_dense(label, window):
    # the two wider windows hold 28-29 and 100 eigenvalues, past the
    # initial 16 of the shift-invert solve
    bm = FD_BCS[label]
    sparse_vals = oracle._fd_raw(bm, 1.0, 200, window)
    dense_vals = _dense_fd(bm, 1.0, 200, window)
    assert len(sparse_vals) == len(dense_vals)
    for s, d in zip(sparse_vals, dense_vals):
        assert abs(s - d) <= 1e-9 * max(1.0, abs(d))


def test_fd_arpack_failure_is_typed(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", [], [])

    monkeypatch.setattr(scipy.sparse.linalg, "eigs", no_convergence)
    with pytest.raises(ConvergenceError):
        oracle.l2_eigenvalues_fd(DIRICHLET, 1.0, (0.5, 25.0), grid_points=200)


def test_fd_singular_shift_moved_once(monkeypatch):
    real_splu = scipy.sparse.linalg.splu
    calls = []

    def singular_first(mat):
        calls.append(mat)
        if len(calls) == 1:
            raise RuntimeError("Factor is exactly singular")
        return real_splu(mat)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", singular_first)
    vals = oracle._fd_raw(DIRICHLET, 1.0, 200, (0.5, 25.0))
    assert len(calls) == 2
    assert vals == pytest.approx(_dense_fd(DIRICHLET, 1.0, 200, (0.5, 25.0)),
                                 rel=1e-9)

    def always_singular(mat):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(scipy.sparse.linalg, "splu", always_singular)
    with pytest.raises(ConvergenceError):
        oracle._fd_raw(DIRICHLET, 1.0, 200, (0.5, 25.0))


def test_fd_guards():
    with pytest.raises(DomainError):
        oracle.l2_eigenvalues_fd(DIRICHLET, 1.0, (0.0, 10.0), grid_points=150)
    bad = extensions.BoundaryMatrices([[1, 0], [2, 0]], [[1, 0], [2, 0]])
    with pytest.raises(RankError):
        oracle.l2_eigenvalues_fd(bad, 1.0, (0.0, 10.0), grid_points=200)


def test_fd_observed_order_near_two():
    order = oracle.fd_observed_order(DIRICHLET, 1.0, (0.5, 25.0),
                                     grid_points=100)
    assert 1.6 < order < 2.4


def test_bound_state_robin_unit_slope():
    location, weight = oracle.k1_bound_state_check(1.0, 1.0)
    assert location == pytest.approx(-1.0, abs=1e-12)
    assert weight == pytest.approx((math.sqrt(2.0) - 1.0) / math.pi, rel=1e-6)
    # projective invariance of the ray
    location2, weight2 = oracle.k1_bound_state_check(2.0, 2.0)
    assert location2 == pytest.approx(location, abs=1e-12)
    assert weight2 == pytest.approx(weight, rel=1e-9)


def test_bound_state_second_ray():
    location, weight = oracle.k1_bound_state_check(1.0, math.sqrt(2.0))
    assert location == pytest.approx(-0.5, abs=1e-12)
    assert weight == pytest.approx(0.20371832721067634, rel=1e-6)


def test_bound_state_absent():
    assert oracle.k1_bound_state_check(1.0, 0.0) is None   # Dirichlet
    assert oracle.k1_bound_state_check(0.0, 1.0) is None   # Neumann
    assert oracle.k1_bound_state_check(1.0, -1.0) is None  # wrong sign
    with pytest.raises(DomainError):
        oracle.k1_bound_state_check(1j, 1.0)
