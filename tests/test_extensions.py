import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clarkspectra import clark, extensions, livsic, models
from clarkspectra.cplane import random_unitary
from clarkspectra.defect import defect_onb
from clarkspectra.errors import (DimensionError, DomainError, NonUnitaryError,
                                 RankError, UnsupportedError)

rates = st.builds(complex,
                  st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
                  st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))


def _halfline(beta_a):
    beta_a = np.atleast_2d(np.asarray(beta_a, dtype=complex))
    return extensions.BoundaryMatrices(beta_a, np.empty((len(beta_a), 0)))


K2_CONDITIONS = {"clamped": [[1, 0, 0, 0], [0, 1, 0, 0]],
                 "free": [[0, 0, 1, 0], [0, 0, 0, 1]],
                 "hinged": [[1, 0, 0, 0], [0, 0, 1, 0]]}


def test_canonical_c():
    assert np.array_equal(extensions.canonical_c(1), np.array([[1.0]]))
    c2 = extensions.canonical_c(2)
    assert np.array_equal(c2, np.array([[0.0, -1.0], [1.0, 0.0]]))
    c4 = extensions.canonical_c(4)
    # alternating antidiagonal
    assert c4[0, 3] == -1.0 and c4[1, 2] == 1.0 and c4[2, 1] == -1.0 and c4[3, 0] == 1.0
    assert np.max(np.abs(c4 + c4.conj().T)) == 0.0  # skew


@given(rates)
@settings(max_examples=30, deadline=None)
def test_hat_vector_is_ordinary_derivatives(rate):
    f = ([1.5 - 0.5j], [rate])
    x = 0.4
    value = (1.5 - 0.5j) * cmath.exp(rate * x)
    hat = extensions.hat_vector(f, 4, x)
    for r in range(4):
        assert hat[r] == pytest.approx(rate ** r * value, rel=1e-10, abs=1e-12)


def test_hat_check_vectors():
    rate = 0.5 + 0.25j
    x = -0.3
    value = 2.0 * cmath.exp(rate * x)
    hat = extensions.hat_vector(([2.0], [rate]), 2, x)
    assert hat == pytest.approx(np.array([value, rate * value]))
    # a two-term sum, and a whole basis at once: one row per function
    coeffs, rates = defect_onb(models.l2(0.7), "-")
    rows = extensions.hat_vector((coeffs, rates), 2, x)
    assert rows.shape == (2, 2)
    for k in range(2):
        value = np.sum(coeffs[k] * np.exp(rates * x))
        slope = np.sum(coeffs[k] * rates * np.exp(rates * x))
        assert rows[k] == pytest.approx(np.array([value, slope]), rel=1e-13)
        assert np.array_equal(rows[k],
                              extensions.hat_vector((coeffs[k], rates), 2, x))


@given(rates, rates, st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
@settings(max_examples=30, deadline=None)
def test_bracket_matches_matrix_form_order_two(r1, r2, x):
    f = ([1.0 + 0.5j], [r1])
    g = ([0.7], [r2])
    br = extensions.lagrange_bracket(f, g, x, 2)
    fh = extensions.hat_vector(f, 2, x)
    gh = extensions.hat_vector(g, 2, x)
    assert br == pytest.approx(complex(gh.conj() @ extensions.canonical_c(2) @ fh),
                               rel=1e-10, abs=1e-12)


def test_bracket_higher_orders_pinned():
    # values of the term-by-term loop over derivative functions that the
    # hat-vector form replaced
    f = ([1 + 0.5j, 0.4], [0.3 - 0.2j, -1.1 + 0.7j])
    g = ([0.7 - 0.1j], [0.9j])
    pinned = {2: 0.08922082408345008 - 0.9449802040408479j,
              4: 0.43589305030805414 - 0.19310397104027788j,
              6: -0.7092992164694012 - 0.11952654035916771j}
    for n, ref in pinned.items():
        assert extensions.lagrange_bracket(f, g, 0.37, n) == pytest.approx(
            ref, rel=1e-14)


def test_bracket_rejects_odd_order():
    f = ([1.0], [0.2])
    with pytest.raises(UnsupportedError):
        extensions.lagrange_bracket(f, f, 0.0, 3)


def test_boundary_matrices_defaults():
    bm = extensions.BoundaryMatrices([[1, 0], [0, 1]], [[1, 0], [0, 1]])
    assert bm.beta_a.dtype == complex and bm.beta_b.dtype == complex
    assert extensions.BoundaryMatrices(2, 3).beta_b.shape == (1, 1)


def test_validate_sa_matrices_known_cases():
    antiperiodic = extensions.BoundaryMatrices(np.eye(2), np.eye(2))
    assert extensions.validate_sa_matrices(antiperiodic)
    dirichlet = extensions.BoundaryMatrices([[1, 0], [0, 0]], [[0, 0], [1, 0]])
    assert extensions.validate_sa_matrices(dirichlet)
    rank_deficient = extensions.BoundaryMatrices([[1, 0], [2, 0]],
                                                 [[1, 0], [2, 0]])
    assert not extensions.validate_sa_matrices(rank_deficient)
    asymmetric = extensions.BoundaryMatrices([[1, 0], [0, 1]],
                                             [[0, 0], [0, 0]])
    assert not extensions.validate_sa_matrices(asymmetric)


def test_validate_sa_matrices_half_line():
    # one n x 2n block at 0 beside an empty one: the identity reads
    # beta_a C beta_a* = 0
    assert extensions.validate_sa_matrices(_halfline([[1, 1]]))
    assert not extensions.validate_sa_matrices(_halfline([[1, 1j]]))
    for rows in K2_CONDITIONS.values():
        assert extensions.validate_sa_matrices(_halfline(rows))
    # f(0) = f'''(0) = 0 pairs f with f''' in the bracket
    assert not extensions.validate_sa_matrices(
        _halfline([[1, 0, 0, 0], [0, 0, 0, 1]]))
    with pytest.raises(DimensionError):
        extensions.validate_sa_matrices(_halfline([[1, 0, 0]]))
    with pytest.raises(DimensionError):
        extensions.validate_sa_matrices(
            extensions.BoundaryMatrices(np.ones((2, 3)), np.ones((2, 1))))


def test_k1_map_anchors_and_involution():
    assert extensions.alpha_from_bc_k1(1.0, 0.0) == pytest.approx(1.0)
    assert extensions.alpha_from_bc_k1(0.0, 2.0) == pytest.approx(-1j)
    # Robin with sigma = 1 (decaying bound state exp(-x))
    a_robin = extensions.alpha_from_bc_k1(1.0, 1.0)
    assert abs(abs(a_robin) - 1.0) < 1e-12
    with pytest.raises(DomainError):
        extensions.alpha_from_bc_k1(0.0, 0.0)
    with pytest.raises(DomainError):
        extensions.alpha_from_bc_k1(1.0, 1j)  # admissibility Im(b conj(c)) = 0
    b, c = extensions.bc_from_alpha_k1(1.0)
    assert (b, c) == (1.0, 0.0)
    with pytest.raises(NonUnitaryError):
        extensions.bc_from_alpha_k1(0.8)


@given(st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_k1_map_round_trip(theta):
    alpha = cmath.exp(1j * theta)
    b, c = extensions.bc_from_alpha_k1(alpha)
    back = extensions.alpha_from_bc_k1(b, c)
    assert abs(back - alpha) < 1e-10


@given(st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False),
       st.floats(min_value=0.2, max_value=2.5, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_l1_map_round_trip_and_unimodularity(theta, a):
    beta = cmath.exp(1j * theta)
    alpha = extensions.alpha_from_bc_l1(beta, a)
    assert abs(abs(alpha) - 1.0) < 1e-12
    # the map is an involution, so it is its own inverse
    assert abs(extensions.alpha_from_bc_l1(alpha, a) - beta) < 1e-10


def test_l1_map_periodic_anchors():
    # periodic boundary condition beta = 1 pins the lattice n pi / a,
    # which is the alpha = -1 lattice
    a = 0.9
    assert extensions.alpha_from_bc_l1(1.0, a) == pytest.approx(-1.0)
    assert extensions.alpha_from_bc_l1(-1.0, a) == pytest.approx(1.0)
    with pytest.raises(NonUnitaryError):
        extensions.alpha_from_bc_l1(0.5, a)


def test_alpha_from_bc_regular_dirichlet_and_periodic():
    m = models.l2(1.0)
    dirichlet = extensions.BoundaryMatrices([[1, 0], [0, 0]], [[0, 0], [1, 0]])
    alpha = extensions.alpha_from_bc_regular(m, dirichlet)
    assert np.max(np.abs(alpha @ alpha.conj().T - np.eye(2))) < 1e-12
    periodic = extensions.BoundaryMatrices(np.eye(2), -np.eye(2))
    alpha_p = extensions.alpha_from_bc_regular(m, periodic)
    assert np.max(np.abs(alpha_p @ alpha_p.conj().T - np.eye(2))) < 1e-12
    # the two extensions differ
    assert np.max(np.abs(alpha - alpha_p)) > 0.1
    # two 2 x 2 blocks do not make the half-line condition of K1
    with pytest.raises(DimensionError):
        extensions.alpha_from_bc_regular(models.k1(), dirichlet)


def test_alpha_from_bc_regular_pinned_values():
    # values from the per-basis-element route that the hat matrices replaced
    m = models.l2(1.0)
    dirichlet = extensions.BoundaryMatrices([[1, 0], [0, 0]], [[0, 0], [1, 0]])
    periodic = extensions.BoundaryMatrices(np.eye(2), -np.eye(2))
    pinned = [
        (dirichlet, [[0.5133895013466331 - 0.3870931989965038j,
                      0.1063781770730755 - 0.7584680340266938j],
                     [0.10637817707307545 - 0.7584680340266937j,
                      0.3870931989965038 + 0.513389501346633j]]),
        (periodic, [[-0.6339049853716097 + 0.4779612906062358j,
                     -0.5467777801943773 - 0.2659916037937087j],
                    [-0.5467777801943777 - 0.26599160379370895j,
                     0.015250825959168724 + 0.7937568507449385j]]),
    ]
    for bm, ref in pinned:
        alpha = extensions.alpha_from_bc_regular(m, bm)
        assert np.max(np.abs(alpha - np.array(ref))) < 1e-14


def test_bc_regular_round_trip_random():
    rng = np.random.default_rng(12)
    m = models.l2(0.7)
    for _ in range(6):
        u = random_unitary(2, rng)
        bm = extensions.bc_from_alpha_regular(m, u)
        assert extensions.validate_sa_matrices(bm)
        back = extensions.alpha_from_bc_regular(m, bm)
        assert np.max(np.abs(back - u)) < 1e-9


def test_bc_regular_rejects_rank_deficient():
    m = models.l2(1.0)
    bad = extensions.BoundaryMatrices([[1, 0], [1, 0]], [[1, 0], [1, 0]])
    with pytest.raises(RankError):
        extensions.alpha_from_bc_regular(m, bad)


def test_bc_regular_l1_matches_closed_map():
    # the order-one interval model goes through the same generic route;
    # f(-a) + e^{0.4 i} f(a) = 0 is the coupling beta = -e^{-0.4 i}
    m = models.l1(1.0)
    bm = extensions.BoundaryMatrices(np.array([[1.0]]), np.array([[np.exp(0.4j)]]))
    alpha = extensions.alpha_from_bc_regular(m, bm)
    assert alpha.shape == (1, 1)
    assert abs(abs(alpha[0, 0]) - 1.0) < 1e-10
    beta = -cmath.exp(-0.4j)
    assert complex(alpha[0, 0]) == pytest.approx(
        extensions.alpha_from_bc_l1(beta, 1.0), rel=1e-9)


def test_generic_pair_matches_closed_k1_and_l1():
    # K1: b f(0) + c f'(0) = 0 is [[b, c]] at the one endpoint; L1:
    # f(a) = beta f(-a) is [[-beta]] | [[1]]
    k1 = models.k1()
    for theta in np.linspace(-math.pi, math.pi, 41):
        alpha = cmath.exp(1j * theta)
        b, c = extensions.bc_from_alpha_k1(alpha)
        bm = extensions.bc_from_alpha_regular(k1, [[alpha]])
        assert bm.beta_b.shape == (1, 0)
        assert np.max(np.abs(bm.beta_a - [[b, c]])) < 1e-14
        back = extensions.alpha_from_bc_regular(k1, _halfline([[b, c]]))
        assert abs(back[0, 0] - alpha) < 1e-14
    for b_, c_ in ((1.0, 1.0), (2.0, -3.0), (0.0, 1.0), (1.0, -0.5)):
        alpha = extensions.alpha_from_bc_regular(k1, _halfline([[b_, c_]]))
        assert abs(alpha[0, 0] - extensions.alpha_from_bc_k1(b_, c_)) < 1e-14
    # the Dirichlet condition maps to alpha = 1 exactly
    dirichlet = extensions.alpha_from_bc_regular(k1, _halfline([[1, 0]]))
    assert dirichlet[0, 0] == 1.0
    rng = np.random.default_rng(7)
    for theta, a in zip(rng.uniform(-math.pi, math.pi, 20),
                        rng.uniform(0.05, 5.0, 20)):
        l1, beta = models.l1(a), cmath.exp(1j * theta)
        alpha = extensions.alpha_from_bc_regular(
            l1, extensions.BoundaryMatrices([[-beta]], [[1.0]]))
        assert abs(alpha[0, 0] - extensions.alpha_from_bc_l1(beta, a)) < 1e-14
        bm = extensions.bc_from_alpha_regular(l1, alpha)
        assert abs(-bm.beta_a[0, 0] / bm.beta_b[0, 0] - beta) < 1e-14


@pytest.mark.parametrize("label", sorted(K2_CONDITIONS))
def test_k2_map_round_trip_without_atoms(label):
    # the clamped, free and hinged beams are nonnegative extensions: a
    # unitary coupling with no point mass below 0
    k2 = models.k2()
    bm = _halfline(K2_CONDITIONS[label])
    assert extensions.validate_sa_matrices(bm)
    alpha = extensions.alpha_from_bc_regular(k2, bm)
    assert np.max(np.abs(alpha @ alpha.conj().T - np.eye(2))) < 1e-14
    again = extensions.bc_from_alpha_regular(k2, alpha)
    assert again.beta_a.shape == (2, 4) and again.beta_b.shape == (2, 0)
    back = extensions.alpha_from_bc_regular(k2, again)
    assert np.max(np.abs(back - alpha)) < 1e-12
    locs, _ = clark.atom_scan(livsic.livsic_function(k2), alpha, (-1e4, 0.0))
    assert locs.size == 0


@given(st.sampled_from(["k1", "k2", "l1", "l2"]),
       st.floats(min_value=0.25, max_value=20.0, allow_nan=False),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_generic_pair_round_trip_on_haar_couplings(name, a, seed):
    model = {"k1": models.k1, "k2": models.k2,
             "l1": lambda: models.l1(a), "l2": lambda: models.l2(a)}[name]()
    alpha = random_unitary(model.rank, np.random.default_rng(seed))
    bm = extensions.bc_from_alpha_regular(model, alpha)
    assert extensions.validate_sa_matrices(bm)
    back = extensions.alpha_from_bc_regular(model, bm)
    assert np.max(np.abs(back - alpha)) < 1e-12


def test_generic_map_rejects_blocks_of_the_wrong_shape():
    with pytest.raises(DimensionError):
        extensions.alpha_from_bc_regular(models.k2(), _halfline(np.eye(4)))
    with pytest.raises(DimensionError):
        extensions.alpha_from_bc_regular(
            models.l2(1.0), _halfline([[1, 0, 0, 0], [0, 0, 1, 0]]))
