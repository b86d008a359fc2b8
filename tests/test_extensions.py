import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clarkspectra import clark, extensions, livsic, models, oracle
from clarkspectra.cplane import random_unitary
from clarkspectra.defect import defect_onb
from clarkspectra.errors import DimensionError, NonUnitaryError, RankError

rates = st.builds(complex,
                  st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
                  st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))


def _halfline(beta_a):
    beta_a = np.atleast_2d(np.asarray(beta_a, dtype=complex))
    return extensions.BoundaryMatrices(beta_a, np.empty((len(beta_a), 0)))


def _k1_alpha(b, c):
    """alpha of the Robin condition b f(0) + c f'(0) = 0, the block
    [[b, c]] beside an empty one."""
    return complex(extensions.alpha_from_bc_regular(
        models.k1(), _halfline([[b, c]]))[0, 0])


def _l1_alpha(beta, a):
    """alpha of the interval condition f(a) = beta f(-a), the blocks
    [[-beta]] | [[1]]."""
    return complex(extensions.alpha_from_bc_regular(
        models.l1(a), extensions.BoundaryMatrices([[-beta]], [[1.0]]))[0, 0])


# alpha of the closed forms alpha = (b + c e^{3 i pi/4}) / (b - c e^{i pi/4})
# on K1 rays (b, c) and alpha = (beta q - 1) / (beta - q), q = e^{-2a}, on L1
# at beta = e^{i theta}, evaluated once and kept as values
K1_CLOSED = {(1.0, 1.0): -0.7071067811865475 + 0.7071067811865477j,
             (2.0, -3.0): 0.5811085811149188 - 0.8138260360510751j,
             (0.0, 1.0): -1j,
             (1.0, -0.5): 0.8722604191027171 - 0.48904167641086826j,
             (3.0, 0.25): 0.9921892962941372 + 0.12474133364424499j}
L1_CLOSED = {(0.4, 1.0): -0.867685613566951 + 0.49711334322158757j,
             (-2.0, 0.3): 0.932390335064342 - 0.3614529887531765j,
             (2.5, 0.05): 0.9994490424450275 + 0.03319053412823412j,
             (1.0, 5.0): -0.5402380097470323 + 0.8415122654035206j}

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


def _bracket_order_two(f, g, x):
    """[f, g](x) = conj(g'(x)) f(x) - conj(g(x)) f'(x), the boundary form of
    -d^2/dx^2, for (coeffs, rates) pairs of one function each."""
    (fc, fr), (gc, gr) = f, g
    fe = np.asarray(fc) * np.exp(np.asarray(fr) * x)
    ge = np.asarray(gc) * np.exp(np.asarray(gr) * x)
    fv, fd = np.sum(fe), np.sum(fe * fr)
    gv, gd = np.sum(ge), np.sum(ge * gr)
    return complex(np.conj(gd) * fv - np.conj(gv) * fd)


@given(rates, rates, st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
@settings(max_examples=30, deadline=None)
def test_bracket_matches_matrix_form_order_two(r1, r2, x):
    f = ([1.0 + 0.5j], [r1])
    g = ([0.7], [r2])
    br = _bracket_order_two(f, g, x)
    fh = extensions.hat_vector(f, 2, x)
    gh = extensions.hat_vector(g, 2, x)
    assert br == pytest.approx(complex(gh.conj() @ extensions.canonical_c(2) @ fh),
                               rel=1e-10, abs=1e-12)


def test_bracket_higher_orders_pinned():
    # g* C f with C = canonical_c(n) and the hat vectors at x = 0.37; the
    # values of the term-by-term loop over derivative functions that the
    # hat-vector form replaced, times (-1)^(n/2 + 1)
    f = ([1 + 0.5j, 0.4], [0.3 - 0.2j, -1.1 + 0.7j])
    g = ([0.7 - 0.1j], [0.9j])
    pinned = {2: 0.08922082408345008 - 0.9449802040408479j,
              4: -0.43589305030805414 + 0.19310397104027788j,
              6: -0.7092992164694012 - 0.11952654035916771j}
    for n, ref in pinned.items():
        fh = extensions.hat_vector(f, n, 0.37)
        gh = extensions.hat_vector(g, n, 0.37)
        assert complex(gh.conj() @ extensions.canonical_c(n) @ fh) == (
            pytest.approx(ref, rel=1e-14))


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
    # Dirichlet maps to 1 and Neumann to -i; the empty ray has no rank, and
    # b conj(c) not real is not a self-adjoint condition
    assert _k1_alpha(1.0, 0.0) == 1.0
    assert abs(_k1_alpha(0.0, 2.0) + 1j) < 1e-15
    with pytest.raises(RankError):
        _k1_alpha(0.0, 0.0)
    with pytest.raises(NonUnitaryError):
        _k1_alpha(1.0, 1j)
    bm = extensions.bc_from_alpha_regular(models.k1(), [[1.0]])
    assert np.array_equal(bm.beta_a, [[1.0, 0.0]])
    with pytest.raises(NonUnitaryError):
        extensions.bc_from_alpha_regular(models.k1(), [[0.8]])
    # Robin sigma f(0) + f'(0) = 0 with sigma > 0 holds exp(-sigma x), the
    # one bound state, at -sigma^2
    b = livsic.livsic_function(models.k1())
    for sigma in (0.3, 1.0, 4.0):
        locs, _ = clark.atom_scan(b, [[_k1_alpha(sigma, 1.0)]],
                                  (-2.0 * sigma ** 2 - 1.0, 0.5))
        assert locs == pytest.approx([-sigma ** 2], rel=1e-12)


@given(st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_k1_map_round_trip(theta):
    alpha = cmath.exp(1j * theta)
    bm = extensions.bc_from_alpha_regular(models.k1(), [[alpha]])
    back = _k1_alpha(*bm.beta_a[0])
    assert abs(back - alpha) < 1e-14


@given(st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False),
       st.floats(min_value=0.2, max_value=2.5, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_l1_map_round_trip_and_unimodularity(theta, a):
    beta = cmath.exp(1j * theta)
    alpha = _l1_alpha(beta, a)
    assert abs(abs(alpha) - 1.0) < 1e-14
    # the map is a Moebius involution, so it is its own inverse
    assert abs(_l1_alpha(alpha, a) - beta) < 1e-14


def test_l1_map_periodic_anchors():
    # periodic boundary condition beta = 1 pins the lattice n pi / a,
    # which is the alpha = -1 lattice
    a = 0.9
    assert abs(_l1_alpha(1.0, a) + 1.0) < 1e-15
    assert abs(_l1_alpha(-1.0, a) - 1.0) < 1e-15
    with pytest.raises(NonUnitaryError):
        _l1_alpha(0.5, a)


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


def test_defect_rows_are_cached_and_read_only(monkeypatch):
    # a model no other test builds, so that the first call misses the cache
    m = models.l2(0.8125)
    alpha = random_unitary(2, np.random.default_rng(31))
    bm = extensions.bc_from_alpha_regular(m, alpha)
    rows = extensions._defect_rows(m)
    assert extensions._defect_rows(m) is rows
    for r in rows:
        assert not r.flags.writeable
        with pytest.raises(ValueError):
            r[0, 0] = 0.0
    cached = extensions.alpha_from_bc_regular(m, bm)
    # the same rows rebuilt on every call, as before the cache
    monkeypatch.setattr(extensions, "_defect_rows",
                        extensions._defect_rows.__wrapped__)
    fresh = extensions.alpha_from_bc_regular(m, bm)
    assert np.array_equal(cached, fresh)


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
    # f(-a) + e^{0.4 i} f(a) = 0 is the coupling beta = -e^{-0.4 i}, whose
    # closed-form alpha at a = 1 is kept as a value
    m = models.l1(1.0)
    bm = extensions.BoundaryMatrices(np.array([[1.0]]), np.array([[np.exp(0.4j)]]))
    alpha = extensions.alpha_from_bc_regular(m, bm)
    assert alpha.shape == (1, 1)
    assert abs(alpha[0, 0] - (0.9534415905670931 + 0.3015777401879842j)) < 1e-14


def test_generic_pair_matches_closed_k1_and_l1():
    # K1: b f(0) + c f'(0) = 0 is [[b, c]] at the one endpoint, and the
    # closed inverse (b : c) = (e^{3 i pi/4} + alpha e^{i pi/4} : alpha - 1)
    # is the unit ray the generic pair returns, largest entry positive;
    # L1: f(a) = beta f(-a) is [[-beta]] | [[1]]
    k1 = models.k1()
    e14, e34 = cmath.exp(0.25j * math.pi), cmath.exp(0.75j * math.pi)
    for theta in np.linspace(-math.pi, math.pi, 41):
        alpha = cmath.exp(1j * theta)
        ray = np.array([e34 + alpha * e14, alpha - 1.0])
        lead = ray[np.argmax(np.abs(ray))]
        ray *= lead.conjugate() / abs(lead) / np.linalg.norm(ray)
        bm = extensions.bc_from_alpha_regular(k1, [[alpha]])
        assert bm.beta_b.shape == (1, 0)
        assert np.max(np.abs(bm.beta_a - [ray])) < 1e-14
        assert abs(_k1_alpha(*ray) - alpha) < 1e-14
    for (b, c), ref in K1_CLOSED.items():
        assert abs(_k1_alpha(b, c) - ref) < 1e-14
    for (theta, a), ref in L1_CLOSED.items():
        beta = cmath.exp(1j * theta)
        assert abs(_l1_alpha(beta, a) - ref) < 1e-14
        bm = extensions.bc_from_alpha_regular(models.l1(a), [[ref]])
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


def test_validate_sa_matrices_is_scale_free():
    # a projective condition keeps its verdict at every scale: a Haar L2
    # condition and a perturbation of one built as criterion 12 builds its
    # violations, scaled from 1e-8 to 1e8; the scaled self-adjoint
    # condition also gives the oracle its eigenvalues
    rng = np.random.default_rng(1)
    base = extensions.bc_from_alpha_regular(models.l2(1.0),
                                            random_unitary(2, rng))
    c = extensions.canonical_c(2)
    while True:
        pert = 0.3 * (rng.standard_normal((2, 2))
                      + 1j * rng.standard_normal((2, 2)))
        bad = extensions.BoundaryMatrices(base.beta_a + pert, base.beta_b)
        defect = np.max(np.abs(bad.beta_a @ c @ bad.beta_a.conj().T
                               - bad.beta_b @ c @ bad.beta_b.conj().T))
        sv = np.linalg.svd(np.hstack([bad.beta_a, bad.beta_b]),
                           compute_uv=False)
        if defect > 1e-6 and sv[-1] > 1e-6 * sv[0]:
            break
    window = (-1.0, 30.0)
    ref = oracle.l2_eigenvalues(base, 1.0, window)
    for k in range(-8, 9):
        scaled = [extensions.BoundaryMatrices(10.0 ** k * bm.beta_a,
                                              10.0 ** k * bm.beta_b)
                  for bm in (base, bad)]
        assert extensions.validate_sa_matrices(scaled[0]), k
        assert not extensions.validate_sa_matrices(scaled[1]), k
        if k in (-3, 3):
            assert oracle.l2_eigenvalues(scaled[0], 1.0, window) == \
                pytest.approx(ref, rel=1e-13)
