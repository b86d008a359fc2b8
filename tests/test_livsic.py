import cmath
import math
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clarkspectra import checks, clark, extensions, livsic, models, oracle
from clarkspectra.cplane import cayley, random_unitary
from clarkspectra.errors import DimensionError, DomainError, NonUnitaryError

ALL_MODELS = [models.k1(), models.k2(), models.l1(1.0), models.l2(1.0)]

upper_w = st.builds(complex,
                    st.floats(min_value=-12.0, max_value=12.0, allow_nan=False),
                    st.floats(min_value=0.02, max_value=6.0, allow_nan=False))


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
def test_b_is_the_pairing_solve(model):
    # B = sum_k f_k O_k is gamma A(w, +)^{-1} A(w, -), A(w, +-) the closed
    # pairings of the raw exponentials at w (Model.inner) times the
    # coefficients of both defect bases, on and off the axis
    n = model.rank
    coeffs, rates = checks._defect_bases(model)
    for w in (0.7 + 0.4j, 1j, 1e-3 + 2j, -4.0 + 0.2j, -2.5, -0.3, 1.5, 6.0):
        pairs = model.inner(model.raw_rates(w)[:, None], rates) @ coeffs.conj().T
        want = cayley(w) * np.linalg.solve(pairs[:, :n], pairs[:, n:])
        assert np.max(np.abs(livsic.livsic_eval(model, w) - want)) <= 1e-13, w


def test_l2_unitary_far_down_the_negative_axis():
    # the even and odd rows grow like exp(sqrt(-s) a) there; livsic takes
    # them times exp(-sqrt(-s) a), which cancels from their ratios
    m = models.l2(1.0)
    for s in (-1.3e5, -1e7):
        b = livsic.livsic_eval(m, s)
        assert np.max(np.abs(b.conj().T @ b - np.eye(2))) < 1e-12


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
def test_livsic_normalization_and_schur_bound(model):
    b = livsic.livsic_function(model)
    assert b.n == model.rank
    assert np.max(np.abs(np.atleast_2d(b(1j)))) < 1e-13
    rng = np.random.default_rng(5)
    for _ in range(25):
        w = complex(rng.uniform(-10, 10), rng.uniform(0.05, 5.0))
        assert np.linalg.norm(np.atleast_2d(b(w)), 2) <= 1.0 + 1e-10


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
def test_livsic_rejects_lower_half_plane(model):
    b = livsic.livsic_function(model)
    with pytest.raises(DomainError):
        b(1.0 - 0.5j)
    with pytest.raises(DomainError):
        livsic.livsic_eval(model, -1j)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
def test_points_b_cannot_take_are_refused(model):
    # a point below the axis, a point that is not finite, or the pole -i of
    # gamma raises where it enters, before any pairing arithmetic can warn,
    # on every path to B; NaN is left to mean a singular pairing matrix only
    b = livsic.livsic_function(model)
    eye = np.eye(model.rank)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for w in (math.inf, math.nan, complex(0.0, math.inf), [1.0, math.inf],
                  0.5 - 1e-9j):
            for evaluate in (b.fn, b, partial(livsic.livsic_eval, model),
                             livsic.conjugated_schur(b, eye, eye)):
                with pytest.raises(DomainError):
                    evaluate(w)
        with pytest.raises(DomainError):
            b.fn(-1j)
        pts = np.linspace(-1.0, 1.0, 600).astype(complex)
        pts[555] = -1j  # in the second block of an array evaluation
        with pytest.raises(DomainError):
            b.fn(pts)


def test_livsic_real_axis_is_upper_continuation():
    # approaching the axis from above converges to the boundary evaluation
    for model in ALL_MODELS:
        b = livsic.livsic_function(model)
        s = 2.0
        bdry = np.atleast_2d(b(s))
        seq = np.atleast_2d(b(s + 1e-9j))
        assert np.max(np.abs(bdry - seq)) < 1e-6


def test_closed_forms_match_generic():
    cases = [
        (models.k1(), lambda w: oracle.k1_livsic(w)),
        (models.l1(0.8), lambda w: oracle.l1_livsic(w, 0.8)),
    ]
    pts = (1j, 0.5 + 0.3j, -2.0 + 1.5j, 3.7 + 0.01j, 1.5 + 0.0j)
    for model, closed in cases:
        gen = livsic.livsic_function(model)
        for w in pts:
            d = np.max(np.abs(np.atleast_2d(gen(w)) - np.atleast_2d(closed(w))))
            assert d < 1e-10, (model.name, w, d)


# The closed upper half-plane, the branch point 0 included: the mixed raw
# functions of K2 and L2 keep B's digits where their two rates meet.
closed_upper_w = st.builds(
    complex,
    st.floats(min_value=-40.0, max_value=40.0, allow_nan=False),
    st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=8.0)),
)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
@given(points=st.lists(closed_upper_w, min_size=1, max_size=12))
@settings(max_examples=40, deadline=None)
def test_array_b_matches_pointwise_and_schur_bound(model, points):
    # one evaluation of B: an array call gives what each point gives
    # alone, and ||B(w)|| <= 1 on the closed upper half-plane
    w = np.array(points)
    stack = livsic.livsic_eval(model, w)
    assert stack.shape == (len(points), model.rank, model.rank)
    for wk, bk in zip(points, stack):
        np.testing.assert_array_equal(bk, livsic.livsic_eval(model, wk))
        assert np.linalg.norm(bk, 2) <= 1.0 + 1e-12


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
def test_two_block_array_matches_pointwise_bitwise(model):
    # 600 points span two blocks of the assembly; each block's B and B' is
    # one matrix product, and every point gets the bits it gets alone, on
    # the axis (with B') and off it
    rng = np.random.default_rng(5)
    s = np.concatenate([-(10.0 ** rng.uniform(-12.0, 15.0, 200)),
                        10.0 ** rng.uniform(-12.0, 15.0, 200),
                        rng.uniform(-50.0, 50.0, 200)])
    off = s + 1j * 10.0 ** rng.uniform(-3.0, 3.0, s.size)
    np.testing.assert_array_equal(livsic.livsic_eval(model, off),
                                  [livsic.livsic_eval(model, w) for w in off])
    b, db = livsic.livsic_eval(model, s, derivative=True)
    alone = [livsic.livsic_eval(model, x, derivative=True) for x in s]
    np.testing.assert_array_equal(b, [v for v, _ in alone])
    np.testing.assert_array_equal(db, [d for _, d in alone])


@pytest.mark.parametrize("a", [0.05, 1.0, 5.0])
def test_l2_unitary_at_and_next_to_zero(a):
    # cosh(rho x) and sinh(rho x)/rho stay a basis where the two L2 rates
    # meet: B is unitary at s = 0, where the exponentials made it NaN, and
    # from |s| = 1e-40 on to 1e20 on both sides, a short interval included
    mag = np.logspace(-40.0, 20.0, 61)
    b = livsic.livsic_eval(models.l2(a), np.concatenate([[0.0], mag, -mag]))
    defect = np.swapaxes(b, -1, -2).conj() @ b - np.eye(2)
    assert np.max(np.abs(defect)) <= 1e-14


def test_l2_vanishing_pairing_is_nan(monkeypatch):
    # where the even pairing with the basis at +i vanishes, A(w, +) is
    # singular: B and B' are NaN there, never inf, and nothing warns
    model = models.l2(1.0)
    (p, q, *rest), frame = livsic._frame(model)
    monkeypatch.setattr(livsic, "_frame",
                        lambda m: ((p * [0, 1], q * [0, 1], *rest), frame))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for out in (livsic.livsic_eval(model, [2.0, 0.5j]),
                    *livsic.livsic_function(model)(-3.0, derivative=True)):
            assert np.all(np.isnan(out))


def test_k2_unitary_on_the_whole_negative_axis():
    # K2's factors are products of ratios (rho_j + c(+)_m)/(rho_j + c(-)_l),
    # of size 1 where the two rates meet (s -> 0) and where they grow: B is
    # unitary from -1e-300 to -1e300
    s = -np.logspace(-300.0, 300.0, 121)
    b = livsic.livsic_eval(models.k2(), s)
    defect = np.swapaxes(b, -1, -2).conj() @ b - np.eye(2)
    assert np.max(np.abs(defect)) <= 1e-14


def _quadrature_b(model, w):
    """gamma(w) A(w, +)^{-1} A(w, -), A the pairings of the plain
    exponentials of the rates at w with both defect bases by Gauss-Legendre
    quadrature, as criterion 10 makes them."""
    n = model.rank
    ref = oracle.quad_inner(model, (np.eye(n), model.raw_rates(w)),
                            checks._defect_bases(model))
    return cayley(w) * np.linalg.solve(ref[:, :n], ref[:, n:])


@pytest.mark.parametrize("a", [0.05, 0.2, 1.0, 5.0])
def test_l2_reflected_b_matches_quadrature(a):
    # L2's B from the even and odd ratios and the folded constants of its
    # defect bases is the pairing ratio of the plain exponentials, off the
    # axis, on both sides of 0 and far out on it. At w = i the even and odd
    # pairings with the basis at -i cancel to rounding, B(i) = 0 (B's own
    # short-interval loss grows to 3e-13 at a = 0.02)
    model = models.l2(a)
    assert np.max(np.abs(livsic.livsic_eval(model, 1j))) < 1e-13
    for w in (1j, 2 + 0.5j, 1e-3 + 2j, 2.0, -2.0, 37.5, -50.0, 4000.0):
        got = livsic.livsic_eval(model, w)
        assert np.max(np.abs(got - _quadrature_b(model, w))) <= 1e-12, w


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
def test_b_derivative_is_refused_off_the_axis(model):
    # B' is for the boundary: the masses and the atom scan take it on the
    # real axis only
    b = livsic.livsic_function(model)
    for w in (1j, [-1.0, 0.5 + 1e-300j]):
        with pytest.raises(DomainError, match="real axis"):
            b(w, derivative=True)


def _central_difference(model, s, h):
    """(B(s + h) - B(s - h)) / 2h, fourth order: the five-point stencil."""
    b = livsic.livsic_function(model)
    at = lambda k: b(s + k * h)
    return (8.0 * (at(1) - at(-1)) - (at(2) - at(-2))) / (12.0 * h)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
@given(st.one_of(st.floats(min_value=-20.0, max_value=20.0),
                 st.floats(min_value=-1e-6, max_value=1e-6)))
@settings(max_examples=40, deadline=None)
def test_b_derivative_matches_a_central_difference(model, s):
    # B' on the real axis, off the half-line models' branch point: L1 at
    # s = 0 and L2 at |s| < 1e-6 included. The five-point stencil with a
    # step of 1e-3 of the local scale reads B' to about 1e-9 of its size
    if model.halfline:
        s = -abs(s) - 1e-3
        h = 1e-3 * abs(s)
    else:  # a fraction of L2's local period 2 pi / sqrt(|s|)
        h = 1e-3 / (1.0 + math.sqrt(abs(s)))
    _, slope = livsic.livsic_function(model)(s, derivative=True)
    ref = _central_difference(model, s, h)
    assert np.max(np.abs(slope - ref)) <= 1e-8 * np.max(np.abs(ref))


@pytest.mark.parametrize("s", [-1e8, -1e12, -1e16])
def test_k2_derivative_far_down_the_axis(s):
    # K2's B' far out, one fraction per rate: the five-point stencil with a
    # step of 1e-3 |s| reads it to about 1e-9 of its size
    _, slope = livsic.livsic_function(models.k2())(s, derivative=True)
    ref = _central_difference(models.k2(), s, 1e-3 * abs(s))
    assert np.max(np.abs(slope - ref)) <= 1e-8 * np.max(np.abs(ref))


_angle = st.floats(min_value=-math.pi, max_value=math.pi)
_gap = st.floats(min_value=1e-12, max_value=math.pi)


def _unitary_with_phases(theta, psi, chi, phi, gap):
    """V diag(e^{i phi}, e^{i (phi + gap)}) V* for the SU(2) matrix V of
    the angles theta, psi, chi, and its two eigenvalues."""
    v = np.array(
        [[math.cos(theta) * cmath.exp(1j * psi), math.sin(theta) * cmath.exp(1j * chi)],
         [-math.sin(theta) * cmath.exp(-1j * chi), math.cos(theta) * cmath.exp(-1j * psi)]])
    lam = np.exp(1j * np.array([phi, phi + gap]))
    return (v * lam) @ v.conj().T, lam


def _assert_eigenvalues_match(got, ref, tol):
    # the two eigenvalues of each matrix, in either order
    same = np.max(np.abs(got - ref), axis=-1)
    swapped = np.max(np.abs(got - ref[..., ::-1]), axis=-1)
    assert np.all(np.minimum(same, swapped) <= tol)


@given(st.lists(st.tuples(_angle, _angle, _angle, _angle, _gap),
                min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_small_eigenvalues_of_unitaries(params):
    # eigenphases anywhere from 1e-12 to pi apart: the discriminant
    # ((p - t)/2)^2 + q r of a normal matrix does not cancel, so both
    # eigenvalues stay within a few rounding units of the exact ones
    built = [_unitary_with_phases(*p) for p in params]
    m = np.array([u for u, _ in built])
    got = clark._eigenvalues_small(m)
    assert got.shape == (len(params), 2)
    _assert_eigenvalues_match(got, np.array([lam for _, lam in built]), 2e-15)


@pytest.mark.parametrize("a", [0.3, 1.0, 2.0])
def test_small_eigenvalues_on_l2_scan_grids(a):
    # B(s) alpha* on a scan grid: unit-modulus eigenvalues that match
    # LAPACK's, with the product det(B alpha*)
    model = models.l2(a)
    alpha = random_unitary(2, np.random.default_rng([3, 4]))
    grid = np.linspace(-30.0, 200.0, 4001)
    m = livsic.livsic_function(model).fn(grid) @ alpha.conj().T
    got = clark._eigenvalues_small(m)
    assert np.max(np.abs(np.abs(got) - 1.0)) <= 1e-13
    _assert_eigenvalues_match(got, np.linalg.eigvals(m), 1e-13)
    assert np.max(np.abs(np.prod(got, axis=-1) - np.linalg.det(m))) <= 1e-14


def test_small_eigenvalues_nan_and_guard():
    # a NaN matrix gives NaN eigenvalues and leaves the others alone; a
    # 1 x 1 matrix is its own eigenvalue
    m = np.array([[[np.nan, 0.0], [0.0, 1.0]], [[3.0, 0.0], [0.0, -4.0]],
                  [[0.0, 1.0], [-1.0, 0.0]]], dtype=complex)
    got = clark._eigenvalues_small(m)
    assert np.all(np.isnan(got[0]))
    _assert_eigenvalues_match(got[1:], np.array([[3.0, -4.0], [1j, -1j]]), 0.0)
    one = np.array([[[2.0 - 1.0j]], [[np.nan]]])
    got = clark._eigenvalues_small(one)
    assert got[0, 0] == 2.0 - 1.0j and np.isnan(got[1, 0])
    with pytest.raises(DimensionError):
        clark._eigenvalues_small(np.eye(3))


def test_small_solve_singularity_is_relative():
    # a matrix is singular relative to its own scale: 1e-8 I and 1e8 I
    # solve, rank-1 matrices of any scale, the zero matrix and NaN give NaN
    rhs = np.array([[1.0, 2.0j], [3.0, -1.0]])
    for size in (1e-8, 1e8):
        got = clark._solve_small(size * np.stack([np.eye(2)] * 3), rhs)
        assert np.max(np.abs(got * size - rhs)) <= 1e-15 * np.max(np.abs(rhs))
    rank_one = np.outer([1.0, 2.0j], [3.0, -1.0 + 1.0j])
    for size in (1e-100, 1e-8, 1.0, 1e8, 1e100):
        assert np.all(np.isnan(clark._solve_small(size * rank_one, rhs)))
    bad = np.array([np.zeros((2, 2)), [[np.nan, 0.0], [0.0, 1.0]]])
    assert np.all(np.isnan(clark._solve_small(bad, rhs)))
    got = clark._solve_small(np.array([[[0.5 ** 900]], [[0.0]]]), np.ones((1, 1)))
    assert got[0, 0, 0] == 2.0 ** 900 and np.isnan(got[1, 0, 0])


_entry = st.builds(complex,
                   st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
                   st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))


def _stack(draw, shape):
    return np.array(draw(st.lists(_entry, min_size=math.prod(shape),
                                  max_size=math.prod(shape)))).reshape(shape)


@st.composite
def _product_pairs(draw):
    """(a, b) for a @ b: n in {1, 2} and the shapes (m,n,n)@(n,n),
    (m,n,n)@(m,n,n) and (c,64,n,n)@(n,n), with NaN in some entries."""
    n = draw(st.sampled_from([1, 2]))
    m = draw(st.integers(min_value=1, max_value=5))
    left, right = draw(st.sampled_from([((m, n, n), (n, n)),
                                        ((m, n, n), (m, n, n)),
                                        ((2, 64, n, n), (n, n))]))
    a, b = _stack(draw, left), _stack(draw, right)
    for x in (a, b):
        if draw(st.booleans()):
            x.reshape(-1)[draw(st.integers(0, x.size - 1))] = np.nan
    return a, b


@given(_product_pairs())
@settings(max_examples=200, deadline=None)
def test_small_product_matches_matmul(pair):
    # the broadcast product agrees with np.matmul to a few rounding units
    # of |a| |b|, and has NaN in the same places
    a, b = pair
    got, want = clark._mul_small(a, b), a @ b
    assert got.shape == want.shape
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    scale = np.abs(a) @ np.abs(b)
    assert np.all(np.abs(got - want)[~nan] <= 4 * np.finfo(float).eps
                  * scale[~nan])


def test_unitary_on_the_axis_off_the_cut():
    # B is unitary on the real axis away from the essential spectrum; below
    # the axis it is not evaluated (test_points_b_cannot_take_are_refused)
    for model in ALL_MODELS:
        b = livsic.livsic_function(model)
        for s in (-0.3, -1.7, -12.0):
            on = b(s)
            assert np.max(np.abs(on.conj().T @ on - np.eye(model.rank))) < 1e-12


@given(upper_w)
@settings(max_examples=40, deadline=None)
def test_k1_closed_contraction_property(w):
    assert abs(oracle.k1_livsic(w)) <= 1.0 + 1e-12


@given(upper_w, st.floats(min_value=0.2, max_value=2.5, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_l1_closed_contraction_property(w, a):
    assert abs(oracle.l1_livsic(w, a)) <= 1.0 + 1e-12


def test_l1_closed_overflow_safe_far_from_axis():
    # naive sin ratio overflows long before Im w ~ 400
    val = oracle.l1_livsic(3.0 + 400.0j, 1.0)
    assert np.isfinite(val.real) and np.isfinite(val.imag)
    assert abs(val) <= 1.0


def test_conjugated_schur_values_and_guards():
    rng = np.random.default_rng(17)
    m = models.k2()
    b = livsic.livsic_function(m)
    r = random_unitary(2, rng)
    q = random_unitary(2, rng)
    b2 = livsic.conjugated_schur(b, r, q)
    for w in (0.3 + 0.9j, -1.0 + 2.0j, 4.0 + 0.25j):
        assert np.max(np.abs(b2(w) - r @ b(w) @ q)) < 1e-14
    with pytest.raises(NonUnitaryError):
        livsic.conjugated_schur(b, 2.0 * r, q)
    with pytest.raises(DimensionError):
        livsic.conjugated_schur(b, np.eye(3), np.eye(3))


def test_transform_alpha_consistency():
    # measure parameter transport: alpha for B1 = R B2 Q maps to R* alpha Q*
    rng = np.random.default_rng(23)
    alpha = random_unitary(2, rng)
    r = random_unitary(2, rng)
    q = random_unitary(2, rng)
    moved = livsic.transform_alpha(alpha, r, q)
    assert np.max(np.abs(moved - r.conj().T @ alpha @ q.conj().T)) == 0
    # unitarity is preserved
    assert np.max(np.abs(moved @ moved.conj().T - np.eye(2))) < 1e-12
    # undo with the inverse pair
    back = livsic.transform_alpha(moved, r.conj().T, q.conj().T)
    assert np.max(np.abs(back - alpha)) < 1e-14


# B at three points per model, recorded from the Gram-Schmidt construction
# of the defect bases that the inverse Cholesky factor replaced
PINNED_B = {
    "K1": [[[0.17739148047620507 - 0.24895861584822734j]],
           [[0.208818210000029 + 0.9779544749999274j]],
           [[0.4531660928512715 - 0.08760942601115383j]]],
    "K2": [[[0.0744683107659537 - 0.46226860291314026j,
             -0.060990018835372015 + 0.03369266279453117j],
            [-0.20948196783600026 - 0.2655132327534382j,
             0.057383026327009215 - 0.2361334261774969j]],
           [[0.4060645166841177 + 0.8145788685181344j,
             -0.006266159169231077 - 0.4141661629142051j],
            [0.3683464963346017 + 0.1894564168663417j,
             0.5496863934299582 + 0.7254460652758099j]],
           [[0.6437960774630986 - 0.14745778401425294j,
             -0.1020756869915922 + 0.011019893868242358j],
            [0.34871127329567236 - 0.3378856865761825j,
             0.2896851810759265 - 0.22114175110664133j]]],
    "L1": [[[0.08635480747258546 - 0.4421865855586785j]],
           [[-0.019316373340820033 - 0.9998134214547022j]],
           [[0.025692740858042018 - 0.013063678558074736j]]],
    "L2": [[[-0.09603733241519939 - 0.4342757992036396j,
             -0.3572595191312608 - 0.1039766991597333j],
            [-0.3572595191312608 - 0.1039766991597333j,
             0.328115040629023 - 0.31083062467855554j]],
           [[0.5835990473815144 + 0.46000122571333674j,
             0.6310408691096291 - 0.22270708509380974j],
            [0.6310408691096291 - 0.22270708509380974j,
             -0.16559717493775086 + 0.7244077245688502j]],
           [[0.5761664819149518 - 0.2138827994535958j,
             0.010301015144433092 - 0.4728362324686356j],
            [0.010301015144433052 - 0.4728362324686356j,
             0.5639367167601976 + 0.3474867353611661j]]],
}


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
def test_b_pinned_values(model):
    ref = np.array(PINNED_B[model.name])
    got = livsic.livsic_eval(model, np.array([0.7 + 0.4j, -2.5, 3.2 + 1.1j]))
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
