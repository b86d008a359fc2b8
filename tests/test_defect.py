import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from clarkspectra import defect, models
from clarkspectra.defect import ExpSum, HalfLine, Interval
from clarkspectra.errors import DivergenceError, DomainError

decaying = st.builds(complex,
                     st.floats(min_value=-5.0, max_value=-0.05, allow_nan=False),
                     st.floats(min_value=-5.0, max_value=5.0, allow_nan=False))
any_rate = st.builds(complex,
                     st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
                     st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))


def test_halfline_inner_spot_values():
    assert defect.exp_inner_halfline(-1.0, -1.0) == pytest.approx(0.5)
    mu = 1j * cmath.exp(1j * math.pi / 4)
    assert defect.exp_inner_halfline(mu, mu) == pytest.approx(1 / math.sqrt(2))
    assert defect.exp_inner_halfline(-1 + 1j, -1.0) == pytest.approx((2 + 1j) / 5)
    with pytest.raises(DivergenceError):
        defect.exp_inner_halfline(0.5, -0.1)


def test_interval_inner_spot_values():
    assert defect.exp_inner_interval(0.0, 0.0, 1.0) == pytest.approx(2.0)
    assert defect.exp_inner_interval(0.0, 1.0, 1.0) == pytest.approx(2 * math.sinh(1.0))
    # Taylor branch continuity across the switch
    near = defect.exp_inner_interval(5e-9, 0.0, 1.0)
    far = defect.exp_inner_interval(2e-8, 0.0, 1.0)
    assert abs(near - 2.0) < 1e-15
    assert abs(far - 2.0) < 1e-7
    with pytest.raises(DomainError):
        defect.exp_inner_interval(0.0, 0.0, -1.0)


@given(decaying, decaying)
def test_halfline_inner_conjugate_symmetry(mu, nu):
    a = defect.exp_inner_halfline(mu, nu)
    b = defect.exp_inner_halfline(nu, mu)
    assert cmath.isclose(a, b.conjugate(), rel_tol=1e-12, abs_tol=1e-12)


@given(any_rate, any_rate, st.floats(min_value=0.1, max_value=3.0, allow_nan=False))
def test_interval_inner_conjugate_symmetry(mu, nu, a):
    x = defect.exp_inner_interval(mu, nu, a)
    y = defect.exp_inner_interval(nu, mu, a)
    assert cmath.isclose(x, y.conjugate(), rel_tol=1e-10, abs_tol=1e-12)


@given(decaying)
def test_halfline_norm_positive(mu):
    assert defect.exp_inner_halfline(mu, mu).real > 0


def test_expsum_merges_and_guards_domain():
    f = ExpSum(((1.0, -1.0), (2.0, -1.0), (0.5, -2.0)), HalfLine())
    assert sorted(f.terms, key=lambda t: t[1].real) == [(0.5, (-2 + 0j)), (3 + 0j, (-1 + 0j))]
    g = ExpSum(((1.0, -1.0), (-1.0, -1.0)), HalfLine())
    assert g.terms == ()
    with pytest.raises(DomainError):
        ExpSum(((1.0, 0.2),), HalfLine())
    # growth is fine on a bounded interval
    ExpSum(((1.0, 0.2),), Interval(1.0))


def test_expsum_algebra_and_calculus():
    f = ExpSum(((2.0, -1.0),), HalfLine())
    g = ExpSum(((1.0, -3.0),), HalfLine())
    h = f + g - f.scale(0.5)
    x = 0.37
    assert h(x) == pytest.approx(1.0 * math.exp(-x) + math.exp(-3 * x))
    d2 = f.derivative(2)
    assert d2(x) == pytest.approx(2.0 * math.exp(-x))
    with pytest.raises(DomainError):
        f + ExpSum(((1.0, -1.0),), Interval(1.0))


def test_expsum_inner_matches_term_sums():
    f = ExpSum(((2.0, -1.0), (1j, -2.0)), HalfLine())
    g = ExpSum(((1.0, -1.5),), HalfLine())
    direct = (2.0 * defect.exp_inner_halfline(-1.0, -1.5)
              + 1j * defect.exp_inner_halfline(-2.0, -1.5))
    assert defect.expsum_inner(f, g) == pytest.approx(direct)
    with pytest.raises(DomainError):
        defect.expsum_inner(f, ExpSum(((1.0, 0.0),), Interval(2.0)))


@pytest.mark.parametrize("maker,kwargs", [
    (models.k1, {}), (models.k2, {}),
    (models.l1, {"a": 1.0}), (models.l2, {"a": 0.7}),
])
def test_defect_basis_and_orthonormalization(maker, kwargs):
    model = maker(**kwargs)
    for w in (1j, -1j, 2.0 + 0.5j):
        basis = defect.defect_basis(model, w)
        assert len(basis) == model.rank
        onb = defect.orthonormalize(basis)
        gram = np.array([[defect.expsum_inner(u, v) for v in onb]
                         for u in onb])
        assert np.max(np.abs(gram - np.eye(model.rank))) < 1e-12
        # leading coefficients positive real by construction
        for fn in onb:
            lead = max(fn.terms, key=lambda t: abs(t[0]))
            assert lead is not None
    with pytest.raises(DomainError):
        defect.defect_basis(model, 3.0)
    # the cached basis at +-i is the one Gram-Schmidt gives, built once
    for sign, z in (("+", 1j), ("-", -1j)):
        onb = defect.defect_onb(model, sign)
        assert onb == defect.orthonormalize(defect.defect_basis(model, z))
        assert defect.defect_onb(model, sign) is onb


def test_orthonormalize_normalizer_constants():
    # rank-one interval model: the defect element at i solves i f' = i f,
    # so f = exp(x) and the normalizer is 1/sqrt(<e^x, e^x>) = 1/sqrt(sinh 2a)
    a = 1.0
    m = models.l1(a)
    onb = defect.orthonormalize(defect.defect_basis(m, 1j))
    (coeff, rate), = onb[0].terms
    assert rate == pytest.approx(1.0)
    norm = math.sqrt(defect.exp_inner_interval(1.0, 1.0, a).real)
    assert coeff == pytest.approx(1.0 / norm)
    assert coeff == pytest.approx(1.0 / math.sqrt(math.sinh(2 * a)))
