import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clarkspectra import livsic, models
from clarkspectra.cplane import principal_power, random_unitary
from clarkspectra.errors import (DimensionError, DomainError, NonUnitaryError,
                                 SingularError)

ALL_MODELS = [models.k1(), models.k2(), models.l1(1.0), models.l2(1.0)]

upper_w = st.builds(complex,
                    st.floats(min_value=-12.0, max_value=12.0, allow_nan=False),
                    st.floats(min_value=0.02, max_value=6.0, allow_nan=False))


def test_gram_matrix_closed_values_rank_one_halfline():
    m = models.k1()
    pref = 2.0 ** 0.25 * 1j
    for w in (0.5 + 0.3j, 1j, -2.0 + 1.5j, 3.0 + 0.0j):
        sq = principal_power(w, 0.5)
        a_plus = livsic.gram_matrix(m, w, "+")
        a_minus = livsic.gram_matrix(m, w, "-")
        assert a_plus[0, 0] == pytest.approx(pref / (sq - cmath.exp(-1j * math.pi / 4)))
        assert a_minus[0, 0] == pytest.approx(pref / (sq + cmath.exp(1j * math.pi / 4)))


def test_gram_matrix_closed_values_rank_one_interval():
    a = 1.3
    m = models.l1(a)
    for w in (0.5 + 0.3j, 2.0 + 0.0j):
        # pairing of exp(-iwx) against exp(x)/sqrt(sinh 2a) and exp(-x)/sqrt(sinh 2a)
        for sign, rate in (("+", 1.0), ("-", -1.0)):
            got = livsic.gram_matrix(m, w, sign)[0, 0]
            z = -1j * w + rate  # rate of the product before conjugation
            ref = 2.0 * cmath.sinh(z * a) / z / math.sqrt(math.sinh(2 * a))
            assert got == pytest.approx(ref)


def test_gram_matrix_rejects_bad_sign():
    with pytest.raises(DomainError):
        livsic.gram_matrix(models.k1(), 1j, "plus")


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
        (models.k1(), lambda w: models.k1_livsic(w)),
        (models.l1(0.8), lambda w: models.l1_livsic(w, 0.8)),
    ]
    pts = (1j, 0.5 + 0.3j, -2.0 + 1.5j, 3.7 + 0.01j, 1.5 + 0.0j)
    for model, closed in cases:
        gen = livsic.livsic_function(model)
        for w in pts:
            d = np.max(np.abs(np.atleast_2d(gen(w)) - np.atleast_2d(closed(w))))
            assert d < 1e-10, (model.name, w, d)


@given(upper_w)
@settings(max_examples=40, deadline=None)
def test_k1_closed_contraction_property(w):
    assert abs(models.k1_livsic(w)) <= 1.0 + 1e-12


@given(upper_w, st.floats(min_value=0.2, max_value=2.5, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_l1_closed_contraction_property(w, a):
    assert abs(models.l1_livsic(w, a)) <= 1.0 + 1e-12


def test_l1_closed_overflow_safe_far_from_axis():
    # naive sin ratio overflows long before Im w ~ 400
    val = models.l1_livsic(3.0 + 400.0j, 1.0)
    assert np.isfinite(val.real) and np.isfinite(val.imag)
    assert abs(val) <= 1.0


def test_equivalent_under_and_conjugation():
    rng = np.random.default_rng(17)
    m = models.k2()
    b = livsic.livsic_function(m)
    r = random_unitary(2, rng)
    q = random_unitary(2, rng)
    b2 = livsic.conjugated_schur(b, r, q)
    samples = [0.3 + 0.9j, -1.0 + 2.0j, 4.0 + 0.25j]
    assert livsic.equivalent_under(b2, b, r, q, samples)
    assert not livsic.equivalent_under(b, b, r, q, samples)
    with pytest.raises(NonUnitaryError):
        livsic.conjugated_schur(b, 2.0 * r, q)
    with pytest.raises(DimensionError):
        livsic.conjugated_schur(b, np.eye(3), np.eye(3))
    with pytest.raises(DimensionError):
        livsic.equivalent_under(b, livsic.livsic_function(models.k1()),
                                np.eye(2), np.eye(2), samples)


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
