import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from clarkspectra import defect, models
from clarkspectra.errors import DivergenceError, DomainError, RankError

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


@pytest.mark.parametrize("maker,kwargs", [
    (models.k1, {}), (models.k2, {}),
    (models.l1, {"a": 1.0}), (models.l2, {"a": 0.7}),
])
def test_defect_basis_and_orthonormalization(maker, kwargs):
    model = maker(**kwargs)
    for sign, z in (("+", 1j), ("-", -1j)):
        coeffs, rates = defect.defect_onb(model, sign)
        assert coeffs.shape == (model.rank, model.rank)
        assert np.array_equal(rates, model.raw_rates(z))
        # the inverse Cholesky factor: lower triangular, positive diagonal,
        # and C G C* = I for the closed-form Gram matrix G of the rates
        assert np.array_equal(coeffs, np.tril(coeffs))
        diag = np.diag(coeffs)
        assert np.all(diag.imag == 0) and np.all(diag.real > 0)
        gram = model.inner(rates[:, None], rates[None, :])
        assert np.max(np.abs(coeffs @ gram @ coeffs.conj().T
                             - np.eye(model.rank))) < 1e-12
        # built once per model and sign, and read-only since it is shared
        assert defect.defect_onb(model, sign)[0] is coeffs
        assert not coeffs.flags.writeable and not rates.flags.writeable


def test_defect_basis_degenerate_gram_is_rank_error():
    class Twin:
        """Both basis rates equal, so the Gram matrix is singular."""
        halfline = True

        def raw_rates(self, w):
            return np.array([-1.0 + 0j, -1.0 + 0j])

        def inner(self, mu, nu):
            return defect.exp_inner_halfline(mu, nu)

    with pytest.raises(RankError):
        defect.defect_onb(Twin(), "+")


def test_orthonormalize_normalizer_constants():
    # rank-one interval model: the defect element at i solves i f' = i f,
    # so f = exp(x) and the normalizer is 1/sqrt(<e^x, e^x>) = 1/sqrt(sinh 2a)
    a = 1.0
    coeffs, rates = defect.defect_onb(models.l1(a), "+")
    assert rates[0] == pytest.approx(1.0)
    norm = math.sqrt(defect.exp_inner_interval(1.0, 1.0, a).real)
    assert coeffs[0, 0] == pytest.approx(1.0 / norm)
    assert coeffs[0, 0] == pytest.approx(1.0 / math.sqrt(math.sinh(2 * a)))
