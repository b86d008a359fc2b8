import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clarkspectra import cplane
from clarkspectra.errors import DimensionError, DomainError, NonUnitaryError

real_coord = st.floats(min_value=-1e3, max_value=1e3,
                       allow_nan=False, allow_infinity=False)
upper_points = st.builds(complex, real_coord,
                         st.floats(min_value=1e-3, max_value=1e3,
                                   allow_nan=False))


@given(upper_points)
def test_cayley_maps_upper_half_plane_into_disk(w):
    z = cplane.cayley(w)
    assert abs(z) < 1.0


def test_cayley_center_and_poles():
    assert cplane.cayley(1j) == 0
    with pytest.raises(DomainError):
        cplane.cayley(-1j)
    with pytest.raises(DomainError):
        cplane.cayley(complex("inf"))


def test_principal_power_upper_continuation_on_the_cut():
    # complex(-4, -0.0) sits on the lower lip; the guard moves it up
    lower_lip = complex(-4.0, -0.0)
    assert cplane.principal_power(lower_lip, 0.5) == pytest.approx(2j)
    assert cplane.principal_power(4.0, 0.5) == pytest.approx(2.0)
    assert cplane.principal_power(1j, 0.5) == pytest.approx(
        cmath.exp(1j * math.pi / 4))
    with pytest.raises(DomainError):
        cplane.principal_power(0.0, -0.5)


@given(st.floats(min_value=0.05, max_value=20.0, allow_nan=False),
       st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
def test_principal_power_branch_angle(r, half_arg):
    # arguments stay in (-pi, pi] and moduli exponentiate
    w = cmath.rect(r, half_arg)
    out = cplane.principal_power(w, 0.5)
    assert abs(out) == pytest.approx(math.sqrt(r), rel=1e-12)
    assert -math.pi / 2 < cmath.phase(out) <= math.pi / 2 + 1e-15


def test_matrix_predicates():
    # the one check of unitary inputs: the matrix back, of any square size
    # or of the size asked for, a scalar as 1 x 1
    rng = np.random.default_rng(11)
    u = cplane.random_unitary(3, rng)
    assert np.array_equal(cplane.check_unitary(u), u)
    assert np.array_equal(cplane.check_unitary(u, 3), u)
    assert cplane.check_unitary(1j, 1).shape == (1, 1)
    for bad in (0.3 * u, u + 1e-9, np.full((3, 3), np.nan)):
        with pytest.raises(NonUnitaryError):
            cplane.check_unitary(bad)
    # an entry of u* u - I at 1e-11 passes
    cplane.check_unitary(np.diag([1.0, 1.0 + 5e-12]))
    for shape, n in (((2, 3), None), ((3, 3), 2), ((1, 2, 2), None)):
        with pytest.raises(DimensionError):
            cplane.check_unitary(np.ones(shape), n)


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2 ** 31))
@settings(max_examples=25)
def test_random_unitary_is_unitary(n, seed):
    u = cplane.random_unitary(n, np.random.default_rng(seed))
    assert np.max(np.abs(u.conj().T @ u - np.eye(n))) <= 1e-12

