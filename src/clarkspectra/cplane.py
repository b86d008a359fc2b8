"""Cayley transform, principal branches, unitary matrices.

The conformal map used throughout is gamma(w) = (w - i)/(w + i), which sends
the open upper half-plane onto the open unit disk with gamma(i) = 0; it is
the prefactor of every characteristic function. cayley and principal_power
take a scalar or an array of points and return the same shape.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, DomainError, NonUnitaryError

__all__ = [
    "cayley",
    "principal_power",
    "check_unitary",
    "random_unitary",
]


def _finite(w):
    w = np.asarray(w, dtype=complex)
    if not np.isfinite(w).all():
        raise DomainError(f"non-finite complex arguments {w[~np.isfinite(w)]}")
    return w


def cayley(w):
    """Map the upper half-plane to the unit disk, gamma(w) = (w-i)/(w+i)."""
    w = _finite(w)
    if (w == -1j).any():
        raise DomainError("cayley transform has a pole at w = -i")
    return ((w - 1j) / (w + 1j))[()]


def principal_power(w, p):
    """Principal branch of w**p, with a signed-zero guard on the cut.

    The C library puts complex(x, -0.0) on the lower side of the branch cut
    for negative real x. Boundary evaluation wants the upper continuation
    (argument in (-pi, pi]), so a zero imaginary part is normalized to +0.0
    before exponentiation. For real s > 0, principal_power(s, 1/2) is the
    positive root.
    """
    w = _finite(w)
    if p < 0 and (w == 0).any():
        raise DomainError("negative power of zero")
    # adding +0 turns a -0.0 imaginary part into +0.0 and changes nothing else
    return ((w + 0j) ** p)[()]


def check_unitary(m, n=None, what="matrix"):
    """m as an n x n complex unitary matrix (any square size for n None);
    a scalar is 1 x 1. The one check of every unitary input (couplings,
    boundary phases, conjugating matrices): DimensionError for another
    shape, NonUnitaryError when an entry of m* m - I exceeds 1e-10 or is
    not finite. what names m in the messages."""
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    if m.ndim != 2 or m.shape[0] != m.shape[1] or n not in (None, len(m)):
        want = "square" if n is None else f"{n} x {n}"
        raise DimensionError(f"{what} must be {want}, got shape {m.shape}")
    # "not <=" so that a NaN entry fails the test too
    if not np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))) <= 1e-10:
        raise NonUnitaryError(f"{what} is not unitary")
    return m


def random_unitary(n, rng):
    """Haar-distributed n x n unitary from a Ginibre sample and QR."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))
