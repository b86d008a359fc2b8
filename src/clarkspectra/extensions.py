"""Boundary vectors, the Lagrange bracket, and the boundary-condition maps.

Self-adjoint extensions of the symmetric models are parameterized two ways:
by boundary matrices (beta_a | beta_b) acting on the derivative vectors
(f, f', ..., f^(n-1)) at the endpoints, and by a unitary n x n matrix alpha
pairing the defect bases at -i and +i. The maps between the two run through
the extension generators

    g_i = -phi_i(+i) + sum_j alpha_ij phi_j(-i),

which must satisfy the boundary conditions; that is a linear system in
alpha (one direction) or an annihilator computation (the other). Functions
are (coeffs, rates) pairs as in defect, so the derivative vectors of a
whole basis at a point are one matrix H (one row per basis element), and
the systems are products of the boundary matrices with H.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .defect import defect_onb
from .errors import (DimensionError, DomainError, NonUnitaryError, RankError,
                     UnsupportedError)

__all__ = [
    "canonical_c",
    "hat_vector",
    "lagrange_bracket",
    "BoundaryMatrices",
    "validate_sa_matrices",
    "alpha_from_bc_k1",
    "bc_from_alpha_k1",
    "alpha_from_bc_l1",
    "bc_from_alpha_l1",
    "alpha_from_bc_regular",
    "bc_from_alpha_regular",
    "alpha_from_bc_singular_template",
]

_E14 = np.exp(1j * math.pi / 4)
_E34 = np.exp(3j * math.pi / 4)


def canonical_c(n):
    """Antidiagonal bracket matrix C_{k,l} = (-1)^{l+1} delta_{k, n+1-l}."""
    c = np.zeros((n, n), dtype=complex)
    for ell in range(1, n + 1):
        c[n - ell, ell - 1] = (-1.0) ** (ell + 1)
    return c


def hat_vector(f, n, x):
    """(f(x), f'(x), ..., f^(n-1)(x)) for f = (coeffs, rates). With coeffs
    of shape (m,) this is an n-vector; with shape (k, m), a k x n matrix
    whose row i belongs to function i."""
    coeffs, rates = f
    rates = np.asarray(rates, dtype=complex)
    powers = rates ** np.arange(n)[:, None]
    return (np.asarray(coeffs, dtype=complex) * np.exp(rates * x)) @ powers.T


def lagrange_bracket(f, g, x, n):
    """Sesquilinear boundary form [f, g](x) of the order-n expression
    (i d/dx)^n, for (coeffs, rates) pairs f and g of one function each:

        (-1)^{n/2} sum_{r=0}^{n-1} (-1)^{n+1-r}
            conj(g^(n-r-1)(x)) f^(r)(x).

    UnsupportedError for odd n (the alternating form above pairs the
    derivatives only when n is even).
    """
    if n % 2:
        raise UnsupportedError("boundary form implemented for even order only")
    fd, gd = hat_vector(f, n, x), hat_vector(g, n, x)
    signs = (-1.0) ** (n + 1 - np.arange(n))
    return (-1.0) ** (n // 2) * complex(np.sum(signs * np.conj(gd[::-1]) * fd))


@dataclass
class BoundaryMatrices:
    """Boundary-condition data (beta_a | beta_b).

    For regular problems both blocks are n x n, acting on hat vectors at the
    left resp. right endpoint; their bracket matrix is canonical_c(n).
    """

    beta_a: np.ndarray
    beta_b: np.ndarray

    def __post_init__(self):
        self.beta_a = np.atleast_2d(np.asarray(self.beta_a, dtype=complex))
        self.beta_b = np.atleast_2d(np.asarray(self.beta_b, dtype=complex))


# Relative singular-value floor of the rank test and absolute tolerance of
# the bracket identity in validate_sa_matrices
_SA_TOL = 1e-10


def validate_sa_matrices(bm):
    """True when (beta_a | beta_b) defines a self-adjoint restriction:

    rank (beta_a | beta_b) = n  and  beta_a C beta_a* = beta_b C beta_b*

    with C = canonical_c(n). Returns a bool; only genuinely malformed
    shapes raise DimensionError.
    """
    ba, bb = bm.beta_a, bm.beta_b
    n = ba.shape[0]
    if ba.shape != (n, n) or bb.shape != (n, n):
        raise DimensionError(
            f"expected two n x n blocks, got {ba.shape} and {bb.shape}"
        )
    c = canonical_c(n)
    sv = np.linalg.svd(np.hstack([ba, bb]), compute_uv=False)
    if np.sum(sv > _SA_TOL * sv[0]) < n:
        return False
    lhs = ba @ c @ ba.conj().T
    rhs = bb @ c @ bb.conj().T
    return bool(np.max(np.abs(lhs - rhs)) <= _SA_TOL)


# ---------------------------------------------------------------------------
# closed-form maps for the rank-one models
# ---------------------------------------------------------------------------

def alpha_from_bc_k1(b, c):
    """Unitary parameter of the half-line Robin condition b f(0) + c f'(0) = 0.

        alpha = (b + c e^{3 i pi/4}) / (b - c e^{i pi/4})

    (b : c) is projective; admissibility means b conj(c) real, which is the
    self-adjointness condition of the boundary form. c = 0 is the Dirichlet
    ray with alpha = 1.
    """
    b, c = complex(b), complex(c)
    scale = max(abs(b), abs(c))
    if scale == 0:
        raise DomainError("boundary ray (0, 0) is empty")
    if abs((b * c.conjugate()).imag) > 1e-10 * scale * scale:
        raise DomainError("b conj(c) must be real for a self-adjoint condition")
    den = b - c * _E14
    if abs(den) < 1e-14 * scale:
        raise DomainError("boundary ray degenerates (denominator vanished)")
    return (b + c * _E34) / den


def bc_from_alpha_k1(alpha):
    """Inverse of alpha_from_bc_k1, as a normalized representative of (b : c).

    The returned pair has its largest component positive real; b conj(c) is
    real automatically for unimodular alpha.
    """
    alpha = complex(alpha)
    if abs(abs(alpha) - 1.0) > 1e-10:
        raise NonUnitaryError(f"parameter must be unimodular, |alpha| = {abs(alpha):.6f}")
    if abs(alpha - 1.0) < 1e-14:
        return (1.0 + 0.0j, 0.0 + 0.0j)
    b = _E34 + alpha * _E14
    c = alpha - 1.0
    u = b if abs(b) >= abs(c) else c
    phase = u.conjugate() / abs(u)
    norm = math.hypot(abs(b), abs(c))
    return (b * phase / norm, c * phase / norm)


def alpha_from_bc_l1(beta, a):
    """Parameter of the interval condition f(a) = beta f(-a) for i d/dx:

        alpha = (beta q - 1) / (beta - q),   q = e^{-2a}.

    The map is a Moebius involution, so the inverse has the same form.
    """
    beta = complex(beta)
    if abs(abs(beta) - 1.0) > 1e-10:
        raise NonUnitaryError(f"coupling must be unimodular, |beta| = {abs(beta):.6f}")
    q = math.exp(-2.0 * float(a))
    return (beta * q - 1.0) / (beta - q)


def bc_from_alpha_l1(alpha, a):
    """Inverse map; identical Moebius formula by involutivity."""
    alpha = complex(alpha)
    if abs(abs(alpha) - 1.0) > 1e-10:
        raise NonUnitaryError(f"parameter must be unimodular, |alpha| = {abs(alpha):.6f}")
    q = math.exp(-2.0 * float(a))
    return (alpha * q - 1.0) / (alpha - q)


# ---------------------------------------------------------------------------
# generic maps through the extension generators
# ---------------------------------------------------------------------------

# The boundary system counts as rank deficient below this relative smallest
# singular value, and a solved alpha as inconsistent data beyond this
# distance from unitary.
_RANK_TOL = 1e-12
_UNITARY_TOL = 1e-8


def _solve_alpha_system(nmat, pmat):
    sv = np.linalg.svd(nmat, compute_uv=False)
    if sv[-1] < _RANK_TOL * max(sv[0], 1.0):
        raise RankError("boundary system is rank deficient")
    alpha = np.linalg.solve(nmat, pmat).T
    n = alpha.shape[0]
    if np.max(np.abs(alpha.conj().T @ alpha - np.eye(n))) > _UNITARY_TOL:
        raise NonUnitaryError(
            "solved parameter is not unitary; boundary data is inconsistent"
        )
    return alpha


def _interval_hats(model):
    """Hat matrices of the defect bases at -i and +i at both endpoints,
    ((H-(-a), H-(a)), (H+(-a), H+(a))), each n x n with one row per basis
    element."""
    if model.halfline:
        raise DomainError("regular map applies to interval models")
    n = model.order
    minus, plus = defect_onb(model, "-"), defect_onb(model, "+")
    if minus[0].shape[0] != n:
        raise DimensionError(f"model deficiency {minus[0].shape[0]} does not "
                             f"match expression order {n}")
    return tuple(tuple(hat_vector(basis, n, x) for x in (-model.a, model.a))
                 for basis in (minus, plus))


def alpha_from_bc_regular(model, bm):
    """Unitary parameter of the regular boundary conditions
    beta_a hat(f)(-a) + beta_b hat(f)(a) = 0 on the interval model."""
    (m_left, m_right), (p_left, p_right) = _interval_hats(model)
    nmat = bm.beta_a @ m_left.T + bm.beta_b @ m_right.T
    pmat = bm.beta_a @ p_left.T + bm.beta_b @ p_right.T
    return _solve_alpha_system(nmat, pmat)


def bc_from_alpha_regular(model, alpha):
    """Boundary matrices of the extension generated by alpha.

    The generators g_i = -phi_i(+i) + sum_j alpha_ij phi_j(-i) have the hat
    rows -H+ + alpha H- at each endpoint; their n x 2n stack has an
    orthonormal basis of its (bilinear) annihilator as condition rows, each
    row phase-normalized so its largest entry is positive real.
    """
    (m_left, m_right), (p_left, p_right) = _interval_hats(model)
    n = model.order
    alpha = np.atleast_2d(np.asarray(alpha, dtype=complex))
    if alpha.shape != (n, n):
        raise DimensionError(f"parameter must be {n} x {n}, got {alpha.shape}")
    if np.max(np.abs(alpha.conj().T @ alpha - np.eye(n))) > _UNITARY_TOL:
        raise NonUnitaryError("parameter must be unitary")
    gmat = np.hstack([alpha @ m_left - p_left, alpha @ m_right - p_right])
    u, sv, vh = np.linalg.svd(gmat)
    rank = int(np.sum(sv > 1e-10 * max(sv[0], 1.0)))
    if rank != n:
        raise RankError(f"generator matrix has rank {rank}, expected {n}")
    rows = np.conj(vh[rank:, :])
    lead = rows[np.arange(len(rows)), np.argmax(np.abs(rows), axis=1)]
    out = rows * (lead.conj() / np.abs(lead))[:, None]
    return BoundaryMatrices(beta_a=out[:, :n], beta_b=out[:, n:])


def alpha_from_bc_singular_template(model, bm):
    """Template for singular-endpoint boundary conditions on the half-line.

    bm.beta_a (shape n x order) acts on the derivative hat vector at the
    regular endpoint 0. Without boundary-form data from the singular
    endpoint the system decouples to this regular-endpoint block, which for
    the rank-one model reproduces alpha_from_bc_k1 by an independent route.
    """
    if not model.halfline:
        raise DomainError("singular template applies to half-line models")
    n = model.rank
    order = model.order
    beta_a = np.atleast_2d(np.asarray(bm.beta_a, dtype=complex))
    if beta_a.shape != (n, order):
        raise DimensionError(
            f"regular-endpoint block must be {n} x {order}, got {beta_a.shape}"
        )
    nmat = beta_a @ hat_vector(defect_onb(model, "-"), order, 0.0).T
    pmat = beta_a @ hat_vector(defect_onb(model, "+"), order, 0.0).T
    return _solve_alpha_system(nmat, pmat)
