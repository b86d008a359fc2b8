"""Boundary vectors, the Lagrange bracket, and the boundary-condition maps.

Self-adjoint extensions of the symmetric models are parameterized two ways:
by boundary matrices (beta_a | beta_b) acting on the derivative vectors
(f, f', ..., f^(n-1)) at the endpoints, and by a unitary n x n matrix alpha
pairing the defect bases at -i and +i. The maps between the two run through
the extension generators

    g_i = -phi_i(+i) + sum_j alpha_ij phi_j(-i),

which must satisfy the boundary conditions; that is a linear system in
alpha (one direction) or an annihilator computation (the other).
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


def _derivatives(f, n):
    """f, f', ..., f^(n-1), each the derivative of the one before."""
    out = [f]
    for _ in range(n - 1):
        out.append(out[-1].derivative())
    return out


def hat_vector(f, n, x):
    """(f(x), f'(x), ..., f^(n-1)(x)) as a complex n-vector."""
    return np.array([d(x) for d in _derivatives(f, n)], dtype=complex)


def lagrange_bracket(f, g, x, n):
    """Sesquilinear boundary form [f, g](x) of the order-n expression
    (i d/dx)^n:

        (-1)^{n/2} sum_{r=0}^{n-1} (-1)^{n+1-r}
            conj(g^(n-r-1)(x)) f^(r)(x).

    UnsupportedError for odd n (the alternating form above pairs the
    derivatives only when n is even).
    """
    if n % 2:
        raise UnsupportedError("boundary form implemented for even order only")
    fd, gd = _derivatives(f, n), _derivatives(g, n)
    total = 0.0 + 0.0j
    for r in range(n):
        total += (-1.0) ** (n + 1 - r) * np.conj(gd[n - r - 1](x)) * fd[r](x)
    return (-1.0) ** (n // 2) * total


@dataclass
class BoundaryMatrices:
    """Boundary-condition data (beta_a | beta_b) with its bracket matrix C.

    For regular problems both blocks are n x n, acting on hat vectors at the
    left resp. right endpoint. c defaults to the canonical bracket matrix of
    the block width.
    """

    beta_a: np.ndarray
    beta_b: np.ndarray
    c: np.ndarray = None

    def __post_init__(self):
        self.beta_a = np.atleast_2d(np.asarray(self.beta_a, dtype=complex))
        self.beta_b = np.atleast_2d(np.asarray(self.beta_b, dtype=complex))
        if self.c is None:
            self.c = canonical_c(self.beta_a.shape[1])
        else:
            self.c = np.atleast_2d(np.asarray(self.c, dtype=complex))


def validate_sa_matrices(bm, tol=1e-10):
    """True when (beta_a | beta_b) defines a self-adjoint restriction:

    rank (beta_a | beta_b) = n  and  beta_a C beta_a* = beta_b C beta_b*.

    Returns a bool; only genuinely malformed shapes raise DimensionError.
    """
    ba, bb, c = bm.beta_a, bm.beta_b, bm.c
    n = ba.shape[0]
    if ba.shape != (n, n) or bb.shape != (n, n) or c.shape != (n, n):
        raise DimensionError(
            f"expected three n x n blocks, got {ba.shape}, {bb.shape}, {c.shape}"
        )
    stacked = np.hstack([ba, bb])
    sv = np.linalg.svd(stacked, compute_uv=False)
    if np.sum(sv > 1e-10 * sv[0]) < n:
        return False
    lhs = ba @ c @ ba.conj().T
    rhs = bb @ c @ bb.conj().T
    return bool(np.max(np.abs(lhs - rhs)) <= tol)


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

def _solve_alpha_system(nmat, pmat, rank_tol=1e-12, unitary_tol=1e-8):
    sv = np.linalg.svd(nmat, compute_uv=False)
    if sv[-1] < rank_tol * max(sv[0], 1.0):
        raise RankError("boundary system is rank deficient")
    alpha = np.linalg.solve(nmat, pmat).T
    n = alpha.shape[0]
    if np.max(np.abs(alpha.conj().T @ alpha - np.eye(n))) > unitary_tol:
        raise NonUnitaryError(
            "solved parameter is not unitary; boundary data is inconsistent"
        )
    return alpha


def alpha_from_bc_regular(model, bm):
    """Unitary parameter of the regular boundary conditions
    beta_a hat(f)(-a) + beta_b hat(f)(a) = 0 on the interval model."""
    if model.halfline:
        raise DomainError("regular map applies to interval models")
    n = model.order
    a = model.a
    minus = defect_onb(model, "-")
    plus = defect_onb(model, "+")
    if len(minus) != n:
        raise DimensionError(
            f"model deficiency {len(minus)} does not match expression order {n}"
        )
    nmat = np.empty((n, n), dtype=complex)
    pmat = np.empty((n, n), dtype=complex)
    for j in range(n):
        nmat[:, j] = (bm.beta_a @ hat_vector(minus[j], n, -a)
                      + bm.beta_b @ hat_vector(minus[j], n, a))
        pmat[:, j] = (bm.beta_a @ hat_vector(plus[j], n, -a)
                      + bm.beta_b @ hat_vector(plus[j], n, a))
    return _solve_alpha_system(nmat, pmat)


def bc_from_alpha_regular(model, alpha):
    """Boundary matrices of the extension generated by alpha.

    Builds the generators g_i = -phi_i(+i) + sum_j alpha_ij phi_j(-i),
    stacks their endpoint hat vectors into an n x 2n matrix and returns an
    orthonormal basis of its (bilinear) annihilator as condition rows, each
    row phase-normalized so its largest entry is positive real.
    """
    if model.halfline:
        raise DomainError("regular map applies to interval models")
    n = model.order
    alpha = np.atleast_2d(np.asarray(alpha, dtype=complex))
    if alpha.shape != (n, n):
        raise DimensionError(f"parameter must be {n} x {n}, got {alpha.shape}")
    if np.max(np.abs(alpha.conj().T @ alpha - np.eye(n))) > 1e-8:
        raise NonUnitaryError("parameter must be unitary")
    a = model.a
    minus = defect_onb(model, "-")
    plus = defect_onb(model, "+")
    gmat = np.empty((n, 2 * n), dtype=complex)
    for i in range(n):
        g = plus[i].scale(-1.0)
        for j in range(n):
            g = g + minus[j].scale(alpha[i, j])
        gmat[i, :n] = hat_vector(g, n, -a)
        gmat[i, n:] = hat_vector(g, n, a)
    u, sv, vh = np.linalg.svd(gmat)
    rank = int(np.sum(sv > 1e-10 * max(sv[0], 1.0)))
    if rank != n:
        raise RankError(f"generator matrix has rank {rank}, expected {n}")
    rows = np.conj(vh[rank:, :])
    out = np.empty_like(rows)
    for i, row in enumerate(rows):
        k = int(np.argmax(np.abs(row)))
        out[i] = row * (row[k].conjugate() / abs(row[k]))
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
    minus = defect_onb(model, "-")
    plus = defect_onb(model, "+")
    nmat = np.empty((n, n), dtype=complex)
    pmat = np.empty((n, n), dtype=complex)
    for j in range(n):
        nmat[:, j] = beta_a @ hat_vector(minus[j], order, 0.0)
        pmat[:, j] = beta_a @ hat_vector(plus[j], order, 0.0)
    return _solve_alpha_system(nmat, pmat)
