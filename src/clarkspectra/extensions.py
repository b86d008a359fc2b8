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
whole basis at the model's endpoints (0 on the half-line, -a and a on the
interval) are one matrix H of boundary rows (one row per basis element),
and the systems are products of the boundary matrices with H. One pair of
maps serves all four models. On the rank-one models the K1 Robin condition
b f(0) + c f'(0) = 0 is the block [[b, c]] beside an empty one, and the L1
condition f(a) = beta f(-a) is [[-beta]] | [[1]]; their closed-form atoms,
weights and densities stay in models as references.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cplane import check_unitary
from .defect import defect_onb
from .errors import (DimensionError, DomainError, NonUnitaryError, RankError,
                     UnsupportedError)

__all__ = [
    "canonical_c",
    "hat_vector",
    "lagrange_bracket",
    "boundary_rows",
    "BoundaryMatrices",
    "validate_sa_matrices",
    "alpha_from_bc_regular",
    "bc_from_alpha_regular",
]


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

    On an interval both blocks are n x n, acting on hat vectors at the
    left resp. right endpoint; their bracket matrix is canonical_c(n). On
    the half-line beta_a is n x 2n, acting at 0, and beta_b has width 0.
    """

    beta_a: np.ndarray
    beta_b: np.ndarray

    def __post_init__(self):
        self.beta_a = np.atleast_2d(np.asarray(self.beta_a, dtype=complex))
        self.beta_b = np.atleast_2d(np.asarray(self.beta_b, dtype=complex))


# Relative tolerance of validate_sa_matrices: of the rank test against the
# largest singular value sv[0] of the stack, and of the bracket identity
# against sv[0]**2, so that the verdict does not depend on the scale of a
# projective condition
_SA_TOL = 1e-10


def validate_sa_matrices(bm):
    """True when (beta_a | beta_b) defines a self-adjoint restriction:

    rank (beta_a | beta_b) = n  and  beta_a C_a beta_a* = beta_b C_b beta_b*

    for the n x 2n stack, with C_a, C_b the canonical_c of each block's
    width: n x n blocks on an interval, an n x 2n beta_a beside a width-0
    beta_b on the half-line, where the identity reads beta_a C beta_a* = 0.
    Returns a bool; only genuinely malformed shapes raise DimensionError.
    """
    ba, bb = bm.beta_a, bm.beta_b
    n = ba.shape[0]
    widths = (ba.shape[1], bb.shape[1])
    if bb.shape[0] != n or widths not in ((n, n), (2 * n, 0)):
        raise DimensionError(f"expected two n x n blocks or an n x 2n block "
                             f"and an empty one, got {ba.shape} and {bb.shape}")
    sv = np.linalg.svd(np.hstack([ba, bb]), compute_uv=False)
    if np.sum(sv > _SA_TOL * sv[0]) < n:
        return False
    lhs, rhs = (m @ canonical_c(m.shape[1]) @ m.conj().T for m in (ba, bb))
    return bool(np.max(np.abs(lhs - rhs)) <= _SA_TOL * sv[0] ** 2)


# ---------------------------------------------------------------------------
# maps through the extension generators
# ---------------------------------------------------------------------------

# The boundary system counts as rank deficient below this relative smallest
# singular value, and a solved alpha as inconsistent data beyond this
# distance from unitary.
_RANK_TOL = 1e-12
_UNITARY_TOL = 1e-8


def boundary_rows(model, f):
    """Boundary rows of f = (coeffs, rates): the hat vectors at the model's
    endpoints side by side, at 0 on the half-line and at -a, a on the
    interval; one row per function of f. DomainError when a row is not
    finite, as where exp(rate a) overflows on a very long interval."""
    points = (0.0,) if model.halfline else (-model.a, model.a)
    with np.errstate(all="ignore"):
        rows = np.hstack([hat_vector(f, model.order, x) for x in points])
    if not np.all(np.isfinite(rows)):
        raise DomainError(f"boundary rows of {model.name} are not finite"
                          + ("" if model.halfline else f" at a = {model.a!r}"))
    return rows


@lru_cache(maxsize=64)
def _defect_rows(model):
    """Boundary rows (H-, H+) of the defect bases at -i and +i, computed
    once per model like defect_onb; read-only."""
    rows = tuple(boundary_rows(model, defect_onb(model, side)) for side in "-+")
    for r in rows:
        r.flags.writeable = False
    return rows


def alpha_from_bc_regular(model, bm):
    """Unitary parameter of the boundary condition
    (beta_a | beta_b) (boundary rows of f) = 0, on any of the four models;
    on the half-line beta_a (rank x order) acts at 0 and beta_b has width
    0. The generators satisfy it when (beta_a | beta_b) (alpha H- - H+)^T
    = 0, a linear system in alpha. DimensionError for blocks that do not
    make a rank x (2 rank) condition."""
    n, order = model.rank, model.order
    shapes = ((n, order), (n, 2 * n - order))
    if (bm.beta_a.shape, bm.beta_b.shape) != shapes:
        raise DimensionError(f"{model.name} takes boundary blocks of shapes "
                             f"{shapes}, got {bm.beta_a.shape} and "
                             f"{bm.beta_b.shape}")
    beta = np.hstack([bm.beta_a, bm.beta_b])
    minus, plus = _defect_rows(model)
    nmat = beta @ minus.T
    sv = np.linalg.svd(nmat, compute_uv=False)
    # relative to the data's own scale; "not >" keeps the zero matrix
    # rank deficient
    if not sv[-1] > _RANK_TOL * sv[0]:
        raise RankError("boundary system is rank deficient")
    alpha = np.linalg.solve(nmat, beta @ plus.T).T
    if np.max(np.abs(alpha.conj().T @ alpha - np.eye(n))) > _UNITARY_TOL:
        raise NonUnitaryError(
            "solved parameter is not unitary; boundary data is inconsistent")
    return alpha


def bc_from_alpha_regular(model, alpha):
    """Boundary matrices of the extension generated by alpha.

    The generators g_i = -phi_i(+i) + sum_j alpha_ij phi_j(-i) have the
    boundary rows alpha H- - H+; an orthonormal basis of the (bilinear)
    annihilator of these rows gives the condition rows, each
    phase-normalized so its largest entry is positive real. beta_a takes
    the first model.order columns, beta_b the rest (none on the
    half-line). alpha is checked by cplane.check_unitary.
    """
    n = model.rank
    alpha = check_unitary(alpha, n, "parameter")
    minus, plus = _defect_rows(model)
    u, sv, vh = np.linalg.svd(alpha @ minus - plus)
    rank = int(np.sum(sv > 1e-10 * max(sv[0], 1.0)))
    if rank != n:
        raise RankError(f"generator matrix has rank {rank}, expected {n}")
    rows = np.conj(vh[rank:, :])
    lead = rows[np.arange(len(rows)), np.argmax(np.abs(rows), axis=1)]
    out = rows * (lead.conj() / np.abs(lead))[:, None]
    return BoundaryMatrices(beta_a=out[:, :model.order],
                            beta_b=out[:, model.order:])
