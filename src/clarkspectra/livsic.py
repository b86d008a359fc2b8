"""Characteristic (Schur-class) matrix functions of the derivative models.

For a model of deficiency rank n the characteristic function is

    B(w) = gamma(w) * A(w, +)^{-1} A(w, -),

where A(w, sign)[j, k] pairs the raw defect exponentials at w against the
orthonormalized defect basis at sign * i. B is an n x n Schur-class function
on the upper half-plane with B(i) = 0. Real-axis values are understood as
upper continuations: the rates carry their Im w >= 0 branch down to the
boundary, so B extends continuously to R minus the branch points, and on
across the axis away from the model's cut (Model.raw_rates below the axis
is that continuation).

There is one evaluation of B: it takes an array of points, computes the
rates, both pairing matrices and the explicit solve for all of them at once,
in blocks of _BLOCK points, and returns a stack of n x n matrices; a single
point is the same code on an array of one. A point that is not finite, or
w = -i, raises DomainError; NaN means only a singular A(w, +), which the
atom scan's count skips (a cell spans it) and every other caller refuses.

The 1 x 1 and 2 x 2 kernels on stacks are broadcast arithmetic, not
per-matrix calls into numpy or LAPACK: _mul_small (the product),
_solve_small (the solve, with its singularity test) and _eigenvalues_small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .cplane import cayley, check_unitary
from .defect import defect_onb
from .errors import DimensionError, DomainError

__all__ = [
    "SchurFunction",
    "livsic_eval",
    "livsic_function",
    "conjugated_schur",
    "transform_alpha",
]


@dataclass
class SchurFunction:
    """A contractive analytic matrix function on the upper half-plane.

    fn evaluates the function's continuation at a point (an n x n matrix)
    or at an array of points (a stack of shape w.shape + (n, n)); a point
    that is not finite, or w = -i, raises DomainError, and NaN marks a
    singular pairing matrix A(w, +). Calling the SchurFunction does the
    same on the closed upper half-plane only: any w with Im w < 0 raises
    DomainError; real w means the boundary continuation from above.
    ac_edge is where the essential spectrum of the underlying model
    begins: for every coupling the measure has no absolutely continuous
    part on s <= ac_edge, and fn continues across the real axis below it.
    scan_step is the model's Model.scan_step, the resolution of the atom
    scan on an interval and the cap of its residue radii there; infinite
    on the half-line, where the distance to ac_edge sizes the circles.
    """

    n: int
    fn: object
    ac_edge: float
    scan_step: float

    def __call__(self, w):
        return self.fn(_upper(w))


def _upper(w):
    w = np.asarray(w, dtype=complex)
    if np.any(w.imag < 0):
        raise DomainError("characteristic function is defined on the closed "
                          "upper half-plane")
    return w


def _pairings(model, rates):
    """A(w, +) and A(w, -) from the rates at w (shape (..., n)):
    A(w, sign)[j, k] = <exp(rho_j(w) x), phi_k(sign * i)> in the model's
    L2, row j scaled by exp(-|Re rho_j| a) on the interval (-a, a). rho_j
    are the defect rates at w (Model.raw_rates) and phi_k the orthonormal
    defect basis at +i or -i. One inner product of each rate with the 2n
    basis rates, then the conjugated coefficients of each basis. The row
    scale is the same for both signs, so it cancels from
    A(w, +)^{-1} A(w, -); it keeps the rows finite where exp(rho_j x) grows
    like exp(|Re rho_j| a), as on L2 far down the negative axis."""
    (c_plus, r_plus), (c_minus, r_minus) = (defect_onb(model, "+"),
                                            defect_onb(model, "-"))
    rho = rates[..., None]
    shift = 0.0 if model.halfline else np.abs(rho.real) * model.a
    vals = model.inner(rho, np.concatenate([r_plus, r_minus]), shift)
    n = model.rank
    return (_mul_small(vals[..., :n], c_plus.conj().T),
            _mul_small(vals[..., n:], c_minus.conj().T))


def _mul_small(a, b):
    """a @ b for stacks of n x n matrices, as n broadcast products of a
    column of a and a row of b: one pass over the stack per term where
    np.matmul loops once per matrix. Meant for n in {1, 2}; leading axes
    broadcast."""
    out = a[..., :, 0:1] * b[..., 0:1, :]
    for k in range(1, a.shape[-1]):
        out += a[..., :, k:k + 1] * b[..., k:k + 1, :]
    return out


# adj(a) = swap(a reversed in both axes) * _ADJ_SIGN for 2 x 2 a
_ADJ_SIGN = np.array([[1.0, -1.0], [-1.0, 1.0]])


def _solve_small(a, b):
    """a^{-1} b for stacks of n x n matrices, n in {1, 2}, via explicit
    formulas, keeping the singularity test independent of LAPACK
    behaviour: a matrix with |det| < 1e-14 max(1, max |a_ij|)^n counts as
    singular, and its result is NaN. Leading axes broadcast."""
    n = a.shape[-1]
    if n > 2:
        raise DimensionError(f"explicit solve covers n = 1, 2, got n = {n}")
    det = a[..., 0, 0] if n == 1 else (a[..., 0, 0] * a[..., 1, 1]
                                        - a[..., 0, 1] * a[..., 1, 0])
    scale = np.maximum(1.0, np.abs(a).max(axis=(-2, -1))) ** n
    # "not >=" so that a NaN determinant counts as singular
    singular = ~(np.abs(det) >= 1e-14 * scale)
    if singular.any():
        det = np.where(singular, 1.0, det)
        a = np.where(singular[..., None, None], np.eye(n), a)
    if n == 1:
        out = b / a
    else:
        adj = np.swapaxes(a[..., ::-1, ::-1], -1, -2) * _ADJ_SIGN
        out = _mul_small(adj, b) / det[..., None, None]
    if singular.any():
        out = np.where(singular[..., None, None], np.nan, out)
    return out


def _eigenvalues_small(m):
    """Eigenvalues of stacks of n x n matrices, n in {1, 2}, without
    LAPACK; shape m.shape[:-1]. For n = 2, (p + t)/2 +- sqrt(d) with
    d = ((p - t)/2)^2 + q r, whose terms do not cancel for a normal matrix,
    so both are within a few rounding units of the entries' size."""
    n = m.shape[-1]
    if n > 2:
        raise DimensionError(f"explicit eigenvalues cover n = 1, 2, got n = {n}")
    if n == 1:
        return m[..., 0]
    p, q, r, t = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    half = 0.5 * (p - t)
    root = np.sqrt(half * half + q * r)
    mid = 0.5 * (p + t)
    return np.stack([mid + root, mid - root], axis=-1)


# Points per block of a B evaluation: a long array is evaluated block by
# block, so the temporaries stay bounded whatever its length.
_BLOCK = 512


def _continued_b(model, w):
    """B(w) = gamma(w) A(w,+)^{-1} A(w,-) on the continuation (any w off
    the model's cut), for a point or an array of points; shape
    w.shape + (n, n). Each block takes gamma(w) first: cplane.cayley
    refuses a point that is not finite, or w = -i, before any pairing
    arithmetic. NaN marks a singular A(w, +) (_solve_small)."""
    w = np.asarray(w, dtype=complex)
    flat = w.reshape(-1)
    out = np.empty((flat.size, model.rank, model.rank), dtype=complex)
    for start in range(0, flat.size, _BLOCK):
        pts = flat[start:start + _BLOCK]
        gamma = cayley(pts)[:, None, None]
        a_plus, a_minus = _pairings(model, model.raw_rates(pts))
        out[start:start + _BLOCK] = gamma * _solve_small(a_plus, a_minus)
    return out.reshape(w.shape + out.shape[1:])


def livsic_eval(model, w):
    """Characteristic function B(w) = gamma(w) A(w,+)^{-1} A(w,-).

    w is a point or an array of finite points of the closed upper
    half-plane (DomainError otherwise); real w gives the boundary
    continuation. Returns an n x n ndarray for a point (also for n = 1)
    and a stack of shape w.shape + (n, n) for an array, with NaN where the
    pairing matrix A(w, +) is singular.
    """
    return _continued_b(model, _upper(w))


def livsic_function(model):
    """Package the model's B as a SchurFunction. The half-line models have
    essential spectrum [0, inf); the interval models have none."""
    return SchurFunction(n=model.rank, fn=partial(_continued_b, model),
                         ac_edge=0.0 if model.halfline else math.inf,
                         scan_step=model.scan_step)


def conjugated_schur(b, r, q):
    """The Schur function w -> R b(w) Q for unitary R, Q."""
    r, q = (check_unitary(m, b.n, "conjugating matrix") for m in (r, q))
    return replace(b, fn=lambda w: r @ b.fn(w) @ q)


def transform_alpha(alpha, r, q):
    """Perturbation parameter for B2 matching alpha for B1 = R B2 Q.

    If B1 = R B2 Q then I - B1 alpha* = R (I - B2 (R* alpha Q*)*) R*, so the
    measures satisfy measure(B1, alpha) = R measure(B2, R* alpha Q*) R*.
    """
    alpha, r, q = (np.atleast_2d(np.asarray(m, dtype=complex))
                   for m in (alpha, r, q))
    return r.conj().T @ alpha @ q.conj().T
