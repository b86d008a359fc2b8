"""Characteristic (Schur-class) matrix functions of the derivative models.

For a model of deficiency rank n the characteristic function is

    B(w) = gamma(w) * A(w, +)^{-1} A(w, -),

where A(w, sign)[j, k] pairs the raw defect functions at w against the
orthonormalized defect basis at sign * i. B is an n x n Schur-class function
on the upper half-plane with B(i) = 0; real w means the continuation from
above, which goes on across the axis off the model's cut.

There is one evaluation of B, on an array of points in blocks of _BLOCK,
and on request, on the real axis, B' = dB/dw beside B: on K1, K2 and L1
the pairings and the explicit solve (K2's rows a divided difference, so B
is unitary on the whole negative axis), and B' the derivatives of the
same pairings and one more solve; on L2, where the reflection x -> -x
splits the defect spaces into even and odd functions, two scalar ratios
between constant matrices (_reflected), entire in w, so defined at s = 0.
A point that is not finite, or w = -i, raises DomainError; NaN, never
inf, means only a singular A(w, +).

The 1 x 1 and 2 x 2 kernels on stacks are broadcast arithmetic, not calls
into LAPACK: _mul_small, _solve_small (with its singularity test) and
_eigenvalues_small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np

from .cplane import cayley, check_unitary, principal_power
from .defect import _cosh_sinh, defect_onb
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

    Called at a point of the closed upper half-plane it gives an n x n
    matrix, at an array a stack of shape w.shape + (n, n), and with
    derivative=True, at real points only, the pair (B, B'); real w means
    the boundary value from above. DomainError for Im w < 0, a point that
    is not finite, w = -i, or B' off the axis; NaN, never inf, marks a
    singular pairing matrix A(w, +) (on L2 a vanishing even or odd
    pairing). fn(w, derivative=False) is the evaluation behind the call.
    The measure has no absolutely continuous part on s <= ac_edge;
    scan_step is Model.scan_step."""

    n: int
    fn: object
    ac_edge: float
    scan_step: float

    def __call__(self, w, derivative=False):
        return self.fn(_upper(w), derivative)


def _upper(w):
    w = np.asarray(w, dtype=complex)
    if (w.imag < 0).any():
        raise DomainError("characteristic function is defined on the closed "
                          "upper half-plane")
    return w


def _half_line(model, w, basis, derivative):
    """K1's and K2's rows -1/(rho_j + c) (c = conj(r), r the basis
    rates), the first times 1 + |rho|; on K2 the second is the divided
    difference of (rho_j - 1) times the rows, -(1 + c)/((rho_1 + c)
    (rho_2 + c)), times (1 + |rho|)^2, so the rows stay apart where the
    rates meet (w -> 0) and keep their size where they grow (w -> inf);
    rho_2 is never 1, so this mixing is invertible. With derivative their
    w-derivatives (rho' = rho/(order w)) stacked."""
    rho, c = model.raw_rates(w)[..., None], np.conj(basis)
    q = rho + c
    size = 1.0 + np.abs(rho[..., 0, :])
    rows = [-size / q[..., 0, :]]
    if model.rank == 2:
        rows.append(-size * size * (1.0 + c) / (q[..., 0, :] * q[..., 1, :]))
    if derivative:
        speed = rho / (model.order * w[..., None, None])
        rows.append(-rows[0] * speed[..., 0, :] / q[..., 0, :])
        if model.rank == 2:
            rows.append(-rows[1] * (speed / q).sum(axis=-2))
    return np.stack(rows, axis=-2).reshape(w.shape + (1 + derivative, model.rank, -1))


@lru_cache(maxsize=64)
def _basis(model):
    """The rates of both defect bases (at +i, then -i), and the conjugated
    transpose of their block-diagonal coefficients."""
    (c_plus, r_plus), (c_minus, r_minus) = (defect_onb(model, s) for s in "+-")
    n = model.rank
    coeffs = np.zeros((2 * n, 2 * n), dtype=complex)
    coeffs[:n, :n], coeffs[n:, n:] = c_plus.conj().T, c_minus.conj().T
    return np.concatenate([r_plus, r_minus]), coeffs


def _pairings(model, w, derivative=False):
    """[A(w, +) | A(w, -)] at the points w, shape w.shape + (n, 2n), with
    derivative stacked with its w-derivative, w.shape + (2, n, 2n):
    A(w, sign)[j, k] = <f_j(w), phi_k(sign * i)>, phi_k the orthonormal
    defect basis at sign * i and f_j the raw functions at w: on L1
    exp(rho x) times exp(-|Re rho| a); on K1 and K2 those of _half_line
    (L2: _reflected). A w-dependent mixing of the rows cancels from
    A(w, +)^{-1} A(w, -) and from its derivative with the mixing fixed."""
    basis, coeffs = _basis(model)
    w = np.asarray(w, dtype=complex)
    if model.halfline:
        vals = _half_line(model, w, basis, derivative)
    else:  # 2 sinh(za)/z, z = rho + c, and its derivative (rho' = -i)
        rho = model.raw_rates(w)[..., None]
        z = rho + np.conj(basis)
        _, sinh, *slope = _cosh_sinh(z, model.a, np.abs(rho.real) * model.a,
                                     derivative)
        vals = np.stack([2.0 * sinh] + [-4j * z * d for d in slope], axis=-3)
    out = _mul_small(vals, coeffs)
    return out if derivative else out[..., 0, :, :]


@lru_cache(maxsize=64)
def _reflection(model):
    """L2's p, q, r, t over the signs (+, -), and the outer products of
    column k of M(+)^{-1} and row k of M(-), k = 0, 1; M(sign) is
    [[1, 1], [1, -1]] times the conjugated basis coefficients at sign * i,
    whose rates are r and -r, with c = conj(r) squaring to +-i."""
    rates, coeffs = _basis(model)
    c = np.conj(rates[::2])
    sh, ch = 2.0 * np.sinh(c * model.a), 2.0 * np.cosh(c * model.a)
    mix = np.array([[1.0, 1.0], [1.0, -1.0]])
    inv, minus = np.linalg.inv(mix @ coeffs[:2, :2]), mix @ coeffs[2:, 2:]
    return c * sh, ch, c * ch, sh, inv[:, :1] * minus[:1], inv[:, 1:] * minus[1:]


def _reflected(model, w, derivative):
    """L2's B, and B' with derivative, stacked at the points w (1-D). By the
    reflection x -> -x, cosh(rho x) and sinh(rho x)/rho (rho^2 = -w) pair
    with the basis at sign * i as diag(e, o) [[1, 1], [1, -1]] / (w +- i),
    e = cosh(rho a) p + w S q and o = S r - cosh(rho a) t, S = sinh(rho a)/rho;
    as gamma (w + i)/(w - i) = 1, B = M(+)^{-1} diag(e-/e+, o-/o+) M(-)
    (_reflection), and B' the same with the ratios' derivatives
    (cosh(rho a)' = -(a/2) S, S' = -slope). Their common factor
    exp(-|Re rho| a) cancels. NaN, never inf, where e+ or o+ vanishes."""
    p, q, r, t, even, odd = _reflection(model)
    a, rho = model.a, (-1j * principal_power(w, 0.5))[:, None]
    cosh, sinh, *slope = _cosh_sinh(rho, a, np.abs(rho.real) * a, derivative)
    w = w[:, None]
    rows = np.stack([cosh * p + (w * sinh) * q, sinh * r - cosh * t], axis=-1)
    with np.errstate(all="ignore"):
        out = [rows[:, 1] / rows[:, 0]]
        if derivative:
            slopes = np.stack([q * (sinh - w * slope[0]) - (0.5 * a) * sinh * p,
                               (0.5 * a) * sinh * t - slope[0] * r], axis=-1)
            out.append((slopes[:, 1] - out[0] * slopes[:, 0]) / rows[:, 0])
    out = np.stack(out)
    out[~np.isfinite(out)] = np.nan
    return out[..., :1, None] * even + out[..., 1:, None] * odd


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
    half, mid = 0.5 * (p - t), 0.5 * (p + t)
    root = np.sqrt(half * half + q * r)
    return np.stack([mid + root, mid - root], axis=-1)


# Points per block of a B evaluation: a long array is evaluated block by
# block, so the temporaries stay bounded whatever its length.
_BLOCK = 512


def _continued_b(model, w, derivative=False):
    """B(w) = gamma(w) A(w,+)^{-1} A(w,-) on the continuation (any w off
    the model's cut), for a point or an array of points; shape
    w.shape + (n, n). With derivative, (B, B') at real w (DomainError
    elsewhere): with X = A(w,+)^{-1} A(w,-), B' = gamma' X +
    gamma A(w,+)^{-1} (A(w,-)' - A(w,+)' X), one more small solve; L2's
    from _reflected. Each block takes gamma(w) first: cplane.cayley
    refuses a point that is not finite, or w = -i, before any pairing
    arithmetic. NaN marks a singular A(w, +) (_solve_small, _reflected)."""
    w = np.asarray(w, dtype=complex)
    if derivative and (w.imag != 0).any():
        raise DomainError("B' is evaluated on the real axis only")
    flat, n = w.reshape(-1), model.rank
    out = np.empty((1 + derivative, flat.size, n, n), dtype=complex)
    for start in range(0, flat.size, _BLOCK):
        pts = flat[start:start + _BLOCK]
        gamma = cayley(pts)[:, None, None]
        if model.name == "L2":
            out[:, start:start + _BLOCK] = _reflected(model, pts, derivative)
            continue
        pairs = _pairings(model, pts, derivative)
        a = pairs[:, 0] if derivative else pairs
        x = _solve_small(a[..., :n], a[..., n:])
        out[0, start:start + _BLOCK] = gamma * x
        if derivative:
            slope = pairs[:, 1]
            out[1, start:start + _BLOCK] = (
                2j / (pts + 1j) ** 2)[:, None, None] * x + gamma * _solve_small(
                    a[..., :n], slope[..., n:] - _mul_small(slope[..., :n], x))
    out = out.reshape(out.shape[:1] + w.shape + out.shape[2:])
    return (out[0], out[1]) if derivative else out[0]


def livsic_eval(model, w):
    """Characteristic function B(w) = gamma(w) A(w,+)^{-1} A(w,-) at a
    point or an array of finite points of the closed upper half-plane
    (DomainError otherwise; real w gives the boundary continuation): an
    n x n ndarray for a point (also for n = 1), a stack of shape
    w.shape + (n, n) for an array, NaN where A(w, +) is singular."""
    return _continued_b(model, _upper(w))


def livsic_function(model):
    """Package the model's B as a SchurFunction. The half-line models have
    essential spectrum [0, inf); the interval models have none."""
    return SchurFunction(n=model.rank, fn=partial(_continued_b, model),
                         ac_edge=0.0 if model.halfline else math.inf,
                         scan_step=model.scan_step)


def conjugated_schur(b, r, q):
    """The Schur function w -> R b(w) Q for unitary R, Q, with derivative
    R b'(w) Q."""
    r, q = (check_unitary(m, b.n, "conjugating matrix") for m in (r, q))

    def fn(w, derivative=False):
        out = b.fn(w, derivative)
        return tuple(r @ m @ q for m in out) if derivative else r @ out @ q

    return replace(b, fn=fn)


def transform_alpha(alpha, r, q):
    """Perturbation parameter for B2 matching alpha for B1 = R B2 Q.

    If B1 = R B2 Q then I - B1 alpha* = R (I - B2 (R* alpha Q*)*) R*, so the
    measures satisfy measure(B1, alpha) = R measure(B2, R* alpha Q*) R*.
    """
    alpha, r, q = (np.atleast_2d(np.asarray(m, dtype=complex))
                   for m in (alpha, r, q))
    return r.conj().T @ alpha @ q.conj().T
