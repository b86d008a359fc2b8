"""Characteristic (Schur-class) matrix functions of the derivative models.

For a model of deficiency rank n the characteristic function is

    B(w) = gamma(w) * A(w, +)^{-1} A(w, -),

where A(w, sign)[j, k] pairs the raw defect functions at w against the
orthonormalized defect basis at sign * i. B is an n x n Schur-class function
on the upper half-plane with B(i) = 0, evaluated on the closed upper
half-plane only; real w means the boundary value from above.

Every model's B is a short sum B = sum_k f_k(w) O_k of scalar factors
times constant matrices (_frame): one assembly on an array of points in
blocks of _BLOCK, with B' = sum_k f_k'(w) O_k beside it on request, on the
real axis. On the half-line A(w, +-) are Cauchy matrices times constants,
and their ratio is diagonal times Lagrange times diagonal (_cauchy), so
f_k -> 1 far out and B_inf = sum_k O_k in closed form; on the interval
f_k are ratios of sinh rows, L2's split into even and odd ones by the
reflection x -> -x (_sinh_ratio). _continued_b is the one entry: a point
below the axis, a point that is not finite, or w = -i raises DomainError
there; NaN, never inf, marks a vanishing denominator of a factor, which
on the closed upper half-plane only L2's even or odd pairing at +i can be.

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
    vanishing denominator of B's factors (on L2 a vanishing even or odd
    pairing). The call is fn(w, derivative), and fn enforces all of this:
    livsic_function's fn is _continued_b, conjugated_schur's calls the B
    it wraps. The measure has no absolutely continuous part on
    s <= ac_edge; scan_step is Model.scan_step."""

    n: int
    fn: object
    ac_edge: float
    scan_step: float

    def __call__(self, w, derivative=False):
        return self.fn(w, derivative)


@lru_cache(maxsize=64)
def _frame(model):
    """The model's frame: the constants of its factors and the stack O of
    constant matrices with B = sum_k f_k(w) O_k. C(sign) is the conjugated
    transpose of the basis coefficients at sign * i, c(sign) its
    conjugated rates. Half-line: c(+), c(-) and O_ml = L[m, l] column m of
    C(+)^{-1} times row l of C(-), L[m, l] = prod_{k != m} (c(-)_l -
    c(+)_k)/(c(+)_m - c(+)_k), the Lagrange basis of the nodes c(+) at
    c(-). L1: c(+), c(-) and C(-)/C(+). L2: p, q, r, t over the signs
    (+, -) and the outer products of column k of M(+)^{-1} and row k of
    M(-), k = 0, 1; M(sign) = [[1, 1], [1, -1]] C(sign), whose rates are r
    and -r, with c = conj(r) squaring to +-i."""
    (c_plus, r_plus), (c_minus, r_minus) = (defect_onb(model, s) for s in "+-")
    plus, minus = c_plus.conj().T, c_minus.conj().T
    c = np.conj(np.stack([r_plus, r_minus]))
    if model.name == "L2":
        c = c[:, 0]
        sh, ch = 2.0 * np.sinh(c * model.a), 2.0 * np.cosh(c * model.a)
        mix = np.array([[1.0, 1.0], [1.0, -1.0]])
        inv, minus = np.linalg.inv(mix @ plus), mix @ minus
        return (c * sh, ch, c * ch, sh), np.stack([inv[:, k:k + 1] * minus[k:k + 1]
                                                   for k in range(2)])
    inv, n = np.linalg.inv(plus), model.rank
    lagrange = [[math.prod((c[1, l] - c[0, k]) / (c[0, m] - c[0, k])
                           for k in range(n) if k != m) for l in range(n)]
                for m in range(n)]
    return c, np.stack([lagrange[m][l] * inv[:, m:m + 1] * minus[l:l + 1]
                        for m in range(n) for l in range(n)])


def _cauchy(model, w, gamma, c, derivative):
    """K1's and K2's factors at the points w (1-D): the pairings are
    Cauchy matrices times C(+-), V(sign)[j, m] = -1/(rho_j + c(sign)_m),
    and V(+)^{-1} V(-) = diag(p) L diag(1/q) with p_m = prod_j (rho_j +
    c(+)_m) and q_l = prod_j (rho_j + c(-)_l) (S. Schechter, Math. Tables
    Aids Comput. 13, 1959), so f_ml = gamma p_m/q_l, which tends to 1
    far out. With derivative also f_ml' = gamma' p_m/q_l + f_ml
    sum_j rho_j' (c(-)_l - c(+)_m)/((rho_j + c(+)_m)(rho_j + c(-)_l)),
    rho' = rho/(order w): one fraction per rate, not a difference."""
    rho = model.raw_rates(w)[:, :, None, None]
    up, down = rho + c[0, :, None], rho + c[1]
    ratio = np.prod(up, axis=1) / np.prod(down, axis=1)
    out = [gamma[:, None, None] * ratio]
    if derivative:
        speed = rho / (model.order * w[:, None, None, None])
        out.append((2j / (w + 1j) ** 2)[:, None, None] * ratio + out[0] * (
            speed * (c[1] - c[0, :, None]) / (up * down)).sum(axis=1))
    return [f.reshape(w.size, -1) for f in out]


def _sinh_ratio(model, w, gamma, consts, derivative):
    """L1's and L2's factors at the points w (1-D), ratios of a row at -i
    over the same row at +i, entire in w, as gamma cancels. L1: sinh(z a),
    z = rho + c(+-) = -i (w +- i), with derivative -i a cosh(z a), so f =
    gamma S(rho + c(-))/S(rho + c(+)) for S(z) = sinh(z a)/z. L2: by the
    reflection x -> -x, cosh(rho x) and sinh(rho x)/rho (rho^2 = -w) pair
    with the basis at sign * i as diag(e, o) [[1, 1], [1, -1]] / (w +- i),
    e = cosh(rho a) p + w S q and o = S r - cosh(rho a) t, S = sinh(rho a)/rho;
    as gamma (w + i)/(w - i) = 1, f = (e-/e+, o-/o+), and f' from the
    rows' derivatives (cosh(rho a)' = -(a/2) S, S' = -slope). The rows'
    common factor exp(-|Re rho| a) cancels."""
    a = model.a
    if model.rank == 1:
        z = -1j * w[:, None] + consts[:, 0]
        cosh, sinh = _cosh_sinh(z, a, np.abs(w.imag)[:, None] * a)
        rows, slopes = (z * sinh)[..., None], (-1j * a * cosh)[..., None]
    else:
        p, q, r, t = consts
        rho = (-1j * principal_power(w, 0.5))[:, None]
        cosh, sinh, *slope = _cosh_sinh(rho, a, np.abs(rho.real) * a, derivative)
        w = w[:, None]
        rows = np.stack([cosh * p + (w * sinh) * q, sinh * r - cosh * t], axis=-1)
        if derivative:
            slopes = np.stack([q * (sinh - w * slope[0]) - (0.5 * a) * sinh * p,
                               (0.5 * a) * sinh * t - slope[0] * r], axis=-1)
    out = [rows[:, 1] / rows[:, 0]]
    if derivative:
        out.append((slopes[:, 1] - out[0] * slopes[:, 0]) / rows[:, 0])
    return out


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
    behaviour: a matrix with |det| <= 1e-14 (max |a_ij|)^n counts as
    singular (the zero matrix and NaN included), and its result is NaN.
    Leading axes broadcast."""
    n = a.shape[-1]
    if n > 2:
        raise DimensionError(f"explicit solve covers n = 1, 2, got n = {n}")
    det = a[..., 0, 0] if n == 1 else (a[..., 0, 0] * a[..., 1, 1]
                                        - a[..., 0, 1] * a[..., 1, 0])
    scale = np.abs(a).max(axis=(-2, -1)) ** n
    # "not >" so that a NaN determinant and the zero matrix count as singular
    singular = ~(np.abs(det) > 1e-14 * scale)
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
    """B(w) = gamma(w) A(w,+)^{-1} A(w,-) on the closed upper half-plane,
    for a point or an array of points; shape w.shape + (n, n). With
    derivative, (B, B') at real w. The one entry to B, and the one place
    its domain is enforced: DomainError for a point with Im w < 0, then
    for B' off the axis, and, as each block takes gamma(w) first, from
    cplane.cayley for a point that is not finite, before any factor
    arithmetic. One assembly for every model: B = sum_k f_k O_k and
    B' = sum_k f_k' O_k, the factors from _cauchy (half-line) or
    _sinh_ratio (interval) and O from _frame. Entries that are not finite
    are NaN."""
    w = np.asarray(w, dtype=complex)
    if (w.imag < 0).any():
        raise DomainError("characteristic function is defined on the closed "
                          "upper half-plane")
    if derivative and (w.imag != 0).any():
        raise DomainError("B' is evaluated on the real axis only")
    consts, frame = _frame(model)
    factors = _cauchy if model.halfline else _sinh_ratio
    flat, n = w.reshape(-1), model.rank
    out = np.empty((1 + derivative, flat.size, n, n), dtype=complex)
    for start in range(0, flat.size, _BLOCK):
        pts = flat[start:start + _BLOCK]
        gamma = cayley(pts)
        with np.errstate(all="ignore"):
            f = np.stack(factors(model, pts, gamma, consts, derivative))
            block = _mul_small(f[..., None, :], frame.reshape(len(frame), -1))
        block[~np.isfinite(block)] = np.nan
        out[:, start:start + _BLOCK] = block.reshape(f.shape[:2] + (n, n))
    out = out.reshape(out.shape[:1] + w.shape + out.shape[2:])
    return (out[0], out[1]) if derivative else out[0]


def livsic_eval(model, w):
    """Characteristic function B(w) = gamma(w) A(w,+)^{-1} A(w,-) at a
    point or an array of finite points of the closed upper half-plane, by
    _continued_b (DomainError otherwise; real w gives the boundary value):
    an n x n ndarray for a point (also for n = 1), a stack of shape
    w.shape + (n, n) for an array, NaN where a factor's denominator vanishes."""
    return _continued_b(model, w)


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
        out = b(w, derivative)
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
