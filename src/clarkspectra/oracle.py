"""Independent cross-checks by quadrature and by direct methods from
ordinary differential equations, with no closed-form inner product and no B
or B'; the acceptance checks certify their agreement with the analytic
path. quad_inner integrates (coeffs, rates) sums on Gauss-Legendre panels.
eigen_mass and eigen_density solve the coupling's boundary condition at s
for the (generalized) eigenfunction and project the defect basis on it.
l2_eigenvalues takes the roots of the interval's boundary determinant."""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np

from .cplane import check_unitary
from .defect import defect_onb
from .errors import DomainError, RankError, ToleranceError
from .extensions import (BoundaryMatrices, _defect_rows, alpha_from_bc_regular,
                         boundary_rows, validate_sa_matrices)
from .models import k1

__all__ = ["quad_inner", "eigen_mass", "eigen_density",
           "l1_eigenvalues_direct", "l2_eigenvalues", "k1_bound_state_check"]


# Error budget of quad_inner, absolute plus relative per entry; half-line
# integrals end where the integrand has decayed by _CUTOFF_DIGITS digits.
_ABS_TOL = 1e-10
_REL_TOL = 1e-10
_CUTOFF_DIGITS = 16.0


@lru_cache(maxsize=1)
def _rules():
    """Gauss-Legendre rules of 16 nodes and, for the error estimate, 8
    (exact to rounding on panels 2/z wide); numpy.polynomial loads here."""
    return [np.polynomial.legendre.leggauss(m) for m in (16, 8)]


# At most _MAX_PANELS panels, summed in blocks of _BLOCK_PANELS (512 nodes
# of the 16-node rule, the size of livsic._BLOCK), so that the exponentials
# at the nodes take memory bounded by the block, not by the panel count
_MAX_PANELS = 10 ** 4
_BLOCK_PANELS = 32


def _terms(f):
    """(coeffs, rates) as a (k, m) stack over the m rates, without the rates
    whose coefficients are zero in every row; the shape of the stack's
    leading axes, () for one function."""
    rates = np.ravel(np.asarray(f[1], dtype=complex))
    coeffs = np.asarray(f[0], dtype=complex)
    lead = coeffs.shape[:-1]
    coeffs = coeffs.reshape(-1, rates.size)
    used = np.any(coeffs != 0, axis=0)
    return coeffs[:, used], rates[used], lead


def quad_inner(model, f, g):
    """<f, g> on the model's domain by Gauss-Legendre panels.

    f and g are (coeffs, rates) pairs: coeffs (m,) for one function, or a
    stack (k, m) of k functions over the same m rates, summed term by term
    at each node. The result is one complex for two functions and else the
    array of shape f-stack + g-stack of all the inner products, from one
    set of panels: their count and the half-line cutoff come from the
    union of the rates with a nonzero coefficient, which needs at least as
    many panels as any one pair; they are summed in blocks of
    _BLOCK_PANELS, so the temporaries do not grow with their count. On the
    half-line a rate may be bounded (Re r = 0) when the product decays; a
    growing rate or a product that does not decay is a DomainError.
    ToleranceError when the error estimate of any entry (16 against 8
    nodes, plus the tail at the union's decay) exceeds that entry's budget,
    _ABS_TOL + _REL_TOL |entry|, or for more than _MAX_PANELS panels."""
    (fc, fr, f_lead), (gc, gr, g_lead) = _terms(f), _terms(g)
    shape = f_lead + g_lead
    if fr.size == 0 or gr.size == 0:
        return np.zeros(shape, dtype=complex) if shape else 0j
    if not model.halfline:
        lo, hi, tail = -model.a, model.a, 0.0
    else:
        decay = -np.max(fr.real) - np.max(gr.real)
        if np.any(fr.real > 0) or np.any(gr.real > 0) or not decay > 0:
            raise DomainError("half-line integrand grows or does not decay")
        lo, hi = 0.0, _CUTOFF_DIGITS * math.log(10.0) / decay
        tail = (np.outer(np.sum(np.abs(fc), axis=1), np.sum(np.abs(gc), axis=1))
                * math.exp(-decay * hi) / decay)
    panels = math.ceil((hi - lo) * (np.max(np.abs(fr)) + np.max(np.abs(gr))) / 2)
    if panels > _MAX_PANELS:
        raise ToleranceError(f"integrand needs {panels} > {_MAX_PANELS} panels")
    edges = np.linspace(lo, hi, max(panels, 1) + 1)
    left, half = edges[:-1, None], 0.5 * np.diff(edges)[:, None]
    # identity coefficients (plain exponentials) skip their product
    sides = [(None if np.array_equal(c, np.eye(len(c))) else c, r)
             for c, r in ((fc, fr), (gc, gr))]

    def rule(nodes, weights):
        total = 0.0
        for k in range(0, left.size, _BLOCK_PANELS):
            h = half[k:k + _BLOCK_PANELS]
            x = (left[k:k + _BLOCK_PANELS] + h * (1.0 + nodes)).ravel()
            at_f, at_g = (np.exp(np.outer(r, x)) if c is None
                          else c @ np.exp(np.outer(r, x)) for c, r in sides)
            total += ((h * weights).ravel() * at_f) @ at_g.conj().T
        return total
    value, coarse = (rule(*r) for r in _rules())
    err = np.abs(value - coarse) + tail
    budget = _ABS_TOL + _REL_TOL * np.abs(value)
    over = err > budget
    if np.any(over):
        raise ToleranceError(f"error estimate {err[over][0]:.3e} over budget "
                             f"{budget[over][0]:.3e}")
    value = value.reshape(shape)
    return value if shape else complex(value)


def _boundary_system(model, alpha, s):
    """(rates, S) at the real point s, or a stack of them at an array of
    points: the rates of the solutions exp(rate x) in the model's space
    (Model.raw_rates), and S, the boundary rows of these and then of the
    generators -phi_i(+i) + sum_j alpha_ij phi_j(-i). A solution is in the
    domain when its row is in their span."""
    alpha = check_unitary(alpha, model.rank, "perturbation parameter")
    s = np.asarray(s, dtype=float)
    rates = model.raw_rates(s)
    ordered = np.sort(rates, axis=-1)
    meet = np.any(ordered[..., 1:] == ordered[..., :-1], axis=-1)
    if np.any(meet):
        raise DomainError(f"solution rates coincide at s = {float(s[meet][0])!r}")
    minus, plus = _defect_rows(model)
    rows = boundary_rows(model, (np.eye(rates.size), rates.ravel()))
    rows = rows.reshape(rates.shape + rows.shape[-1:])
    gen = np.broadcast_to(alpha @ minus - plus, s.shape + plus.shape)
    return rates, np.concatenate([rows, gen], axis=-2)


_NULL_TOL = 1e-8


def eigen_mass(model, alpha, s):
    """Mass mu({s}) of the alpha measure at an eigenvalue s: with the
    eigenfunctions u_l from the null vectors of the transposed boundary
    system (the smallest singular direction, and any below _NULL_TOL),
    pi (1 + s^2) mu({s}) = V G^{-1} V*, V[j, l] = <phi_j(+i), u_l>,
    G[l, m] = <u_l, u_m>, both from one quad_inner call of the stack of
    the phi_j(+i) and the u_l against the u_l; v v* / ||u||^2 for a simple
    one. DomainError for s >= 0 on the half-line and where rates
    coincide."""
    s = float(s)
    if model.halfline and not s < 0:
        raise DomainError(f"half-line eigenvalues lie below 0, got s = {s!r}")
    rates, system = _boundary_system(model, alpha, s)
    _, sv, vh = np.linalg.svd(system.T)
    null = max(1, int(np.sum(sv <= _NULL_TOL * sv[0])))
    # unit coefficient rows: the scale of u cancels in V G^{-1} V*, and a
    # far K1 Robin atom's row of order 1/sigma would underflow G
    coeffs = vh[-null:, :rates.size].conj()
    coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)
    phi, phi_rates = defect_onb(model, "+")
    n = model.rank
    stack = np.zeros((n + null, phi_rates.size + rates.size), dtype=complex)
    stack[:n, :phi_rates.size], stack[n:, phi_rates.size:] = phi, coeffs
    both = quad_inner(model, (stack, np.concatenate([phi_rates, rates])),
                      (coeffs, rates))
    v = both[:n]
    mass = (v @ np.linalg.solve(both[n:], v.conj().T)
            / (np.pi * (1.0 + s * s)))
    return 0.5 * (mass + mass.conj().T)


def eigen_density(model, alpha, s):
    """Density of the alpha measure at s > 0 on a half-line model, at a
    point or at each point of a 1-D array (shape s.shape + (rank, rank)):
    rho = v v* (dk/ds) / (2 pi), v_j = <phi_j(+i), psi> by quad_inner, for
    psi = exp(-ikx) + R exp(ikx) (+ D exp(-kx) on K2), k = s^(1/order),
    the outgoing rates Model.raw_rates(s) and R, D from the boundary
    system. The psi of all the points are one stack in block coefficient
    rows over the union of their rates, and one quad_inner call pairs it
    with the basis. With the atoms pi (1 + s^2) mu({s}) it makes up the
    spectral measure of the defect basis. DomainError elsewhere, for a
    point <= 0 anywhere in the array and for an empty one."""
    s = np.asarray(s, dtype=float)
    if not (model.halfline and s.ndim <= 1 and s.size and np.all(s > 0)):
        raise DomainError(f"no density of {model.name} at s = {s.tolist()!r}")
    points = np.atleast_1d(s)
    rates, system = _boundary_system(model, alpha, points)
    k = points ** (1.0 / model.order)
    incoming = -1j * k
    sol = np.linalg.solve(np.swapaxes(system, -1, -2), -boundary_rows(
        model, (np.eye(k.size), incoming))[..., None])[..., 0]
    m, r = rates.shape
    coeffs = np.zeros((m, m, r + 1), dtype=complex)
    coeffs[np.arange(m), np.arange(m)] = np.c_[np.ones(m), sol[:, :r]]
    psi = (coeffs.reshape(m, -1), np.c_[incoming, rates].ravel())
    v = quad_inner(model, defect_onb(model, "+"), psi).T
    rho = (v[:, :, None] * v[:, None, :].conj() * k[:, None, None]
           / (model.order * points * 2.0 * np.pi)[:, None, None])
    return rho.reshape(s.shape + rho.shape[1:])


def l1_eigenvalues_direct(beta, a, n_range):
    """Eigenvalues s_n = -(arg beta + 2 pi n)/(2a) of i d/dx under
    f(a) = beta f(-a), where exp(-2 i s a) = beta, for n in the closed
    range n_range."""
    beta = complex(check_unitary(beta, 1, "coupling beta")[0, 0])
    a = float(a)
    if not a > 0:
        raise DomainError(f"interval half-length must be positive, got {a!r}")
    return sorted(-(cmath.phase(beta) + 2.0 * math.pi * n) / (2.0 * a)
                  for n in range(int(n_range[0]), int(n_range[1]) + 1))


def _far(a, s):
    """Where 2a sqrt(-s) >= 1: below the axis, far enough from 0 that the
    exponential basis of _interval_matrix is well conditioned."""
    return 4.0 * a * a * -np.asarray(s, dtype=float) >= 1.0


def _matrices(p, q, r, t):
    """The 2 x 2 matrices [[p, q], [r, t]] from arrays of one shape."""
    return np.stack([p, q, r, t], -1).reshape(np.shape(p) + (2, 2))


def _interval_matrix(bm, a, s, far=None):
    """(X, L, R, factor) at the points s for -y'' = s y on (-a, a):
    X = beta_a L + beta_b R, where L and R map the coefficients of a basis
    of solutions to (y, y') at -a and at a, and factor makes det X * factor
    = det M(s) e^{-2a kappa}, kappa = sqrt(max(-s, 0)), a positive multiple
    of det M. M = beta_a + beta_b Phi is X in the entire
    basis {cos kt, sin(kt)/k} from -a (L = I, R = Phi). Below the axis its
    entries grow like e^{2a kappa} and det M only like their square root,
    so where far (default _far) X is N in the basis
    {e^{kappa(x-a)}, e^{-kappa(x+a)}}, whose entries stay of order one, and
    det N = -2 kappa e^{-2a kappa} det M."""
    s = np.asarray(s, dtype=float)
    far = _far(a, s) if far is None else far
    t = 2.0 * a
    k = np.sqrt(s.astype(complex))
    c, sk = np.cos(k * t), t * np.sinc(k * t / np.pi)
    kappa = np.sqrt(np.maximum(-s, 0.0))
    e = np.exp(-t * kappa)
    one = np.ones_like(e)
    each = far[..., None, None]
    left = np.where(each, _matrices(e, one, kappa * e, -kappa), np.eye(2))
    right = np.where(each, _matrices(one, e, kappa, -kappa * e),
                     _matrices(c, sk, -k * k * sk, c))
    with np.errstate(divide="ignore"):
        factor = np.where(far, -0.5 / kappa, e)
    return bm.beta_a @ left + bm.beta_b @ right, left, right, factor


def _bisect(fn, lo, hi, zero):
    """Roots of the real, vectorized fn in brackets lo < hi where fn(lo)
    is zero or of the other sign than fn(hi), by Illinois regula falsi
    (Dowell and Jarratt, BIT 11, 1971) on all brackets at once. Each step
    takes the secant point of the bracket, moved to the nearest float
    strictly inside, or the midpoint where there is none or where the last
    two steps have not halved the bracket; the point replaces lo where fn
    there has fn(lo)'s sign and hi otherwise, as in bisection, so a bracket
    around a lone sign change ends on the same two adjacent floats. An end
    kept for a second step running has its value halved for the secant.
    The search stops when no bracket moves (adjacent floats) but those
    with both ends within zero of 0, where the floats grow ever finer and
    the root is the bracket's point nearest 0; at most 100 steps."""
    if not lo.size:
        return lo
    flo = wlo = fn(lo)
    whi = fn(hi)
    # the last step's replaced end (-1 lo, 1 hi) and the last two widths
    last, widths = np.zeros(lo.shape), (hi - lo, hi - lo)
    halve = np.zeros(lo.shape, dtype=bool)
    for _ in range(100):
        with np.errstate(all="ignore"):
            x = np.clip(lo + (hi - lo) * (wlo / (wlo - whi)),
                        np.nextafter(lo, hi), np.nextafter(hi, lo))
        x = np.where(halve | ~((lo < x) & (x < hi)), 0.5 * (lo + hi), x)
        fx = fn(x)
        left = fx * flo > 0
        new_lo, new_hi = np.where(left, x, lo), np.where(left, hi, x)
        moved = (new_lo != lo) | (new_hi != hi)
        halve = new_hi - new_lo > 0.5 * widths[0]
        widths = (widths[1], new_hi - new_lo)
        wlo = np.where(left, fx, np.where(last == 1, 0.5 * wlo, wlo))
        whi = np.where(left, np.where(last == -1, 0.5 * whi, whi), fx)
        lo, flo, hi = new_lo, np.where(left, fx, flo), new_hi
        last = np.where(left, -1.0, 1.0)
        at_zero = (np.abs(lo) <= zero) & (np.abs(hi) <= zero)
        if not np.any(moved & ~at_zero):
            break
    return np.where(at_zero, np.clip(0.0, lo, hi), lo)


# Grid cells per pi/(2a) in sqrt(s), the Dirichlet spacing, and at least
# _PER_UNIT per unit of sqrt(s), so that on a short interval two roots near
# s = 0 do not share a cell; the bound on 2a sqrt(-s) that keeps cosh
# finite; the relative rank floor of M.
_CELLS = 16
_PER_UNIT = 8
_MAX_KT = 600.0
_RANK_TOL = 1e-8


def l2_eigenvalues(bm, a, window):
    """Eigenvalues of -d^2/dx^2 on (-a, a) under beta_a (y, y')(-a) +
    beta_b (y, y')(a) = 0 in the window, sorted, repeated by multiplicity:
    the roots of det M(s), real up to a constant phase for self-adjoint
    conditions. A grid uniform in sign(s) sqrt|s|, cells at most
    pi/(2a _CELLS) and 1/_PER_UNIT wide and a cell wider than the window
    each side, brackets its sign changes. A local minimum of |det M|
    without one may be a double root, where M vanishes (periodic
    conditions): the zero of the entry of M that varies most across it. A
    root counts 2 - rank M, the rank taken against |beta_a| + |beta_b|
    |Phi|, not |M|; a minimum with no zero ends at a grid point of full
    rank. Where 2a sqrt(-s) >= 1 the determinant, the entries and the rank
    come from the system N of _interval_matrix instead (the rank against
    |beta_a| |L| + |beta_b| |R|), whose entries stay of order one where
    those of M grow like e^{2a sqrt(-s)}; the bracketed function is
    det M e^{-2a sqrt(max(-s, 0))} throughout, with no sign flip at 0.
    RankError when bm is not self-adjoint;
    DomainError for a window not finite with lo < hi or below
    -(_MAX_KT / 2a)^2."""
    if not validate_sa_matrices(bm):
        raise RankError("boundary matrices do not define a self-adjoint problem")
    a, lo, hi = float(a), float(window[0]), float(window[1])
    if not (a > 0 and -(_MAX_KT / (2.0 * a)) ** 2 <= lo < hi < math.inf):
        raise DomainError(f"need a > 0 and lo < hi finite, lo >= -({_MAX_KT}"
                          f" / 2a)^2, got a = {a!r}, window {window!r}")
    ends = np.sign([lo, hi]) * np.sqrt(np.abs([lo, hi]))
    width = np.diff(ends)[0]
    h = width / math.ceil(width * max(2 * a * _CELLS / np.pi, _PER_UNIT))
    u = np.arange(ends[0] - h, ends[1] + 1.5 * h, h)
    grid = np.sign(u) * u * u

    def det(s):
        x, _, _, factor = _interval_matrix(bm, a, s)
        return np.linalg.det(x) * factor
    dets = det(grid)
    phase = np.conj(dets[np.argmax(np.abs(dets))])
    real = lambda s: (det(s) * phase).real
    f = real(grid)
    change = (f[:-1] == 0) | (f[:-1] * f[1:] < 0)
    mins = ((np.abs(f[1:-1]) < np.abs(f[:-2])) & (np.abs(f[1:-1]) <= np.abs(f[2:]))
            & (f[:-2] * f[1:-1] > 0) & (f[1:-1] * f[2:] > 0))
    left, right = grid[:-2][mins], grid[2:][mins]
    # one basis across each bracket, so that its entries are continuous
    far = _far(a, grid[1:-1][mins])
    flat = lambda s: _interval_matrix(bm, a, s, far)[0].reshape(-1, 4)
    step = flat(right) - flat(left)
    pick = (np.arange(left.size), np.argmax(np.abs(step), axis=1))
    entry = lambda s: (flat(s)[pick] * np.conj(step[pick])).real
    zero = np.finfo(float).eps * max(1.0, abs(lo), abs(hi))
    roots = np.concatenate([
        _bisect(real, grid[:-1][change], grid[1:][change], zero),
        _bisect(entry, left, right, zero)])
    mats, left, right, _ = _interval_matrix(bm, a, roots)
    norm = lambda m: np.linalg.norm(m, 2, axis=(-2, -1))
    scale = norm(bm.beta_a) * norm(left) + norm(bm.beta_b) * norm(right)
    mult = 2 - np.linalg.matrix_rank(mats, tol=_RANK_TOL * scale)
    inside = (roots >= lo) & (roots <= hi)
    return sorted(np.repeat(roots[inside], mult[inside]).tolist())


def k1_bound_state_check(b, c):
    """(location, weight) of the bound state of the K1 Robin condition
    b f(0) + c f'(0) = 0, or None: exp(-sigma x) meets it iff
    sigma = b/c > 0 (c = 0 is Dirichlet, with none), at -sigma^2, and the
    weight is its eigen_mass. DomainError when b/c is not real or -sigma^2
    is not a finite float; the empty ray (0, 0) is the generic map's
    RankError."""
    sigma = complex(b / c) if c != 0 else 0j
    if abs(sigma.imag) > 1e-10 * (1.0 + abs(sigma)):
        raise DomainError("Robin ratio is not real")
    model = k1()
    alpha = alpha_from_bc_regular(
        model, BoundaryMatrices([[b, c]], np.empty((1, 0))))
    if sigma.real <= 0:
        return None
    location = -sigma.real * sigma.real
    if not math.isfinite(location):
        raise DomainError(f"bound state -sigma^2 of sigma = {sigma.real!r} "
                          f"is not a finite float")
    return location, float(eigen_mass(model, alpha, location)[0, 0].real)
