"""Independent cross-checks: quadrature inner products, direct eigenvalue
formulas, a finite-difference pencil, the boundary-limit ladder, and the
half-line bound-state probe.

Nothing in here reuses the closed-form inner products, the continuation of
B below the axis or the residue route; that is the point. quad_inner takes
exponential sums in the package's (coeffs, rates) form but sums them term
by term at each quadrature node. Agreement between these routines and the
analytic path is what the acceptance checks certify. The ladder takes
boundary values as limits from the upper half-plane: along vertical ladders
w_k = s + i eps_0 2^{-k}, accelerated by Richardson extrapolation in
half-integer powers of eps, which covers both analytic boundary behaviour
and the sqrt-type behaviour coming off a branch cut.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, RankError, ToleranceError

__all__ = [
    "nt_limit",
    "ladder_point_mass",
    "QuadratureSpec",
    "quad_inner",
    "l1_eigenvalues_direct",
    "l2_eigenvalues_fd",
    "fd_observed_order",
    "k1_bound_state_check",
]


# Ladder geometry: eps_k = _EPS0 2^{-k} for k = 0.._LEVELS, and at most
# _MAX_COLS columns in the Richardson table.
_EPS0 = 2.0 ** -4
_LEVELS = 30
_MAX_COLS = 12


def nt_limit(f, s, rtol=1e-8, atol=1e-12, full_output=False):
    """Non-tangential boundary limit of f at the real point s.

    Realized as the vertical approach w_k = s + i eps_k, eps_k = _EPS0 2^{-k},
    which lies inside every Stolz angle, and Richardson-extrapolated in the
    powers eps^(m/2), m = 1, 2, 3, ..., so the elimination ratios are
    beta_m = 2^(-m/2). Stops once the last two diagonal entries agree to
    atol + rtol * ||value||. The absolute floor matters: limits that are
    exactly zero never satisfy a purely relative test.

    f maps a complex point to a scalar or ndarray. With full_output=True
    returns (value, error_estimate, levels_used). Raises ConvergenceError
    when the ladder is exhausted before the diagonal settles.
    """
    s = float(s)
    prev_row = None
    best_err = np.inf
    for k in range(_LEVELS + 1):
        eps = _EPS0 * 2.0 ** (-k)
        val = np.asarray(f(s + 1j * eps), dtype=complex)
        if not np.all(np.isfinite(val)):
            raise ConvergenceError(
                f"ladder evaluation returned a non-finite value at eps = {eps:.3e}"
            )
        row = [val]
        if prev_row is not None:
            width = min(len(prev_row), _MAX_COLS - 1)
            for m in range(1, width + 1):
                beta = 2.0 ** (-m / 2.0)
                row.append((row[m - 1] - beta * prev_row[m - 1]) / (1.0 - beta))
            err = float(np.max(np.abs(row[-1] - row[-2])))
            best_err = min(best_err, err)
            tol = atol + rtol * float(np.max(np.abs(row[-1])))
            if err <= tol:
                out = row[-1] if row[-1].ndim else complex(row[-1])
                return (out, err, k) if full_output else out
        prev_row = row
    raise ConvergenceError(
        f"boundary limit did not settle within {_LEVELS} ladder levels "
        f"(best residual {best_err:.3e})"
    )


def ladder_point_mass(b, alpha, s):
    """Mass mu({s}) as the boundary limit
    (2i/(pi (1+s^2)^2)) lim (s - w) (I - B(w) alpha*)^{-1}, w -> s from
    above along the ladder of nt_limit, with LAPACK solves.

    b is any callable on the upper half-plane (a SchurFunction or a closed
    form). The reference for the residue route of clark.point_mass.
    """
    from .clark import check_alpha

    n = np.atleast_2d(np.asarray(alpha, dtype=complex)).shape[0]
    alpha = check_alpha(alpha, n)
    s = float(s)
    eye = np.eye(n)

    def f(w):
        m = eye - np.atleast_2d(b(w)) @ alpha.conj().T
        return (s - w) * np.linalg.solve(m, eye)

    lim = np.atleast_2d(nt_limit(f, s))
    mass = 2j / (np.pi * (1.0 + s * s) ** 2) * lim
    return 0.5 * (mass + mass.conj().T)


@dataclass(frozen=True)
class QuadratureSpec:
    """Error budget for quadrature comparisons.

    halfline_cutoff_digits sets the truncation point of half-line integrals:
    the slowest-decaying exponential is cut where it falls below
    10**-digits.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    halfline_cutoff_digits: float = 16.0


def _quad_complex(fun, lo, hi, spec):
    from scipy import integrate

    re, re_err = integrate.quad(lambda x: fun(x).real, lo, hi,
                                epsabs=spec.abs_tol * 0.1,
                                epsrel=spec.rel_tol * 0.1, limit=200)
    im, im_err = integrate.quad(lambda x: fun(x).imag, lo, hi,
                                epsabs=spec.abs_tol * 0.1,
                                epsrel=spec.rel_tol * 0.1, limit=200)
    return complex(re, im), re_err + im_err


def _terms(f):
    """The nonzero terms (c, r) of a (coeffs, rates) pair, as Python
    complex numbers."""
    coeffs, rates = f
    return [(complex(c), complex(r)) for c, r in zip(np.ravel(coeffs),
                                                     np.ravel(rates)) if c != 0]


def quad_inner(model, f, g, spec=None):
    """<f, g> on the model's domain by adaptive quadrature.

    f and g are (coeffs, rates) pairs of one function each, summed term by
    term at each node; the integrand is f(x) conj(g(x)). DomainError for a
    rate that does not decay on the half-line. ToleranceError when the
    estimated total error (quadrature plus half-line truncation) exceeds
    the requested budget.
    """
    if spec is None:
        spec = QuadratureSpec()
    tf, tg = _terms(f), _terms(g)
    integrand = lambda x: (sum(c * cmath.exp(r * x) for c, r in tf)
                           * sum(c * cmath.exp(r * x) for c, r in tg).conjugate())
    if not model.halfline:
        value, err = _quad_complex(integrand, -model.a, model.a, spec)
        tail = 0.0
    else:
        if any(r.real >= 0 for _, r in tf + tg):
            raise DomainError("half-line exponential sum has a non-decaying rate")
        decay = min(-r.real for _, r in tf) + min(-r.real for _, r in tg)
        cutoff = spec.halfline_cutoff_digits * math.log(10.0) / decay
        value, err = _quad_complex(integrand, 0.0, cutoff, spec)
        amp = sum(abs(c) for c, _ in tf) * sum(abs(c) for c, _ in tg)
        tail = amp * math.exp(-decay * cutoff) / decay
    budget = spec.abs_tol + spec.rel_tol * abs(value)
    if err + tail > budget:
        raise ToleranceError(
            f"quadrature error estimate {err + tail:.3e} exceeds budget {budget:.3e}"
        )
    return value


def l1_eigenvalues_direct(beta, a, n_range):
    """Eigenvalues of i d/dx under f(a) = beta f(-a), computed directly, for
    the indices n in the closed range n_range = (lo, hi).

    The eigenfunction exp(-i s x) satisfies the condition iff
    exp(-2 i s a) = beta, so s_n = -(arg beta + 2 pi n)/(2a).
    """
    beta = complex(beta)
    if abs(abs(beta) - 1.0) > 1e-10:
        raise DomainError(f"coupling must be unimodular, |beta| = {abs(beta):.6f}")
    a = float(a)
    if a <= 0:
        raise DomainError("interval half-length must be positive")
    theta = cmath.phase(beta)
    lo, hi = n_range
    return sorted(-(theta + 2.0 * math.pi * n) / (2.0 * a)
                  for n in range(int(lo), int(hi) + 1))


def _fd_pencil(bm, a, npts):
    """Second-order pencil for -y'' = s y with the bm boundary rows.

    Returns sparse CSC matrices (A, B): the three-point stencil on the
    interior rows of A and B = I there; rows 0 and npts - 1 of A hold the
    two boundary conditions and those rows of B are zero.
    """
    from scipy import sparse

    h = 2.0 * a / (npts - 1)
    main = np.full(npts, 2.0 / h ** 2)
    lower = np.full(npts - 1, -1.0 / h ** 2)
    upper = lower.copy()
    main[[0, -1]] = lower[-1] = upper[0] = 0.0
    stencil = sparse.diags([lower, main, upper], [-1, 0, 1], dtype=complex)
    # one-sided second-order endpoint derivatives
    dl = np.zeros(npts, dtype=complex)
    dl[0], dl[1], dl[2] = -3.0 / (2 * h), 4.0 / (2 * h), -1.0 / (2 * h)
    dr = np.zeros(npts, dtype=complex)
    dr[-1], dr[-2], dr[-3] = 3.0 / (2 * h), -4.0 / (2 * h), 1.0 / (2 * h)
    edge = np.zeros((2, npts), dtype=complex)
    for row in (0, 1):
        edge[row, 0] += bm.beta_a[row, 0]
        edge[row] += bm.beta_a[row, 1] * dl
        edge[row, -1] += bm.beta_b[row, 0]
        edge[row] += bm.beta_b[row, 1] * dr
    rows, cols = np.nonzero(edge)
    slots = np.array([0, npts - 1])[rows]
    boundary = sparse.csc_matrix((edge[rows, cols], (slots, cols)),
                                 shape=(npts, npts))
    amat = (stencil + boundary).tocsc()
    bdiag = np.ones(npts, dtype=complex)
    bdiag[[0, -1]] = 0.0
    bmat = sparse.diags(bdiag, format="csc")
    return amat, bmat


def _shift_lu(amat, bmat, sigma, nudge):
    """Sparse LU of A - sigma B; one retry at sigma + nudge when the first
    factor is exactly singular (sigma on an eigenvalue)."""
    from scipy.sparse.linalg import splu

    for shift in (sigma, sigma + nudge):
        try:
            return shift, splu((amat - shift * bmat).tocsc())
        except RuntimeError as exc:   # SuperLU: "Factor is exactly singular"
            if "singular" not in str(exc):
                raise
    raise ConvergenceError(f"A - sigma B is singular at sigma = {sigma:.6g} "
                           f"and at sigma = {sigma + nudge:.6g}")


def _fd_raw(bm, a, npts, window):
    """Real pencil eigenvalues in window, by shift-invert Arnoldi.

    ARPACK finds the k largest mu of (A - sigma B)^-1 B, i.e. the k
    eigenvalues lambda = sigma + 1/mu nearest sigma (mu = 0 are the two
    infinite ones). k doubles until the farthest one found lies beyond
    both window edges, so none in the window is missed.
    """
    from scipy.sparse.linalg import (ArpackNoConvergence, LinearOperator,
                                     eigs)

    amat, bmat = _fd_pencil(bm, a, npts)
    lo, hi = window
    sigma, lu = _shift_lu(amat, bmat, 0.5 * (lo + hi),
                          1e-2 * max(hi - lo, 1.0))
    reach = max(hi - sigma, sigma - lo)
    op = LinearOperator((npts, npts), matvec=lambda x: lu.solve(bmat @ x),
                        dtype=complex)
    # fixed seed, so results repeat exactly; a random start, unlike all
    # ones, has a component along the antisymmetric modes too
    rng = np.random.default_rng(0)
    v0 = rng.standard_normal(npts) + 1j * rng.standard_normal(npts)
    k = min(16, npts - 2)
    while True:
        try:
            mu = eigs(op, k, which="LM", v0=v0, return_eigenvectors=False)
        except ArpackNoConvergence as exc:
            raise ConvergenceError(
                f"ARPACK did not converge for k = {k} on {npts} nodes") from exc
        mu = mu[mu != 0]
        vals = sigma + 1.0 / mu
        if len(mu) < k or k == npts - 2 or np.max(np.abs(vals - sigma)) > reach:
            break
        k = min(2 * k, npts - 2)
    out = []
    for v in vals:
        if not np.isfinite(v):
            continue
        if abs(v.imag) > 1e-6 * max(1.0, abs(v.real)):
            continue
        if lo <= v.real <= hi:
            out.append(v.real)
    return sorted(out)


def _pair_nearest(coarse, fine):
    """Match each fine eigenvalue to its nearest coarse partner, if close."""
    pairs = []
    coarse = list(coarse)
    for v in fine:
        if not coarse:
            pairs.append((None, v))
            continue
        j = int(np.argmin([abs(c - v) for c in coarse]))
        if abs(coarse[j] - v) < 0.1 * (1.0 + abs(v)):
            pairs.append((coarse.pop(j), v))
        else:
            pairs.append((None, v))
    return pairs


def l2_eigenvalues_fd(bm, a, window, grid_points=300):
    """Interval eigenvalues of -d^2/dx^2 under bm, finite differences.

    Runs the second-order pencil on grid_points and 2*grid_points - 1 nodes
    (exact mesh halving) and Richardson-extrapolates matched eigenvalues,
    (4 v_fine - v_coarse)/3. Multiple eigenvalues appear with multiplicity.
    RankError when bm fails the self-adjointness validation; grid_points
    must be at least 200 for the error model to hold. ConvergenceError when
    the sparse shift-invert eigen-solve fails.
    """
    from .extensions import validate_sa_matrices

    if grid_points < 200:
        raise DomainError(f"grid_points = {grid_points} below the supported minimum 200")
    if not validate_sa_matrices(bm):
        raise RankError("boundary matrices do not define a self-adjoint problem")
    a = float(a)
    pad = 0.05 * (window[1] - window[0]) + 1.0
    wide = (window[0] - pad, window[1] + pad)
    coarse = _fd_raw(bm, a, grid_points, wide)
    fine = _fd_raw(bm, a, 2 * grid_points - 1, wide)
    out = []
    for c, f in _pair_nearest(coarse, fine):
        v = f if c is None else (4.0 * f - c) / 3.0
        if window[0] <= v <= window[1]:
            out.append(v)
    return sorted(out)


def fd_observed_order(bm, a, window, grid_points=200):
    """Median convergence order across three nested meshes.

    Pairs raw eigenvalues on n, 2n-1, 4n-3 nodes and returns the median of
    log2((v_n - v_2n)/(v_2n - v_4n)); a healthy second-order scheme sits
    near 2.
    """
    lists = [_fd_raw(bm, float(a), m, window)
             for m in (grid_points, 2 * grid_points - 1, 4 * grid_points - 3)]
    orders = []
    for v2 in lists[1]:
        close = 0.1 * (1.0 + abs(v2))
        v1 = min(lists[0], key=lambda x: abs(x - v2), default=None)
        v3 = min(lists[2], key=lambda x: abs(x - v2), default=None)
        if v1 is None or v3 is None:
            continue
        if abs(v1 - v2) > close or abs(v3 - v2) > close:
            continue
        num, den = abs(v1 - v2), abs(v2 - v3)
        if den > 1e-13 and num > 1e-13:
            orders.append(math.log2(num / den))
    if not orders:
        raise RankError("no matched eigenvalue triples in the window")
    return float(np.median(orders))


def k1_bound_state_check(b, c):
    """Bound state of the half-line Robin condition b f(0) + c f'(0) = 0.

    The decaying solution exp(-sigma x) satisfies the condition iff
    sigma = b/c > 0, giving a negative eigenvalue at -sigma^2. Returns
    (location, weight) with the weight the ladder mass (ladder_point_mass)
    of the closed-form K1 function at the mapped parameter, or None when no
    bound state exists.
    """
    from .extensions import alpha_from_bc_k1
    from .models import k1_livsic

    alpha = alpha_from_bc_k1(b, c)   # also validates admissibility
    b, c = complex(b), complex(c)
    if abs(c) < 1e-14 * max(abs(b), 1.0):
        return None                   # Dirichlet ray: no decaying solution
    sigma = b / c
    if abs(sigma.imag) > 1e-10 * (1.0 + abs(sigma)):
        raise DomainError("Robin ratio is not real")
    sigma = sigma.real
    if sigma <= 0:
        return None
    location = -sigma * sigma
    mass = ladder_point_mass(k1_livsic, alpha, location)
    return location, float(np.real(mass[0, 0]))
