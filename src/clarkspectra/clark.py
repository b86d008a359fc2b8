"""Matrix spectral measures of rank-n unitary perturbations.

Given the characteristic Schur function B of a model and a unitary parameter
alpha, the associated spectral measure splits into an absolutely continuous
part with matrix density

    rho(s) = (alpha* - B(s)*)^{-1} (I - B(s)* B(s)) (alpha - B(s))^{-1} / (pi (1+s^2))
           = Re[(alpha + B(s)) (alpha - B(s))^{-1}] / (pi (1+s^2)),

Re M = (M + M*)/2; the forms agree for unitary alpha, and the second (the
matrix Herglotz function of the measure) is one solve. The density is a
boundary value: every model's B continues from the upper half-plane onto
the real axis, so B(s) is one evaluation, and off the model's essential
spectrum (where B(s) is unitary) the density is exactly zero. A grid of
points is one array evaluation of B.

The point mass is a boundary value too: at an atom s, U = B(s) alpha* is
unitary with eigenvalue 1, and Clark's angular-derivative formula (D. N.
Clark, J. Analyse Math. 25, 1972; Cima, Matheson and Ross, The Cauchy
Transform, AMS 2006) in matrix form reads

    mu({s}) = 2/(pi (1+s^2)^2) P (P* H P)^{-1} P*,   H = -i U'(s) U(s)*,

P an orthonormal basis of U's eigenspace for 1; B' comes with B from one
evaluation. The velocities of U's eigenphases are Rayleigh quotients of H.

The atom scan counts the atoms in each cell of a grid exactly from B at its
two ends, since the eigenphases of the unitary B(s) alpha* increase with s
(matrix Herglotz functions: Gesztesy and Tsekanovskii, Math. Nachr. 218,
2000), and Newton steps on the eigenphases place them.

The 1 x 1 and 2 x 2 kernels _mul_small, _solve_small (whose singularity
test ac_density's refusal rests on) and _eigenvalues_small are broadcast
arithmetic on stacks, not calls into LAPACK.
"""

from __future__ import annotations

import math

import numpy as np

from .cplane import check_unitary
from .errors import ConvergenceError, DimensionError, DomainError, SingularError
from .livsic import conjugated_schur, transform_alpha

__all__ = [
    "ac_density",
    "point_mass",
    "atom_scan",
    "conjugation_check",
]


def _points(s, what):
    """s as a float array, DomainError when a point is not finite."""
    s = np.asarray(s, dtype=float)
    if not np.all(np.isfinite(s)):
        raise DomainError(f"{what} must be finite, got {s!r}")
    return s


def _hermitize(m):
    return 0.5 * (m + np.swapaxes(m, -1, -2).conj())


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


def ac_density(b, alpha, s):
    """Absolutely continuous density matrix of the (B, alpha) measure at s.

    b is a SchurFunction, s a point or an array of points; the result is
    an n x n matrix or a stack of shape s.shape + (n, n). alpha is
    validated once, n x n for n = b.n. The points with s > b.ac_edge are
    evaluated in one call of b, and the Hermitian part of
    (alpha + B)(alpha - B)^{-1} is formed there; the others get an exact
    zero matrix. SingularError when B is NaN, or alpha - B(s) is singular
    (to rounding) at a point of the essential spectrum."""
    alpha = check_unitary(alpha, b.n, "perturbation parameter")
    s = _points(s, "density point")
    out = np.zeros(s.shape + alpha.shape, dtype=complex)
    on = s > b.ac_edge
    if np.any(on):
        pts = s[on]
        bval = np.swapaxes(np.asarray(b(pts)).reshape((-1,) + alpha.shape), -1, -2)
        # (alpha + B)(alpha - B)^{-1} as one solve on the transposes; NaN
        # where alpha - B is singular (an atom, not an AC point), and past
        # 2e14 where it is singular to rounding at the unit scale of alpha
        # and B (|alpha + B| <= 2), which its own scale does not show
        rho = np.swapaxes(_solve_small(alpha.T - bval, alpha.T + bval), -1, -2)
        bad = ~(1e-14 * np.abs(rho).max(axis=(-2, -1)) < 2.0)
        if np.any(bad):
            raise SingularError(f"density undefined at s = {float(pts[bad][0])!r}: "
                                "B(s) or (alpha - B(s))^-1 is singular")
        with np.errstate(over="ignore"):  # 1 + s^2 is inf beyond 1.3e154
            out[on] = _hermitize(rho) / (np.pi * (1.0 + pts * pts))[:, None, None]
    return out


# A point is at a zero of an eigenphase theta_j of B(s) alpha* when its
# Newton step |theta_j / theta_j'| is within _OFFSET_TOL _scale(s): point
# masses, Newton's acceptance, merged atoms and window ends use it.
_OFFSET_TOL = 1e-8


def _scale(s, edge):
    """min(1 + |s|, edge - s): next to a cut, the distance to it."""
    return np.minimum(1.0 + np.abs(s), edge - s)


def _evaluate(b, alpha, s):
    """(U, U', H) at the points s from one call of b: U = B(s) alpha* and
    H = -i U' U*, positive definite on the axis below ac_edge."""
    bval, dval = b(s, derivative=True)
    a = alpha.conj().T
    u, du = _mul_small(bval, a), _mul_small(dval, a)
    return u, du, _hermitize(-1j * _mul_small(du, np.swapaxes(u, -1, -2).conj()))


def _eigen(u, h):
    """(lam, vel, x): U's eigenvalues, eigenvectors x (a column of
    U - lam_k I, lam_k the other eigenvalue; e_j where U is scalar) and
    phase velocities x* H x / x* x, Rayleigh quotients of H, so positive
    wherever H is, however close the eigenvalues."""
    lam = _eigenvalues_small(u)
    if lam.shape[-1] == 1:
        return lam, h[..., 0, :].real, np.ones_like(lam)[..., None]
    cols = u[..., None, :, :] - lam[..., ::-1, None, None] * np.eye(2)
    size = (np.abs(cols) ** 2).sum(axis=-2)
    x = np.where(size[..., :1] >= size[..., 1:], cols[..., 0], cols[..., 1])
    x = x + (size.max(axis=-1) == 0)[..., None] * np.eye(2)
    with np.errstate(all="ignore"):
        vel = ((x.conj() * _mul_small(x, h.swapaxes(-1, -2))).sum(axis=-1).real
               / (np.abs(x) ** 2).sum(axis=-1))
    return lam, vel, x


def _weigh(s, h, x, vel, near):
    """2/(pi (1+s^2)^2) P (P* H P)^{-1} P*, P spanning the eigenvectors of
    the near eigenphases: x x*/(x* H x) for one, H^{-1} for all n (a
    double atom of a rank-2 model is one atom); made Hermitian."""
    with np.errstate(all="ignore"):
        one = (x[..., :, None] * x.conj()[..., None, :]
               / (vel * (np.abs(x) ** 2).sum(axis=-1))[..., None, None])
    mass = np.where(near[..., None, None], one, 0.0).sum(axis=-3)
    if h.shape[-1] == 2:  # H scaled to entries of size 1 (small far out)
        size = np.abs(h).max(axis=(-2, -1))[..., None, None]
        inverse = _solve_small(h / size, np.eye(2)) / size
        mass = np.where(near.all(axis=-1)[..., None, None], inverse, mass)
    with np.errstate(over="ignore"):  # 1 + s^2 is inf beyond 1.3e154
        lift = (1.0 + s * s)[..., None, None]
    # divided twice, as (1 + s^2)^2 overflows beyond 1.3e77
    return _hermitize(mass) * (2.0 / np.pi) / lift / lift


def point_mass(b, alpha, s):
    """Mass mu({s}) of the (B, alpha) measure at the real point s, or at
    each point of a 1-D array: the n x n Hermitian PSD matrix (a stack),
    from one call of b with B'. With U = B(s) alpha*, H = -i U' U* and P
    an orthonormal basis of U's eigenspace for 1, Clark's formula
    mu({s}) = 2/(pi (1+s^2)^2) P (P* H P)^{-1} P*; an eigenphase is at 1
    when its Newton step is within _OFFSET_TOL min(1 + |s|, ac_edge - s),
    and the mass is zero where none is. DomainError for a point that is
    not finite or not below ac_edge; SingularError where B or B' is not
    finite; ConvergenceError for an eigenphase at 1 whose velocity is not
    positive."""
    alpha = check_unitary(alpha, b.n, "perturbation parameter")
    s = _points(s, "atom location")
    atoms = s.reshape(-1)
    if not np.all(atoms < b.ac_edge):
        raise DomainError("point masses need points below the essential "
                          f"spectrum, got s = {atoms!r}")
    if atoms.size == 0:
        return np.zeros(s.shape + alpha.shape, dtype=complex)
    u, _, h = _evaluate(b, alpha, atoms)
    bad = ~np.isfinite(h).all(axis=(-2, -1))
    if bad.any():
        raise SingularError(f"point mass undefined at s = {float(atoms[bad][0])!r}"
                            ": B(s) or B'(s) is singular")
    lam, vel, x = _eigen(u, h)
    tol = _OFFSET_TOL * _scale(atoms, b.ac_edge)
    near = np.abs(np.angle(lam)) <= tol[:, None] * np.abs(vel)
    stalled = (near & ~(vel > 0)).any(axis=-1)
    if stalled.any():
        raise ConvergenceError("eigenphase at 1 with a velocity that is not "
                               f"positive at s = {float(atoms[stalled][0])!r}")
    return _weigh(atoms, h, x, vel, near).reshape(s.shape + alpha.shape)


# Upper limit on the atom-scan grid and on the command line's --grid count,
# so a wide window or a huge count fails with a typed error.
MAX_SCAN_POINTS = 10 ** 6
# Scan cells per decade of the distance to a finite ac_edge, down to
# _EDGE_GAP; a failing cell splits into _SPLIT, down to _SPLIT ulps wide.
_DECADE = 16
_EDGE_GAP = 1e-10
_SPLIT = 8
# A step of arg det(B alpha*) above -_PHASE_ROUND is rounding, not a turn
# (far out, where B has settled to B_inf, it is +-1e-16).
_PHASE_ROUND = 1e-12
# Newton rounds before a cell is split; the offset (times _scale) of the
# second point of each Newton evaluation; the largest relative change of
# the velocity across an accepted step (not met where it vanishes)
_ROUNDS = 4
_PAIR = 1e-8
_STEADY = 1e-4


def _scan_grid(lo, hi, h, edge):
    """Points of the atom scan on the window [lo, hi] below edge, reaching
    past each end by min(h, (edge - end)/2): cells of width at most h when
    edge is infinite, else the points edge - 10^(k/_DECADE) down to
    _EDGE_GAP from it. Empty when the window lies above edge. DomainError,
    naming the window and h, before any allocation for more than
    MAX_SCAN_POINTS points, also for a cell width h that is not positive."""
    start = lo - min(h, 0.5 * (edge - lo))
    top = min(hi + min(h, 0.5 * (edge - hi)), edge - _EDGE_GAP)
    if not start < top:
        return np.empty(0)
    if math.isinf(edge):
        cells = (top - start) / h if h > 0 else math.inf
        if not cells <= MAX_SCAN_POINTS - 1:
            raise DomainError(f"scan of ({lo!r}, {hi!r}) in cells of width {h!r} "
                              f"exceeds the limit of {MAX_SCAN_POINTS} grid points")
        return np.linspace(start, top, math.ceil(cells) + 1)
    k = np.arange(math.ceil(_DECADE * math.log10(edge - top)),
                  math.ceil(_DECADE * math.log10(edge - start)))
    inner = edge - 10.0 ** (k[::-1] / _DECADE)
    return np.concatenate([[start], inner[(inner > start) & (inner < top)], [top]])


def _cell_counts(b, alpha, pts, rows):
    """The points of pts where B is finite, the atoms in each cell between
    two of them in the same row (0 across rows), the kept points' rows,
    and their eigenphases of B alpha* in [0, 2 pi), ascending: one call."""
    lam = _eigenvalues_small(_mul_small(b(pts), alpha.conj().T))
    ok = np.all(np.isfinite(lam), axis=-1)
    phase = np.sort(np.mod(np.angle(lam[ok]), 2.0 * np.pi), axis=-1)
    phi = np.angle(np.prod(lam[ok], axis=-1))
    step = np.mod(np.diff(phi) + _PHASE_ROUND, 2.0 * np.pi) - _PHASE_ROUND
    count = np.rint((step - np.diff(phase.sum(axis=-1))) / (2.0 * np.pi))
    return pts[ok], np.where(np.diff(rows[ok]) == 0, count, 0), rows[ok], phase


def _place(b, alpha, s0, s1, count, start):
    """Newton from start in the cells [s0, s1] holding count atoms: one
    call of b per round at each iterate s and at s + _PAIR _scale,
    stepping by -theta/theta' of the fastest eigenphase whose step is
    shorter than the cell (else of the shortest step: at a double atom
    the slow eigenphase is the ill-conditioned one), corrected by the
    theta'' that the pair's velocities give. A step
    within _OFFSET_TOL _scale places its atom at its end, weighed there
    with U to first order in U' and H to first order over the pair, if at
    least count eigenphases are at 1 there and the placed velocity sweeps
    at most count turns across the cell (else the count may be an alias).
    A cell fails when an iterate leaves it, a velocity is not positive or
    unsteady, or no step places it in _ROUNDS rounds. Returns (placed,
    locations, masses)."""
    scale = _scale(0.5 * (s0 + s1), b.ac_edge)
    tol = _OFFSET_TOL * scale
    s, live = start, np.arange(start.size)
    placed, where = np.zeros(start.size, dtype=bool), start.copy()
    masses = np.zeros((start.size,) + alpha.shape, dtype=complex)
    for _ in range(_ROUNDS):
        if not live.size:
            break
        m, pair = s.size, _PAIR * scale[live]
        u, du, h = _evaluate(b, alpha, np.concatenate([s, s + pair]))
        u, du, h, h_pair = u[:m], du[:m], h[:m], h[m:]
        lam, vel, x = _eigen(u, h)
        with np.errstate(all="ignore"):
            steps = np.where(vel > 0, -np.angle(lam) / vel, np.inf)
            short = np.abs(steps) < (s1 - s0)[live, None]
            pick = (np.arange(m), np.where(
                short.any(axis=-1), np.argmax(np.where(short, vel, -np.inf), axis=-1),
                np.argmin(np.abs(steps), axis=-1)))
            step, vel, x = steps[pick], vel[pick], x[pick]
            vel_pair = (np.einsum("...i,...ij,...j->...", x.conj(), h_pair, x).real
                        / (np.abs(x) ** 2).sum(axis=-1))
            done = ((np.abs(step) <= tol[live])
                    & (np.abs((vel_pair - vel) * step) <= _STEADY * vel * pair))
            # the step to the zero of theta's quadratic, theta'' over the pair
            curve = np.clip(0.5 * step * (vel_pair - vel) / (vel * pair), -0.5, 0.5)
            nxt = s + step * (1.0 - curve)
        if done.any():
            cells, d = live[done], step[done][:, None, None]
            h_at = h[done] + d * (h_pair[done] - h[done]) / pair[done][:, None, None]
            lam_at, vel_at, x_at = _eigen(u[done] + d * du[done], h_at)
            near = (vel_at > 0) & (np.abs(np.angle(lam_at))
                                   <= tol[cells, None] * vel_at)
            ok = ((near.sum(axis=-1) >= count[cells]) & (
                vel[done] * (s1 - s0)[cells] <= 2.0 * np.pi * count[cells]))
            at = (s + step)[done][ok]
            placed[cells[ok]], where[cells[ok]] = True, at
            masses[cells[ok]] = _weigh(at, h_at[ok], x_at[ok], vel_at[ok], near[ok])
        go = ~done & (nxt >= s0[live] - tol[live]) & (nxt <= s1[live] + tol[live])
        live, s = live[go], nxt[go]
    return placed, where, masses


def atom_scan(b, alpha, window):
    """Atoms of the (B, alpha) measure inside window: (locations, masses),
    a sorted 1-D array and the stack of their mass matrices.

    A cell of the grid holds (dPhi - d sum_j (theta_j mod 2 pi)) / 2 pi
    atoms, theta_j the increasing eigenphases of the unitary B(s) alpha*
    and Phi = arg det(B alpha*), dPhi taken in [0, 2 pi) up to rounding
    (Model.scan_step keeps the true step below 2 pi on an interval; the
    half-line grid is geometric). One call of b counts the grid of
    _scan_grid (its cells span the points where B is not finite). Newton
    starts in each cell that counts atoms where the crossing eigenphases,
    linear between its ends, pass 0, and _place places and weighs the atoms
    of all cells at once: at most 1 + _ROUNDS calls where no cell splits. A
    double atom of a rank-2 model is one atom. A cell that fails is split
    into _SPLIT and counted again; counts must be nonnegative and a split
    cell's the sum of its sub-cells' (Delves and Lyness, Math. Comp. 21,
    1967). The grid reaches past each end by half of
    min(scan_step, ac_edge - that end); atoms within _OFFSET_TOL _scale of
    an end are inside, and of each other are merged. DomainError for a
    window that is not finite with lo < hi, and from _scan_grid;
    ConvergenceError naming the cell that breaks a count rule, and for a
    failing cell under _SPLIT ulps."""
    alpha = check_unitary(alpha, b.n, "perturbation parameter")
    lo, hi = float(window[0]), float(window[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise DomainError(f"scan window must be finite with lo < hi, got {window!r}")
    pts = _scan_grid(lo, hi, 0.5 * b.scan_step, b.ac_edge)
    rows = np.zeros(pts.size, dtype=int)
    found, masses = [np.empty(0)], [np.empty((0,) + alpha.shape, dtype=complex)]
    want = None  # the counts of the cells split in the last round
    while pts.size:
        pts, count, rows, phase = _cell_counts(b, alpha, pts, rows)
        if np.any(count < 0):
            i = np.argmax(count < 0)
            raise ConvergenceError(f"atom count on ({float(pts[i])!r}, "
                                   f"{float(pts[i + 1])!r}) is negative")
        if want is not None:
            off = np.bincount(rows[:-1], count, want.size) != want
            if off.any():  # a split cell's ends are its row's first and last points
                on = pts[rows == np.argmax(off)]
                raise ConvergenceError(
                    f"atom counts of the sub-cells of ({float(on[0])!r}, "
                    f"{float(on[-1])!r}) do not add up to its count")
        at = np.flatnonzero(count)
        if at.size == 0:
            break
        # the crossing eigenphases: the last count in phase order at the
        # left end (below 2 pi), the first count at the right (past 0)
        k, j = np.minimum(count[at], b.n)[:, None], np.arange(b.n)
        t0 = np.where(j >= b.n - k, phase[at] - 2.0 * np.pi, 0.0).sum(axis=-1)
        t1 = np.where(j < k, phase[at + 1], 0.0).sum(axis=-1)
        frac = np.divide(-t0, t1 - t0, out=np.zeros_like(t0), where=t1 > t0)
        half = not math.isinf(b.ac_edge)  # there linear in log(ac_edge - s)
        gap = np.log(b.ac_edge - pts) if half else pts
        start = gap[at] + np.diff(gap)[at] * frac
        start = b.ac_edge - np.exp(start) if half else start
        placed, where, mass = _place(b, alpha, pts[at], pts[at + 1], count[at],
                                     start)
        found.append(where[placed])
        masses.append(mass[placed])
        at = at[~placed]
        width = pts[at + 1] - pts[at]
        if np.any(width < _SPLIT * np.spacing(np.abs(pts[at]) + width)):
            raise ConvergenceError(f"atoms near s = {float(pts[at[0]])!r} not "
                                   "separated at float resolution")
        want = count[at]
        # count again on _SPLIT cells in each failed cell, between its ends
        sub = pts[at, None] + width[:, None] * np.linspace(0.0, 1.0, _SPLIT + 1)
        sub[:, -1] = pts[at + 1]
        pts, rows = sub.reshape(-1), np.repeat(np.arange(at.size), _SPLIT + 1)
    order = np.argsort(np.concatenate(found))
    found, masses = np.concatenate(found)[order], np.concatenate(masses)[order]
    tol = _OFFSET_TOL * _scale(found, b.ac_edge)
    keep = ((np.diff(found, prepend=-np.inf) > tol)
            & (found >= lo - tol) & (found <= hi + tol))
    return found[keep], masses[keep]


def conjugation_check(b2, r, q, alpha, s, kind="ac"):
    """Max-entry residual of the conjugation law at the real point s:
    measure(R B2 Q, alpha, s) against R measure(B2, R* alpha Q*, s) R*,
    the density for kind 'ac', the point mass for 'atom'."""
    measure = {"ac": ac_density, "atom": point_mass}.get(kind)
    if measure is None:
        raise DomainError(f"kind must be 'ac' or 'atom', got {kind!r}")
    m1 = measure(conjugated_schur(b2, r, q), alpha, s)
    m2 = measure(b2, transform_alpha(alpha, r, q), s)
    r = np.atleast_2d(np.asarray(r, dtype=complex))
    return float(np.max(np.abs(m1 - r @ m2 @ r.conj().T)))
