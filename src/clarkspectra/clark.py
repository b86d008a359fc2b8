"""Matrix spectral measures of rank-n unitary perturbations.

Given the characteristic Schur function B of a model and a unitary parameter
alpha, the associated spectral measure splits into an absolutely continuous
part with matrix density

    rho(s) = (alpha* - B(s)*)^{-1} (I - B(s)* B(s)) (alpha - B(s))^{-1} / (pi (1+s^2))

and point masses

    mu({s}) = (2i/(pi (1+s^2)^2)) * lim (s - w) (I - B(w) alpha*)^{-1}.

The density is a boundary value: every model's B continues from the upper
half-plane onto the real axis, so B(s) is one evaluation, and off the
model's essential spectrum (where B(s) is unitary) the density is exactly
zero. A grid of points is one array evaluation of B.

The point mass is a residue: B continues across the real axis below the
essential spectrum, so (I - B(w) alpha*)^{-1} is meromorphic around an
isolated atom s, the limit above is minus its residue there, and the
residue is the trapezoid rule on a circle around s, which converges
geometrically in the number of nodes. The same sums locate the pole they
see, so a point next to an atom but not at it gets zero mass. All circles
of one call are one array evaluation of B.

The atom scan uses those sums to find the atoms as well: a grid of
sigma_min(I - B(s) alpha*) below the essential spectrum, one circle around
each grid minimum, which places the pole it encloses (the residue of
(w - s) F over the residue of F), and the residue masses at those poles.
That is three array evaluations of B per scan. sigma_min on the grid is
closed-form arithmetic on the 1 x 1 or 2 x 2 stack
(livsic._singular_values_small, |det| / sigma_max), within a few rounding
units of sigma_max of LAPACK's value and with no LAPACK call per matrix.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (ConvergenceError, DimensionError, DomainError,
                     NonUnitaryError, SingularError)
from .livsic import (_singular_values_small, _solve_small, conjugated_schur,
                     transform_alpha)

__all__ = [
    "check_alpha",
    "ac_density",
    "point_mass",
    "atom_scan",
    "conjugation_check",
]


def check_alpha(alpha, n):
    """Validate and return the perturbation parameter as an n x n unitary."""
    alpha = np.atleast_2d(np.asarray(alpha, dtype=complex))
    if alpha.shape != (n, n):
        raise DimensionError(f"perturbation parameter must be {n} x {n}, got {alpha.shape}")
    # "not <=" so that a NaN entry fails the test too
    if not np.max(np.abs(alpha.conj().T @ alpha - np.eye(n))) <= 1e-10:
        raise NonUnitaryError("perturbation parameter is not unitary")
    return alpha


def _alpha_of(alpha):
    n = np.atleast_2d(np.asarray(alpha, dtype=complex)).shape[0]
    return check_alpha(alpha, n)


def _points(s, what):
    """s as a float array, DomainError when a point is not finite."""
    s = np.asarray(s, dtype=float)
    if not np.all(np.isfinite(s)):
        raise DomainError(f"{what} must be finite, got {s!r}")
    return s


def _hermitize(m):
    return 0.5 * (m + np.swapaxes(m, -1, -2).conj())


def _density_value(bval, alpha):
    """(alpha* - B*)^{-1} (I - B* B) (alpha - B)^{-1} = X* (I - B* B) X with
    X = (alpha - B)^{-1}, for one B value or a stack of them; NaN where
    alpha - B is singular (an atom, not an AC point)."""
    eye = np.eye(bval.shape[-1])
    x = _solve_small(alpha - bval, eye)
    xh = np.swapaxes(x, -1, -2).conj()
    return xh @ (eye - np.swapaxes(bval, -1, -2).conj() @ bval) @ x


def ac_density(b, alpha, s):
    """Absolutely continuous density matrix of the (B, alpha) measure at s.

    b is a SchurFunction, s a point or an array of points; the result is
    an n x n matrix or a stack of shape s.shape + (n, n). alpha is
    validated once. The points with s > b.ac_edge are evaluated in one call
    of b, and the density sandwich is formed at those boundary values; the
    others lie off the model's essential spectrum and get an exact zero
    matrix. The result is Hermitian by construction. SingularError when B
    or (alpha - B)^{-1} is not defined at a point of the essential spectrum
    (rounding next to a branch point; alpha - B(s) is invertible there for
    unitary alpha, since ||B(s)|| < 1).
    """
    alpha = _alpha_of(alpha)
    n = alpha.shape[0]
    s = _points(s, "density point")
    out = np.zeros(s.shape + (n, n), dtype=complex)
    on = s > b.ac_edge
    if np.any(on):
        pts = s[on]
        rho = _density_value(np.asarray(b(pts)).reshape(-1, n, n), alpha)
        bad = ~np.all(np.isfinite(rho), axis=(-2, -1))
        if np.any(bad):
            raise SingularError(f"density undefined at s = {float(pts[bad][0])!r}: "
                                "B(s) or (alpha - B(s))^-1 is singular")
        out[on] = _hermitize(rho) / (np.pi * (1.0 + pts * pts))[:, None, None]
    return out


# Trapezoid nodes on each circle; the even nodes give the check with half
# as many.
_NODES = 64
_TURN = np.exp(2j * np.pi * np.arange(_NODES) / _NODES)
# Acceptance of a residue mass: PSD and Hermitian, and the two node counts
# agreeing, each to this relative tolerance (above the rounding floor).
_MASS_RTOL = 1e-10
# A pole that the nodes place farther than _OFFSET_TOL (1 + |s|) from s is
# not at s (the atom scan merges locations within 1e-8 as well).
_OFFSET_TOL = 1e-8
# One pole at s: the second moment about s, mean(F t^3), within this
# fraction of the first, mean(F t).
_ONE_POLE_TOL = 1e-8


def _radii(s, step, edge):
    """Circle radius per atom: half the smallest of the scan step, the
    distance to the nearest other atom, and the distance to the cut."""
    order = np.argsort(s)
    gaps = np.diff(s[order])
    near = np.full(s.size, np.inf)
    near[order[1:]] = gaps
    near[order[:-1]] = np.minimum(near[order[:-1]], gaps)
    return 0.5 * np.minimum(np.minimum(step, near), edge - s)


def _circle_resolvent(b, alpha, centre, radius):
    """F = (I - B(w) alpha*)^{-1} on the circles centre + radius * _TURN, all
    in one call of b.fn; shape (circles, _NODES, n, n)."""
    n = alpha.shape[0]
    nodes = centre[:, None] + radius[:, None] * _TURN
    bval = np.asarray(b.fn(nodes.reshape(-1))).reshape(centre.size, _NODES, n, n)
    eye = np.eye(n)
    return _solve_small(eye - bval @ alpha.conj().T, eye)


def _moment(f, k, stride=1):
    """mean(F t^k) over every stride-th node of each circle."""
    return (f[:, ::stride] * (_TURN[::stride] ** k)[:, None, None]).mean(axis=1)


def _pole_offset(f, radius, stride=1):
    """p - s for the pole p that the trapezoid sums of f on the circles
    s + radius * turn see: the residue of (w - s) f at p is (p - s) times
    that of f, so p - s = radius * mean(f turn^2) / mean(f turn), matched
    over the matrix entries in least squares. Exact for one pole, inside
    the circle or outside it, whatever the node count."""
    m1, m2 = _moment(f, 1, stride), _moment(f, 2, stride)
    with np.errstate(all="ignore"):
        ratio = (np.sum(m1.conj() * m2, axis=(-2, -1))
                 / np.sum(np.abs(m1) ** 2, axis=(-2, -1)))
    return radius * ratio


def point_mass(b, alpha, s):
    """Mass mu({s}) of the (B, alpha) measure at the real point s, or at
    each point of a 1-D array of atoms.

    Returns the n x n Hermitian PSD mass matrix (a stack of them for an
    array); zero when s carries no atom. The mass is -2i/(pi (1+s^2)^2)
    times the residue of (I - B(w) alpha*)^{-1} at s, by the trapezoid rule
    on _NODES points of a circle around s, all circles in one call of b.fn
    (the continuation of b across the axis below b.ac_edge). The radius is
    half the smallest of b.scan_step, the distance to the nearest other
    point of s and the distance to b.ac_edge; other poles of
    (I - B alpha*)^{-1} are assumed to keep about that far from the circle.

    The mass is zero when the sum stays within its rounding floor (no pole
    in or near the circle), and when both node counts place the pole they
    see at the same point (to a tenth of its offset) farther than
    _OFFSET_TOL (1 + |s|) from s.

    DomainError for a non-finite point, a point on the essential spectrum
    and a repeated point. ConvergenceError for a mass at s that is not
    Hermitian and PSD, or whose values from all nodes and from the even
    nodes differ, beyond _MASS_RTOL relative to the mass (above the
    rounding floor), and for a circle with more than one pole: the second
    moment about s, mean(F t^3), does not vanish to _ONE_POLE_TOL of
    mean(F t). Two atoms in one circle would otherwise pass at their
    weighted midpoint with their summed mass.
    """
    alpha = _alpha_of(alpha)
    n = alpha.shape[0]
    s = _points(s, "atom location")
    atoms = s.reshape(-1)
    if atoms.size == 0:
        return np.zeros(s.shape + (n, n), dtype=complex)
    radius = _radii(atoms, b.scan_step, b.ac_edge)
    if not np.all(radius > 0):
        raise DomainError("point masses need distinct atoms below the "
                          f"essential spectrum, got s = {atoms!r}")
    f = _circle_resolvent(b, alpha, atoms, radius)
    m1 = _moment(f, 1)
    scale = -2j * radius / (np.pi * (1.0 + atoms * atoms) ** 2)
    mass = scale[:, None, None] * m1
    size = np.max(np.abs(mass), axis=(-2, -1))
    # the rounding floor of the sum, which is all a circle without a pole
    # inside gives
    floor = (_NODES * np.finfo(float).eps * np.abs(scale)
             * np.max(np.abs(f), axis=(1, 2, 3)))
    offset = _pole_offset(f, radius)
    offset_half = _pole_offset(f, radius, stride=2)
    elsewhere = ((np.abs(offset) > _OFFSET_TOL * (1.0 + np.abs(atoms)))
                 & (np.abs(offset - offset_half) <= 0.1 * np.abs(offset)))
    zero = ~(size > floor) | elsewhere
    tol = _MASS_RTOL * size + floor
    herm = _hermitize(mass)
    spread = np.max(np.abs(scale[:, None, None]
                           * (m1 - _moment(f, 1, stride=2))), axis=(-2, -1))
    skew = np.max(np.abs(mass - herm), axis=(-2, -1))
    lowest = np.linalg.eigvalsh(herm)[:, 0]
    first, second = (np.max(np.abs(_moment(f, k)), axis=(-2, -1))
                     for k in (1, 3))
    bad = ~zero & ~((spread <= tol) & (skew <= tol) & (lowest >= -tol)
                    & (second <= _ONE_POLE_TOL * first))
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise ConvergenceError(
            f"residue at s = {float(atoms[i])!r} (radius {radius[i]:.3e}) not "
            f"accepted: node-count difference {spread[i]:.3e}, skew part "
            f"{skew[i]:.3e}, lowest eigenvalue {lowest[i]:.3e}, "
            f"tolerance {tol[i]:.3e}, second moment {second[i] / first[i]:.3e}"
            " of the first (more than one pole in the circle)")
    herm[zero] = 0.0
    return herm.reshape(s.shape + (n, n))


# Upper limit on the atom-scan grid and on the command line's --grid count,
# so a wide window or a huge count fails with a typed error instead of
# exhausting memory. The scans the package runs use at most a few thousand
# points.
MAX_SCAN_POINTS = 10 ** 6
# Below a finite ac_edge the scan grid is graded: its distances to the
# edge shrink by _GRADE from five cells down to _EDGE_GAP, so no cell is
# wider than a fifth of its distance to the cut.
_GRADE = 1.2
_EDGE_GAP = 1e-10
# A location circle sees a pole when all nodes and the even nodes place it
# at the same point to this fraction of a cell. A circle without a pole, or
# with the rounding noise of B next to a branch point, places it at random.
_SAME_POLE = 1e-3


def _scan_grid(lo, hi, h, edge):
    """Points of the atom scan on [lo, hi] below edge: cells of width at
    most h, and near a finite edge the distances edge - 5h _GRADE^-k down
    to _EDGE_GAP, so that every circle of the scan stays off the cut; empty
    when the window lies above edge. DomainError before any allocation for
    more than MAX_SCAN_POINTS cells of width h."""
    top = min(hi, edge - _EDGE_GAP)
    if not lo < top:
        return np.empty(0)
    cells = (top - lo) / h
    if not cells <= MAX_SCAN_POINTS - 1:
        raise DomainError(f"scan of ({lo!r}, {hi!r}) exceeds the limit of "
                          f"{MAX_SCAN_POINTS} grid points")
    grid = np.linspace(lo, top, math.ceil(cells) + 1)
    levels = max(math.ceil(math.log(5.0 * h / _EDGE_GAP, _GRADE)), 0)
    graded = edge - 5.0 * h * _GRADE ** -np.arange(levels)
    return np.sort(np.concatenate([grid, graded[(graded > lo) & (graded < top)]]))


def atom_scan(b, alpha, window):
    """Atoms of the (B, alpha) measure inside window: (locations, masses),
    a sorted 1-D array and the stack of their point_mass matrices, from
    three calls of b.fn on arrays of points:

      1. sigma_min(I - B(s) alpha*) on the grid of _scan_grid, with cells
         of half b.scan_step, in closed form (livsic._singular_values_small:
         |det| / sigma_max, within about 1e-15 sigma_max of LAPACK's
         SVD);
      2. a circle of radius 1.25 times the wider neighbouring cell around
         every grid minimum (window edges included); the pole it encloses
         (_pole_offset) is kept when both node counts place it at the same
         point, within one cell of the centre and inside window;
      3. point_mass at the kept poles; a zero mass is not an atom.

    A dip narrower than a cell is found when the atom lies within a cell of
    the grid minimum. Atoms closer than about b.scan_step can share a
    circle, and point_mass then raises ConvergenceError. Points where B is
    not finite read as no dip. DomainError for a window that is not finite
    with lo < hi, and from _scan_grid.
    """
    alpha = _alpha_of(alpha)
    n = alpha.shape[0]
    lo, hi = float(window[0]), float(window[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise DomainError(f"scan window must be finite with lo < hi, got {window!r}")
    none = np.empty(0), np.zeros((0, n, n), dtype=complex)
    grid = _scan_grid(lo, hi, 0.5 * b.scan_step, b.ac_edge)
    if grid.size == 0:
        return none
    m = np.eye(n) - np.asarray(b.fn(grid)).reshape(-1, n, n) @ alpha.conj().T
    ok = np.isfinite(m).all(axis=(1, 2))
    vals = np.full(grid.size, np.inf)
    vals[ok] = _singular_values_small(m[ok])[:, -1]
    padded = np.concatenate([[np.inf], vals, [np.inf]])
    at = np.flatnonzero((vals < padded[:-2]) & (vals <= padded[2:]))
    if at.size == 0:
        return none
    cells = np.diff(grid, prepend=grid[0], append=grid[-1])
    cell = np.maximum(cells[at], cells[at + 1])
    f = _circle_resolvent(b, alpha, grid[at], 1.25 * cell)
    offset = _pole_offset(f, 1.25 * cell)
    poles = grid[at] + offset.real
    keep = ((np.abs(offset - _pole_offset(f, 1.25 * cell, stride=2))
             <= _SAME_POLE * cell)
            & (np.abs(offset) <= cell) & (poles >= lo) & (poles <= hi))
    poles = np.sort(poles[keep])
    # two minima can see the same pole
    poles = poles[np.diff(poles, prepend=-np.inf)
                  > _OFFSET_TOL * (1.0 + np.abs(poles))]
    masses = point_mass(b, alpha, poles)
    atom = np.any(masses != 0, axis=(-2, -1))
    return poles[atom], masses[atom]


def conjugation_check(b2, r, q, alpha, s, kind="ac"):
    """Residual of the measure conjugation law at the real point s.

    Builds B1 = R B2 Q and compares measure(B1, alpha, s) against
    R measure(B2, R* alpha Q*, s) R*. kind selects the part: 'ac' for the
    density, 'atom' for the point mass.
    Returns the max-entry residual.
    """
    measure = {"ac": ac_density, "atom": point_mass}.get(kind)
    if measure is None:
        raise ValueError(f"kind must be 'ac' or 'atom', got {kind!r}")
    m1 = measure(conjugated_schur(b2, r, q), alpha, s)
    m2 = measure(b2, transform_alpha(alpha, r, q), s)
    r = np.atleast_2d(np.asarray(r, dtype=complex))
    return float(np.max(np.abs(m1 - r @ m2 @ r.conj().T)))
