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
"""

from __future__ import annotations

import numpy as np

from .errors import (ConvergenceError, DimensionError, DomainError,
                     NonUnitaryError, SingularError)
from .livsic import _solve_small, conjugated_schur, transform_alpha

__all__ = [
    "check_alpha",
    "ac_density",
    "point_mass",
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
            raise SingularError(f"density undefined at s = {pts[bad][0]!r}: "
                                "B(s) or (alpha - B(s))^-1 is singular")
        out[on] = _hermitize(rho) / (np.pi * (1.0 + pts * pts))[:, None, None]
    return out


# Trapezoid nodes on each residue circle; the even nodes give the check
# with half as many.
_NODES = 64
# Acceptance of a residue mass: PSD and Hermitian, and the two node counts
# agreeing, each to this relative tolerance (above the rounding floor).
_MASS_RTOL = 1e-10
# A pole that the nodes place farther than _OFFSET_TOL (1 + |s|) from s is
# not at s (the atom scan merges locations within 1e-8 as well).
_OFFSET_TOL = 1e-8


def _radii(s, step, edge):
    """Circle radius per atom: half the smallest of the scan step, the
    distance to the nearest other atom, and the distance to the cut."""
    order = np.argsort(s)
    gaps = np.diff(s[order])
    near = np.full(s.size, np.inf)
    near[order[1:]] = gaps
    near[order[:-1]] = np.minimum(near[order[:-1]], gaps)
    return 0.5 * np.minimum(np.minimum(step, near), edge - s)


def _pole_offset(f, turn, radius):
    """p - s for the pole p that the trapezoid sums of f on the circles
    s + radius * turn see: the residue of (w - s) f at p is (p - s) times
    that of f, so p - s = radius * mean(f turn^2) / mean(f turn), matched
    over the matrix entries in least squares. Exact for one pole, inside
    the circle or outside it, whatever the node count."""
    m1 = (f * turn[:, None, None]).mean(axis=1)
    m2 = (f * (turn * turn)[:, None, None]).mean(axis=1)
    with np.errstate(all="ignore"):
        ratio = (np.sum(m1.conj() * m2, axis=(-2, -1))
                 / np.sum(np.abs(m1) ** 2, axis=(-2, -1)))
    return radius * ratio


def point_mass(b, alpha, s, step=0.05):
    """Mass mu({s}) of the (B, alpha) measure at the real point s, or at
    each point of a 1-D array of atoms.

    Returns the n x n Hermitian PSD mass matrix (a stack of them for an
    array); zero when s carries no atom. The mass is -2i/(pi (1+s^2)^2)
    times the residue of (I - B(w) alpha*)^{-1} at s, by the trapezoid rule
    on _NODES points of a circle around s, evaluated through b.fn, the
    continuation of b across the axis below b.ac_edge. All circles are one
    call of b.fn. The radius is half the smallest of step, the distance to
    the nearest other point of s and the distance to b.ac_edge: step is the
    resolution of the scan that found the atoms (atoms closer than that are
    not told apart), 0.05 by default, the command line's half-line step.

    The mass is zero when the sum over all nodes stays within its rounding
    floor (no pole in or near the circle), and when both node counts place
    the pole they see at the same point (to a tenth of its offset) farther
    than _OFFSET_TOL (1 + |s|) from s: a pole in or near the circle that is
    not at s. Other poles of (I - B alpha*)^{-1} are assumed to keep about
    the radius away from the circle, as the radius rule keeps the atoms
    passed in.

    DomainError for a non-finite point, a point on the essential spectrum
    and a repeated point. ConvergenceError for a mass at s that is not
    Hermitian and PSD, or whose values from all nodes and from the even
    nodes differ, beyond _MASS_RTOL relative to the mass (above the
    rounding floor of the sum).
    """
    alpha = _alpha_of(alpha)
    n = alpha.shape[0]
    s = _points(s, "atom location")
    atoms = s.reshape(-1)
    if atoms.size == 0:
        return np.zeros(s.shape + (n, n), dtype=complex)
    radius = _radii(atoms, float(step), b.ac_edge)
    if not np.all(radius > 0):
        raise DomainError("point masses need distinct atoms below the "
                          f"essential spectrum and a positive step, got "
                          f"s = {atoms!r}, step = {step!r}")
    turn = np.exp(2j * np.pi * np.arange(_NODES) / _NODES)
    nodes = atoms[:, None] + radius[:, None] * turn
    bval = np.asarray(b.fn(nodes.reshape(-1))).reshape(atoms.size, _NODES, n, n)
    eye = np.eye(n)
    f = _solve_small(eye - bval @ alpha.conj().T, eye)
    weighted = f * turn[:, None, None]
    res = radius[:, None, None] * weighted.mean(axis=1)
    half = radius[:, None, None] * weighted[:, ::2].mean(axis=1)
    pref = -2j / (np.pi * (1.0 + atoms * atoms) ** 2)
    mass = pref[:, None, None] * res
    size = np.max(np.abs(mass), axis=(-2, -1))
    # the rounding floor of the sum, which is all a circle without an atom
    # inside gives
    floor = (_NODES * np.finfo(float).eps * np.abs(pref) * radius
             * np.max(np.abs(f), axis=(1, 2, 3)))
    offset = _pole_offset(f, turn, radius)
    offset_half = _pole_offset(f[:, ::2], turn[::2], radius)
    elsewhere = ((np.abs(offset) > _OFFSET_TOL * (1.0 + np.abs(atoms)))
                 & (np.abs(offset - offset_half) <= 0.1 * np.abs(offset)))
    zero = ~(size > floor) | elsewhere
    tol = _MASS_RTOL * size + floor
    herm = _hermitize(mass)
    spread = np.max(np.abs(pref[:, None, None] * (res - half)), axis=(-2, -1))
    skew = np.max(np.abs(mass - herm), axis=(-2, -1))
    lowest = np.linalg.eigvalsh(herm)[:, 0]
    bad = ~zero & ~((spread <= tol) & (skew <= tol) & (lowest >= -tol))
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise ConvergenceError(
            f"residue at s = {atoms[i]!r} (radius {radius[i]:.3e}) not "
            f"accepted: node-count difference {spread[i]:.3e}, skew part "
            f"{skew[i]:.3e}, lowest eigenvalue {lowest[i]:.3e}, "
            f"tolerance {tol[i]:.3e}")
    herm[zero] = 0.0
    return herm.reshape(s.shape + (n, n))


def conjugation_check(b2, r, q, alpha, s, kind="ac"):
    """Residual of the measure conjugation law at the real point s.

    Builds B1 = R B2 Q and compares measure(B1, alpha, s) against
    R measure(B2, R* alpha Q*, s) R*. kind selects the part: 'ac' for the
    density, 'atom' for the point mass (at point_mass's default step).
    Returns the max-entry residual.
    """
    b1 = conjugated_schur(b2, r, q)
    alpha2 = transform_alpha(alpha, r, q)
    r = np.atleast_2d(np.asarray(r, dtype=complex))
    if kind == "ac":
        m1 = ac_density(b1, alpha, s)
        m2 = ac_density(b2, alpha2, s)
    elif kind == "atom":
        m1 = point_mass(b1, alpha, s)
        m2 = point_mass(b2, alpha2, s)
    else:
        raise ValueError(f"kind must be 'ac' or 'atom', got {kind!r}")
    return float(np.max(np.abs(m1 - r @ m2 @ r.conj().T)))
