"""Matrix spectral measures of rank-n unitary perturbations.

Given the characteristic Schur function B of a model and a unitary parameter
alpha, the associated spectral measure splits into an absolutely continuous
part with matrix density

    rho(s) = (alpha* - B(s)*)^{-1} (I - B(s)* B(s)) (alpha - B(s))^{-1} / (pi (1+s^2))
           = Re[(alpha + B(s)) (alpha - B(s))^{-1}] / (pi (1+s^2)),

Re M = (M + M*)/2; the forms agree for unitary alpha, and the second (the
matrix Herglotz function of the measure) is one solve. The point masses are

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

The atom scan counts the atoms in each cell of a grid exactly from B at its
two ends, since the eigenphases of the unitary B(s) alpha* increase with s
(matrix Herglotz functions: Gesztesy and Tsekanovskii, Math. Nachr. 218,
2000), and the circle sums place and weigh them.
"""

from __future__ import annotations

import math

import numpy as np

from .cplane import check_unitary
from .errors import ConvergenceError, DomainError, SingularError
from .livsic import (_eigenvalues_small, _mul_small, _solve_small,
                     conjugated_schur, transform_alpha)

__all__ = [
    "check_alpha",
    "ac_density",
    "point_mass",
    "atom_scan",
    "conjugation_check",
]


def check_alpha(alpha, n=None):
    """The perturbation parameter as an n x n (any square size for n None)
    unitary, by cplane.check_unitary."""
    return check_unitary(alpha, n, "perturbation parameter")


def _points(s, what):
    """s as a float array, DomainError when a point is not finite."""
    s = np.asarray(s, dtype=float)
    if not np.all(np.isfinite(s)):
        raise DomainError(f"{what} must be finite, got {s!r}")
    return s


def _hermitize(m):
    return 0.5 * (m + np.swapaxes(m, -1, -2).conj())


def ac_density(b, alpha, s):
    """Absolutely continuous density matrix of the (B, alpha) measure at s.

    b is a SchurFunction, s a point or an array of points; the result is
    an n x n matrix or a stack of shape s.shape + (n, n). alpha is
    validated once, n x n for n = b.n. The points with s > b.ac_edge are
    evaluated in one call of b, and the Hermitian part of
    (alpha + B)(alpha - B)^{-1} is formed at those boundary values; the
    others lie off the model's essential spectrum and get an exact zero
    matrix. The result is Hermitian by construction. SingularError when B
    is NaN (a singular pairing matrix) or alpha - B(s) is singular at a
    point of the essential spectrum (rounding next to a branch point).
    """
    alpha = check_alpha(alpha, b.n)
    n = alpha.shape[0]
    s = _points(s, "density point")
    out = np.zeros(s.shape + (n, n), dtype=complex)
    on = s > b.ac_edge
    if np.any(on):
        pts = s[on]
        bval = np.swapaxes(np.asarray(b(pts)).reshape(-1, n, n), -1, -2)
        # (alpha + B)(alpha - B)^{-1} as one solve on the transposes; NaN
        # where alpha - B is singular (an atom, not an AC point)
        rho = np.swapaxes(_solve_small(alpha.T - bval, alpha.T + bval), -1, -2)
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
# Node weights of the circle moments (_moments), one row per moment: the
# mean of F t^k over all nodes is row k - 1 times F for k = 1, 2, 3, and
# over the even nodes row k + 2 times F for k = 1, 2.
_EVEN = 2.0 * (np.arange(_NODES) % 2 == 0)
_POWERS = np.stack([_TURN, _TURN ** 2, _TURN ** 3,
                    _EVEN * _TURN, _EVEN * _TURN ** 2]) / _NODES
# Acceptance of a residue mass: PSD and Hermitian, and the two node counts
# agreeing, each to this relative tolerance (above the rounding floor).
_MASS_RTOL = 1e-10
# A pole that the nodes place farther than _OFFSET_TOL (1 + |s|) from s is
# not at s (the atom scan merges poles, and keeps window ends, within it).
_OFFSET_TOL = 1e-8
# One pole in a circle: its second moment (_circles) below this.
_ONE_POLE_TOL = 1e-8


def _radii(s, step, edge):
    """point_mass's circle radius per atom: the least of half the scan
    step (inf on the half-line), a quarter of the gap to the nearest other
    atom and half the distance to the cut (inf on an interval)."""
    order = np.argsort(s)
    gaps = np.diff(s[order], prepend=-np.inf, append=np.inf)
    near = np.empty(s.size)
    near[order] = np.minimum(gaps[:-1], gaps[1:])
    return np.minimum(0.5 * np.minimum(step, edge - s), 0.25 * near)


def _circle_resolvent(b, alpha, centre, radius):
    """F = (I - B(w) alpha*)^{-1} on the circles centre + radius * _TURN, all
    in one call of b.fn; shape (circles, _NODES, n, n)."""
    n = alpha.shape[0]
    nodes = centre[:, None] + radius[:, None] * _TURN
    bval = np.asarray(b.fn(nodes.reshape(-1))).reshape(centre.size, _NODES, n, n)
    eye = np.eye(n)
    return _solve_small(eye - _mul_small(bval, alpha.conj().T), eye)


def _moments(f):
    """mean(F t^k) on each circle of f, shape (circles, 5, n, n): k = 1, 2, 3
    over all nodes, then k = 1, 2 over the even nodes; one product of the
    circle values with _POWERS."""
    circles, _, n, _ = f.shape
    flat = f.reshape(circles, _NODES, n * n)
    return (_POWERS @ flat).reshape(circles, len(_POWERS), n, n)


def _pole_offset(m, radius, stride=1):
    """p - s for the pole p that the trapezoid sums on the circles
    s + radius * turn see, from their moments m (_moments), over all nodes
    or (stride 2) the even nodes: the residue of (w - s) F at p is (p - s)
    times that of F, so p - s = radius * mean(F turn^2) / mean(F turn),
    matched over the matrix entries in least squares. Exact for one pole,
    inside the circle or outside it, whatever the node count."""
    m1, m2 = (m[:, 0], m[:, 1]) if stride == 1 else (m[:, 3], m[:, 4])
    with np.errstate(all="ignore"):
        ratio = (np.sum(m1.conj() * m2, axis=(-2, -1))
                 / np.sum(np.abs(m1) ** 2, axis=(-2, -1)))
    return radius * ratio


def _circles(b, alpha, centre, radius):
    """Pole and mass on each circle centre + radius * _TURN, one call of
    b.fn: (offset, offset_half, mass, accepted, why). offset, offset_half:
    p - centre for the pole p that all nodes and the even nodes place.
    mass: -2i radius mean(F t) / (pi (1 + p^2)^2) made Hermitian, p =
    centre + Re offset when in the circle (else centre); zero within the
    sum's rounding floor (all a circle without a pole gives). accepted: a
    zero mass, or one Hermitian and PSD with both node counts agreeing,
    each to _MASS_RTOL of it, whose circle holds one pole (the second
    moment about p); NaN fails. why(i): the tests circle i fails."""
    f = _circle_resolvent(b, alpha, centre, radius)
    m = _moments(f)
    m1 = m[:, 0]
    offset = _pole_offset(m, radius)
    delta = np.where(np.abs(offset) <= radius, offset.real, 0.0)
    scale = -2j * radius / (np.pi * (1.0 + (centre + delta) ** 2) ** 2)
    mass = scale[:, None, None] * m1
    size = np.max(np.abs(mass), axis=(-2, -1))
    floor = (_NODES * np.finfo(float).eps * np.abs(scale)
             * np.max(np.abs(f), axis=(1, 2, 3)))
    tol = _MASS_RTOL * size + floor
    herm = _hermitize(mass)
    spread = np.max(np.abs(scale[:, None, None]
                           * (m1 - m[:, 3])), axis=(-2, -1))
    skew = np.max(np.abs(mass - herm), axis=(-2, -1))
    lowest = np.linalg.eigvalsh(herm)[:, 0]
    # mean(F (t - d)^2 t) over mean(F t): zero for one pole d radii from
    # the centre, where two poles would read as one between them
    d = (delta / radius)[:, None, None]
    with np.errstate(all="ignore"):
        second = (np.max(np.abs(m[:, 2] - 2.0 * d * m[:, 1] + d * d * m1),
                         axis=(-2, -1)) / np.max(np.abs(m1), axis=(-2, -1)))
    # each test with what its refusal says; "not <=" so that NaN fails
    tests = (
        (spread <= tol, lambda i: f"node-count difference {spread[i]:.3e} "
                                  f"over the tolerance {tol[i]:.3e}"),
        (skew <= tol, lambda i: f"skew part {skew[i]:.3e} over the "
                                f"tolerance {tol[i]:.3e}"),
        (lowest >= -tol, lambda i: f"lowest eigenvalue {lowest[i]:.3e} "
                                   f"below -{tol[i]:.3e}"),
        (second <= _ONE_POLE_TOL,
         lambda i: f"second moment {second[i]:.3e} of the first over "
                   f"{_ONE_POLE_TOL:.0e} (more than one pole in the circle)"),
    )
    faint = size <= floor
    herm[faint] = 0.0
    accepted = faint | np.logical_and.reduce([ok for ok, _ in tests])
    return (offset, _pole_offset(m, radius, stride=2), herm, accepted,
            lambda i: "; ".join(say(i) for ok, say in tests if not ok[i]))


def point_mass(b, alpha, s):
    """Mass mu({s}) of the (B, alpha) measure at the real point s, or at
    each point of a 1-D array of atoms: the n x n Hermitian PSD matrix (a
    stack of them), zero when s carries no atom: -2i/(pi (1+p^2)^2) times
    the residue of (I - B(w) alpha*)^{-1} at its pole p = s, by the
    trapezoid rule on a circle around s (_circles), all in one call of
    b.fn. The radius (_radii) is the least of half b.scan_step (infinite
    on the half-line), a quarter of the gap to the nearest other point of
    s and half the distance to b.ac_edge; other poles are assumed to keep
    about that far. The mass is also zero when both node counts place the
    pole at the same point (to a tenth of its offset) farther than
    _OFFSET_TOL (1 + |s|) from s. DomainError for a non-finite, repeated
    or essential-spectrum point; ConvergenceError, naming the failed
    tests, for a mass that _circles does not accept.
    """
    alpha = check_alpha(alpha, b.n)
    s = _points(s, "atom location")
    atoms = s.reshape(-1)
    if atoms.size == 0:
        return np.zeros(s.shape + alpha.shape, dtype=complex)
    radius = _radii(atoms, b.scan_step, b.ac_edge)
    if not np.all(radius > 0):
        raise DomainError("point masses need distinct atoms below the "
                          f"essential spectrum, got s = {atoms!r}")
    offset, offset_half, mass, accepted, why = _circles(b, alpha, atoms, radius)
    near = np.abs(offset) <= _OFFSET_TOL * (1.0 + np.abs(atoms))
    elsewhere = ~near & (np.abs(offset - offset_half) <= 0.1 * np.abs(offset))
    bad = ~elsewhere & ~accepted
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise ConvergenceError(
            f"residue at s = {float(atoms[i])!r} (radius {radius[i]:.3e}) not "
            "accepted: " + why(i))
    mass[elsewhere] = 0.0
    return mass.reshape(s.shape + alpha.shape)


# Upper limit on the atom-scan grid and on the command line's --grid count,
# so a wide window or a huge count fails with a typed error.
MAX_SCAN_POINTS = 10 ** 6
# Scan cells per decade of the distance to a finite ac_edge, down to
# _EDGE_GAP; a failing cell splits into _SPLIT, down to _SPLIT ulps wide.
_DECADE = 16
_EDGE_GAP = 1e-10
_SPLIT = 8


def _scan_grid(lo, hi, h, edge):
    """Points of the atom scan on [lo, hi] below edge, ends included:
    cells of width at most h when edge is infinite, else the points
    edge - 10^(k/_DECADE) down to _EDGE_GAP from it, each cell a fixed
    fraction of its distance to the cut. Empty when the window lies above
    edge.
    DomainError before any allocation for more than MAX_SCAN_POINTS
    points."""
    top = min(hi, edge - _EDGE_GAP)
    if not lo < top:
        return np.empty(0)
    if math.isinf(edge):
        cells = (top - lo) / h
        if not cells <= MAX_SCAN_POINTS - 1:
            raise DomainError(f"scan of ({lo!r}, {hi!r}) exceeds the limit of "
                              f"{MAX_SCAN_POINTS} grid points")
        return np.linspace(lo, top, math.ceil(cells) + 1)
    k = np.arange(math.ceil(_DECADE * math.log10(edge - top)),
                  math.ceil(_DECADE * math.log10(edge - lo)))
    inner = edge - 10.0 ** (k[::-1] / _DECADE)
    return np.concatenate([[lo], inner[(inner > lo) & (inner < top)], [top]])


def _cell_counts(b, alpha, pts, rows):
    """The points of pts where B is finite, the atoms in each cell between
    two of them in the same row (0 across rows), and the kept points' rows:
    one call of b.fn, eigenphases from livsic._eigenvalues_small."""
    lam = _eigenvalues_small(_mul_small(b.fn(pts), alpha.conj().T))
    ok = np.all(np.isfinite(lam), axis=-1)
    phi = np.angle(np.prod(lam[ok], axis=-1))
    theta = np.mod(np.angle(lam[ok]), 2.0 * np.pi).sum(axis=-1)
    count = np.rint((np.mod(np.diff(phi), 2.0 * np.pi) - np.diff(theta))
                    / (2.0 * np.pi))
    return pts[ok], np.where(np.diff(rows[ok]) == 0, count, 0), rows[ok]


def atom_scan(b, alpha, window):
    """Atoms of the (B, alpha) measure inside window: (locations, masses),
    a sorted 1-D array and the stack of their mass matrices.

    A cell of the grid holds (dPhi - d sum_j (theta_j mod 2 pi)) / 2 pi
    atoms, theta_j the increasing eigenphases of the unitary B(s) alpha*
    and Phi = arg det(B alpha*), dPhi taken in [0, 2 pi) (Model.scan_step
    keeps the true step below 2 pi on an interval; the half-line grid is
    geometric). Two calls of b.fn where no cell splits: the count on the
    grid of _scan_grid (its cells span the points where B is not finite),
    and one circle per cell that counts atoms, four cells wide but at most
    half the distance to ac_edge, whose pole and mass (_circles) the cell
    keeps when they are accepted with the pole in its inner half (a double
    atom is one pole); else the cell is split into _SPLIT and counted
    again (two more calls per round). The grid reaches past both ends by
    half of min(scan_step, ac_edge - lo), so an atom on an end is in a
    cell; poles within _OFFSET_TOL (1 + |s|) of an end are inside, and of
    each other are merged. Counts must be nonnegative and a split cell's
    the sum of its sub-cells' (Delves and Lyness, Math. Comp. 21, 1967),
    which bounds the failing cells of a round by the first grid's count.
    DomainError for a window that is not finite with lo < hi, and from
    _scan_grid; ConvergenceError for a broken count rule and a failing
    cell under _SPLIT ulps.
    """
    alpha = check_alpha(alpha, b.n)
    lo, hi = float(window[0]), float(window[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise DomainError(f"scan window must be finite with lo < hi, got {window!r}")
    reach = 0.5 * min(b.scan_step, b.ac_edge - lo)
    pts = _scan_grid(lo - reach, hi + reach, 0.5 * b.scan_step, b.ac_edge)
    rows = np.zeros(pts.size, dtype=int)
    poles, masses = [np.empty(0)], [np.empty((0,) + alpha.shape, dtype=complex)]
    want = None  # the counts of the cells split in the last round
    while pts.size:
        pts, count, rows = _cell_counts(b, alpha, pts, rows)
        if np.any(count < 0) or want is not None and not np.array_equal(
                np.bincount(rows[:-1], count, want.size), want):
            raise ConvergenceError(
                f"atom counts on ({float(pts[0])!r}, {float(pts[-1])!r}): one "
                "is negative, or a split cell's sub-cells do not add up to it")
        at = np.flatnonzero(count)
        if at.size == 0:
            break
        centre, width = 0.5 * (pts[at] + pts[at + 1]), np.diff(pts)[at]
        radius = np.minimum(4.0 * width, 0.5 * (b.ac_edge - centre))
        offset, _, mass, accepted, _ = _circles(b, alpha, centre, radius)
        one = accepted & (np.abs(offset) <= 0.5 * radius)
        poles.append(centre[one] + offset[one].real)
        masses.append(mass[one])
        at, width = at[~one], width[~one]
        if np.any(width < _SPLIT * np.spacing(np.abs(pts[at]) + width)):
            raise ConvergenceError(f"atoms near s = {float(pts[at[0]])!r} not "
                                   "separated at float resolution")
        want = count[at]
        # count again on _SPLIT cells in each cell that failed
        pts = (pts[at, None] + width[:, None]
               * np.linspace(0.0, 1.0, _SPLIT + 1)).reshape(-1)
        rows = np.repeat(np.arange(at.size), _SPLIT + 1)
    order = np.argsort(np.concatenate(poles))
    poles, masses = np.concatenate(poles)[order], np.concatenate(masses)[order]
    tol = _OFFSET_TOL * (1.0 + np.abs(poles))
    keep = ((np.diff(poles, prepend=-np.inf) > tol)
            & (poles >= lo - tol) & (poles <= hi + tol)
            & np.any(masses != 0, axis=(-2, -1)))
    return poles[keep], masses[keep]


def conjugation_check(b2, r, q, alpha, s, kind="ac"):
    """Residual of the measure conjugation law at the real point s.

    Builds B1 = R B2 Q and compares measure(B1, alpha, s) against
    R measure(B2, R* alpha Q*, s) R*. kind selects the part: 'ac' for the
    density, 'atom' for the point mass.
    Returns the max-entry residual.
    """
    measure = {"ac": ac_density, "atom": point_mass}.get(kind)
    if measure is None:
        raise DomainError(f"kind must be 'ac' or 'atom', got {kind!r}")
    m1 = measure(conjugated_schur(b2, r, q), alpha, s)
    m2 = measure(b2, transform_alpha(alpha, r, q), s)
    r = np.atleast_2d(np.asarray(r, dtype=complex))
    return float(np.max(np.abs(m1 - r @ m2 @ r.conj().T)))
