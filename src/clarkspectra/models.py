"""The four concrete derivative-type models and their closed-form objects.

K models live on the half-line (0, inf):
    K1: -d^2/dx^2, deficiency rank 1
    K2: +d^4/dx^4, deficiency rank 2
L models live on the symmetric interval (-a, a):
    L1: i d/dx, rank 1
    L2: -d^2/dx^2, rank 2

Each model knows its square-integrable characteristic rates (with the upper
continuation onto the real axis; below the axis the decaying branch, which
is also the continuation of the upper one off the model's cut) and its
closed-form inner product, which is all the generic machinery needs; both
take arrays of points. On top of that this module carries the rank-one
closed-form characteristic functions and densities and the L1 atom lattice
and weights, used as independent cross-checks of the generic pipeline, plus
the atom scan built on the generic characteristic function: one array call
of B for the grid, then one per golden-section step for all dips together.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .cplane import principal_power
from .defect import exp_inner_halfline, exp_inner_interval
from .errors import (ClarkSpectraError, DomainError, NonUnitaryError,
                     SingularError, ToleranceError)
from .livsic import livsic_function

__all__ = [
    "Model",
    "k1",
    "k2",
    "l1",
    "l2",
    "k1_livsic",
    "l1_livsic",
    "k1_density",
    "l1_atoms",
    "l1_weight",
    "l2_atoms",
    "atom_scan",
]


@dataclass(frozen=True)
class Model:
    """A concrete symmetric differential model with equal deficiency indices.

    rank is the deficiency index n, order the order of the differential
    expression; a the interval half-length (None on the half-line).
    """

    name: str
    rank: int
    order: int
    halfline: bool
    a: float = None

    def __post_init__(self):
        if not self.halfline and not (self.a is not None and self.a > 0
                                      and math.isfinite(self.a)):
            raise DomainError(
                f"interval half-length must be positive, got {self.a}")

    def raw_rates(self, w):
        """Square-integrable characteristic exponents of the defect space at
        w, a scalar or an array; shape w.shape + (rank,).

        On the closed upper half-plane these are the upper branch (real w
        gives the limits from above, the continuation every boundary
        evaluation uses); below the axis, the branch that decays there,
        which spans the defect space at w. That lower branch is also the
        analytic continuation of the upper one across (-inf, 0): on K1,
        -i sqrt(w) = i (e^{i pi/2} sqrt(-w)) for Im w < 0, and K2's pair
        (-w^{1/4}, -i w^{1/4}) is (i, -1) times e^{i pi/4} (-w)^{1/4} in the
        same order. So B built from these rates is continuous across the
        negative axis, with the K models' cut on [0, inf). The L rates are
        entire; L2's two rates swap across the negative axis, which leaves
        B unchanged, since B does not depend on their order.
        """
        w = np.asarray(w, dtype=complex)
        if self.name == "L1":
            return (-1j * w)[..., None]
        if self.name == "L2":
            root = principal_power(w, 0.5)
            return np.stack([-1j * root, 1j * root], axis=-1)
        if self.name not in ("K1", "K2"):
            raise DomainError(f"unknown model {self.name!r}")
        root = principal_power(w, 1.0 / self.order)
        lower = (w.imag < 0)[..., None]
        if self.name == "K1":
            return np.where(lower, -1j * root[..., None], 1j * root[..., None])
        return np.where(lower, np.stack([-root, -1j * root], axis=-1),
                        np.stack([1j * root, -root], axis=-1))

    @property
    def scan_step(self):
        """Grid step of the atom scan (and bound of the residue radii),
        which must keep neighbouring atoms at least two grid cells apart.
        The half-line families have no floor on the atom spacing; 0.05
        suits the couplings in use. L1's atoms are pi/a apart, and the step
        is pi/(8a). L2's lowest atoms are about (pi/(2a))^2 apart, so its
        step is also at most a third of that, pi^2/(12 a^2), which is the
        smaller of the two for a > 2 pi/3."""
        if self.halfline:
            return 0.05
        step = math.pi / (8.0 * self.a)
        if self.name == "L2":
            step = min(step, math.pi ** 2 / (12.0 * self.a ** 2))
        return step

    def inner(self, mu, nu, shift=0.0):
        """Closed-form <exp(mu x), exp(nu x)> on the model's domain, times
        exp(-shift); arrays broadcast."""
        if self.halfline:
            return exp_inner_halfline(mu, nu) * np.exp(-shift)
        return exp_inner_interval(mu, nu, self.a, shift)

    def expression_eigenvalue(self, rate):
        """Multiplier of exp(rate x) under the differential expression.

        All four expressions are (i d/dx)^order, so exp(r x) is an
        eigenfunction with eigenvalue (i r)^order; this returns w up to
        rounding whenever rate comes from raw_rates(w).
        """
        return (1j * complex(rate)) ** self.order


def k1():
    return Model("K1", rank=1, order=2, halfline=True)


def k2():
    return Model("K2", rank=2, order=4, halfline=True)


def l1(a):
    return Model("L1", rank=1, order=1, halfline=False, a=float(a))


def l2(a):
    return Model("L2", rank=2, order=2, halfline=False, a=float(a))


# ---------------------------------------------------------------------------
# closed-form characteristic functions
# ---------------------------------------------------------------------------

def k1_livsic(w):
    """B(w) = (w - sqrt(2w) + 1)/(w + i) for the half-line -d^2/dx^2.

    Equivalent factored form:
    (w - i)(sqrt(w) - e^{-i pi/4}) / ((w + i)(sqrt(w) + e^{i pi/4})).
    """
    w = complex(w)
    if w.imag < 0:
        raise DomainError("characteristic function lives on the closed upper half-plane")
    return (w - principal_power(2 * w, 0.5) + 1) / (w + 1j)


def l1_livsic(w, a):
    """B(w) = sin((w - i) a)/sin((w + i) a) for i d/dx on (-a, a).

    Implemented through u = exp(2 i a w) so large Im w cannot overflow:
    B = e^{-2a} (u e^{2a} - 1)/(u e^{-2a} - 1), |u| <= 1 on the closed
    upper half-plane.
    """
    w = complex(w)
    if w.imag < 0:
        raise DomainError("characteristic function lives on the closed upper half-plane")
    a = float(a)
    u = np.exp(2j * a * w)
    return math.exp(-2 * a) * (u * math.exp(2 * a) - 1) / (u * math.exp(-2 * a) - 1)


# ---------------------------------------------------------------------------
# closed-form densities
# ---------------------------------------------------------------------------

def _unimodular_scalar(alpha):
    alpha = complex(np.asarray(alpha, dtype=complex).reshape(-1)[0])
    if abs(abs(alpha) - 1.0) > 1e-10:
        raise NonUnitaryError(
            f"coupling must be unimodular, |alpha| = {abs(alpha):.6f}")
    return alpha


def k1_density(alpha, s):
    """AC density of the K1 spectral measure at s, in closed form.

    Vanishes for s <= 0. For s > 0, with x = Re alpha, y = Im alpha and
    t = sqrt(2s):

        rho(s) = 2 t / (pi (s + 1 + t) D(s)),
        D(s) = |(alpha - 1) s + t + (i alpha - 1)|^2
             = 2(1-x) s^2 + 2^{3/2}(x-1) s^{3/2} + (4 - 2x + 2y) s
               - 2^{3/2}(y+1) sqrt(s) + (2 + 2y).
    """
    alpha = _unimodular_scalar(alpha)
    s = float(s)
    if s <= 0:
        return 0.0
    x, y = alpha.real, alpha.imag
    rt = math.sqrt(s)
    t = math.sqrt(2.0 * s)
    d = (2 * (1 - x) * s * s
         + 2 ** 1.5 * (x - 1) * s * rt
         + (4 - 2 * x + 2 * y) * s
         - 2 ** 1.5 * (y + 1) * rt
         + (2 + 2 * y))
    if d <= 0:
        # D is a squared modulus; a non-positive value only happens at an
        # embedded zero of (alpha - B), i.e. an atom boundary case
        raise SingularError(f"closed-form denominator vanished at s = {s}")
    return 2 * t / (math.pi * (s + 1 + t) * d)


# ---------------------------------------------------------------------------
# L1 atoms and weights
# ---------------------------------------------------------------------------

def l1_atoms(alpha, a, n_range):
    """Atom locations of the L1 measure: s_n = s_0 + n pi / a for n in the
    closed index range n_range = (lo, hi).

    The base point solves B(s) conj(alpha) = 1. Writing alpha = e^{i theta},
    i tanh(a) (conj(alpha)+1)/(conj(alpha)-1) = -tanh(a) cot(theta/2) is real
    for unimodular alpha, and s_0 = arctan of it divided by a. Evaluation
    goes through the half-angle so couplings near 1 do not cancel. alpha = 1
    is the degenerate case arctan(inf), handled as s_0 = pi/(2a) whenever
    tan(theta/2) underflows to zero; alpha = -1 gives s_0 = 0. A residual
    check of the atom equation at s_0 guards the computed base point.
    """
    alpha = _unimodular_scalar(alpha)
    a = float(a)
    if a <= 0:
        raise DomainError("interval half-length must be positive")
    theta = cmath.phase(alpha)
    half_tan = math.tan(theta / 2.0)
    if abs(abs(theta) - math.pi) < 1e-15:
        s0 = 0.0
    elif half_tan == 0.0:
        s0 = math.pi / (2 * a)
    else:
        s0 = math.atan(-math.tanh(a) / half_tan) / a
    resid = abs(l1_livsic(s0, a) * alpha.conjugate() - 1.0)
    if resid > 1e-6:
        raise ToleranceError(
            f"atom equation residual {resid:.3e} at base point s_0 = {s0!r}")
    lo, hi = n_range
    return sorted(s0 + n * math.pi / a for n in range(int(lo), int(hi) + 1))


def l1_weight(alpha, a, s):
    """Mass of the L1 atom at s:

        mu({s}) = (cosh 2a - cos 2sa) / (a pi sinh(2a) (1 + s^2)^2).

    DomainError when s is farther than 1e-8 from the atom lattice of
    alpha. At alpha = -1 this reduces to tanh(a)/(a pi (1+s^2)^2) on
    s = n pi / a, at alpha = +1 to coth(a)/(a pi (1+s^2)^2) on the shifted
    lattice.
    """
    alpha = _unimodular_scalar(alpha)
    a = float(a)
    s = float(s)
    base = l1_atoms(alpha, a, (0, 0))[0]
    n_star = round((s - base) / (math.pi / a))
    nearest = base + n_star * math.pi / a
    if abs(s - nearest) > 1e-8:
        raise DomainError(
            f"s = {s} is not an atom of the coupling (nearest atom {nearest})"
        )
    return (math.cosh(2 * a) - math.cos(2 * s * a)) / (
        a * math.pi * math.sinh(2 * a) * (1.0 + s * s) ** 2
    )


# ---------------------------------------------------------------------------
# generic atom scan (rank independent)
# ---------------------------------------------------------------------------

# Upper limit on the atom-scan grid and on the command line's --grid count,
# so a wide window, a tiny step or a huge count fails with a typed error
# instead of exhausting memory. The scans the package runs use at most
# about a thousand points.
MAX_SCAN_POINTS = 10 ** 6

# Golden-section refinement stops at brackets of _REFINE_TOL, and a refined
# minimum is kept as an atom when sigma_min there drops below _KEEP_TOL.
_REFINE_TOL = 1e-10
_KEEP_TOL = 1e-6
_INVPHI = (math.sqrt(5.0) - 1) / 2


def _golden_min(fun, lo, hi):
    """Golden-section minimizers of fun on the brackets [lo_i, hi_i], each
    down to a width of _REFINE_TOL; assumes a single interior minimum per
    bracket. The brackets run in lockstep: fun maps an array of points to
    an array of values and is called once per iteration, on one new point
    of every bracket still wider than _REFINE_TOL."""
    lo, hi = lo.copy(), hi.copy()
    c = hi - _INVPHI * (hi - lo)
    d = lo + _INVPHI * (hi - lo)
    fc, fd = np.split(fun(np.concatenate([c, d])), 2)
    live = np.flatnonzero(hi - lo > _REFINE_TOL)
    while live.size:
        left = fc[live] < fd[live]
        i, j = live[left], live[~left]
        # left: the minimum is in [lo, d], d <- c, and c is the new point;
        # right: it is in [c, hi], c <- d, and d is the new point
        hi[i], d[i], fd[i] = d[i], c[i], fc[i]
        c[i] = hi[i] - _INVPHI * (hi[i] - lo[i])
        lo[j], c[j], fc[j] = c[j], d[j], fd[j]
        d[j] = lo[j] + _INVPHI * (hi[j] - lo[j])
        new = np.where(left, c[live], d[live])
        val = fun(new)
        fc[i], fd[j] = val[left], val[~left]
        live = live[hi[live] - lo[live] > _REFINE_TOL]
    return 0.5 * (lo + hi)


def _v_polish(fun, s):
    """One polish step for V-shaped dips f(x) = c |x - x0| + O((x - x0)^2),
    for every point of s in one call of fun.

    Sampling at s - h and s + h, h = 1e-7 (1 + |s|), with |s - x0| < h gives
    the slope c from the sum and the offset from the difference. A point
    stays unchanged wherever the fit is invalid (non-finite slope or a
    correction larger than h).
    """
    h = 1e-7 * (1.0 + np.abs(s))
    fp, fm = np.split(fun(np.concatenate([s + h, s - h])), 2)
    with np.errstate(all="ignore"):
        c = (fp + fm) / (2.0 * h)
        delta = (fp - fm) / (2.0 * c)
    ok = np.isfinite(c) & (c > 0) & np.isfinite(delta) & (np.abs(delta) <= h)
    return np.where(ok, s - delta, s)


def atom_scan(b, alpha, window, step):
    """Locate atom candidates of the (B, alpha) measure inside window.

    Scans sigma_min(I - B(s) alpha*) on a uniform grid and golden-refines
    every finite local minimum (window edges included); only refined points
    whose sigma_min drops below _KEEP_TOL survive. The dips are narrow, so
    the coarse samples near an atom need not be small themselves; filtering
    happens after refinement. b is only called, each time on an array of
    points, returning a stack of n x n values: once on the grid, and then
    once per refinement step for all minima together. Points where B is
    not finite, and a call that fails numerically as a whole (package
    errors, LAPACK failures, overflow), count as +inf, which keeps the
    scan robust near degenerate boundary points; any other exception
    propagates.

    Each golden minimum gets one V-fit polish: sigma_min vanishes linearly
    at an atom, and the golden bracket alone leaves an offset around 1e-11.
    The polish pushes locations to near machine accuracy, and the residue
    masses are taken at them.

    step must keep distinct atoms at least two grid cells apart: a bracket
    that straddles two dips refines to only one of them. Model.scan_step
    is such a step for each model. DomainError for a step that is not
    finite and positive, and, before anything is allocated, for a grid of
    more than MAX_SCAN_POINTS points.
    """
    alpha = np.atleast_2d(np.asarray(alpha, dtype=complex))
    n = alpha.shape[0]
    eye = np.eye(n)

    def objective(s):
        out = np.full(s.size, np.inf)
        try:
            bv = np.asarray(b(s), dtype=complex).reshape(s.size, n, n)
        except (ClarkSpectraError, np.linalg.LinAlgError, ArithmeticError):
            return out
        m = eye - bv @ alpha.conj().T
        ok = np.isfinite(m).all(axis=(1, 2))
        if n == 1:
            out[ok] = np.abs(m[ok, 0, 0])
        elif ok.any():
            out[ok] = np.linalg.svd(m[ok], compute_uv=False)[:, -1]
        return out

    lo, hi = float(window[0]), float(window[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise DomainError(f"scan window must be finite with lo < hi, got {window!r}")
    step = float(step)
    if not (math.isfinite(step) and step > 0):
        raise DomainError(f"scan step must be finite and positive, got {step!r}")
    cells = (hi - lo) / step
    if not cells <= MAX_SCAN_POINTS - 1:
        raise DomainError(f"scan of {window!r} at step {step!r} exceeds the "
                          f"limit of {MAX_SCAN_POINTS} grid points")
    count = max(int(math.ceil(cells)) + 1, 8)
    grid = np.linspace(lo, hi, count)
    vals = objective(grid)
    padded = np.concatenate([[np.inf], vals, [np.inf]])
    minima = np.flatnonzero(np.isfinite(vals) & (vals <= padded[:-2])
                            & (vals <= padded[2:]))
    if minima.size == 0:
        return []
    s_star = _golden_min(objective, grid[np.maximum(minima - 1, 0)],
                         grid[np.minimum(minima + 1, count - 1)])
    s_star = _v_polish(objective, s_star)
    found = np.sort(s_star[objective(s_star) < _KEEP_TOL])
    out = []
    for s in found.tolist():
        if not out or abs(s - out[-1]) > 1e-8:
            out.append(s)
    return out


def l2_atoms(alpha, a, window):
    """Atoms of the L2 measure in the window, via a scan of the generic B at
    the model's scan_step."""
    model = l2(a)
    return atom_scan(livsic_function(model), alpha, window,
                     step=model.scan_step)
