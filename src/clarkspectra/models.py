"""The four concrete derivative-type models and their closed-form objects.

K models live on the half-line (0, inf):
    K1: -d^2/dx^2, deficiency rank 1
    K2: +d^4/dx^4, deficiency rank 2
L models live on the symmetric interval (-a, a):
    L1: i d/dx, rank 1
    L2: -d^2/dx^2, rank 2

Each model knows its square-integrable characteristic rates (with the upper
continuation onto the real axis) and its closed-form inner product, which is
all the generic machinery needs. On top of that this module carries the
rank-one closed-form characteristic functions and densities and the L1 atom
lattice and weights, used as independent cross-checks of the generic
pipeline, plus the K2 boundary density and the atom scan built on the
generic characteristic function.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .clark import _density_value
from .cplane import principal_power
from .defect import exp_inner_halfline, exp_inner_interval
from .errors import (ClarkSpectraError, DomainError, NonUnitaryError,
                     SingularError, ToleranceError)
from .livsic import livsic_eval, livsic_function

__all__ = [
    "Model",
    "k1",
    "k2",
    "l1",
    "l2",
    "k1_livsic",
    "l1_livsic",
    "k1_density",
    "k2_density",
    "l1_atoms",
    "l1_weight",
    "l1_nonneg_product_check",
    "l2_atoms",
    "atom_scan",
    "ProductCheck",
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
        """Characteristic exponents of the defect space at w.

        For real w the rates are the limits from the upper half-plane, which
        is the continuation every boundary evaluation in the package uses.
        """
        w = complex(w)
        if self.name == "K1":
            root = principal_power(w, 0.5)
            return (1j * root,) if w.imag >= 0 else (-1j * root,)
        if self.name == "K2":
            root = principal_power(w, 0.25)
            if w.imag >= 0:
                return (1j * root, -root)
            return (-root, -1j * root)
        if self.name == "L1":
            return (-1j * w,)
        if self.name == "L2":
            root = principal_power(w, 0.5)
            return (-1j * root, 1j * root)
        raise DomainError(f"unknown model {self.name!r}")

    def inner(self, mu, nu):
        """Closed-form <exp(mu x), exp(nu x)> on the model's domain."""
        if self.halfline:
            return exp_inner_halfline(mu, nu)
        return exp_inner_interval(mu, nu, self.a)

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

def _unimodular_scalar(alpha, tol=1e-10):
    alpha = complex(np.asarray(alpha, dtype=complex).reshape(-1)[0])
    if abs(abs(alpha) - 1.0) > tol:
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


def k2_density(alpha, s):
    """AC density matrix of the K2 spectral measure at s, by direct boundary
    evaluation.

    The boundary value B(s) of the generic characteristic function enters
    the density sandwich directly (no limit ladder): with M = alpha - B(s),

        rho(s) = (M*)^{-1} (I - B(s)* B(s)) M^{-1} / (pi (1 + s^2)).

    Zero matrix for s <= 0. SingularError when |det M| < 1e-12 (atom or
    embedded singularity).
    """
    alpha = np.atleast_2d(np.asarray(alpha, dtype=complex))
    if alpha.shape != (2, 2):
        raise DomainError(f"K2 coupling must be 2 x 2, got {alpha.shape}")
    s = float(s)
    if s <= 0:
        return np.zeros((2, 2))
    b = livsic_eval(k2(), s)
    det = np.linalg.det(alpha - b)
    if abs(det) < 1e-12:
        raise SingularError(f"alpha - B(s) singular at s = {s}, |det| = {abs(det):.3e}")
    out = _density_value(b, alpha) / (math.pi * (1.0 + s * s))
    return 0.5 * (out + out.conj().T)


# ---------------------------------------------------------------------------
# L1 atoms and weights
# ---------------------------------------------------------------------------

def _as_n_iter(n_range):
    if isinstance(n_range, tuple) and len(n_range) == 2:
        lo, hi = int(n_range[0]), int(n_range[1])
        return range(lo, hi + 1)
    return [int(n) for n in n_range]


def l1_atoms(alpha, a, n_range):
    """Atom locations of the L1 measure: s_n = s_0 + n pi / a.

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
    return sorted(s0 + n * math.pi / a for n in _as_n_iter(n_range))


def l1_weight(alpha, a, s, tol=1e-8):
    """Mass of the L1 atom at s:

        mu({s}) = (cosh 2a - cos 2sa) / (a pi sinh(2a) (1 + s^2)^2).

    DomainError when s is not on the atom lattice of alpha (distance checked
    against tol). At alpha = -1 this reduces to tanh(a)/(a pi (1+s^2)^2) on
    s = n pi / a, at alpha = +1 to coth(a)/(a pi (1+s^2)^2) on the shifted
    lattice.
    """
    alpha = _unimodular_scalar(alpha)
    a = float(a)
    s = float(s)
    base = l1_atoms(alpha, a, (0, 0))[0]
    n_star = round((s - base) / (math.pi / a))
    nearest = base + n_star * math.pi / a
    if abs(s - nearest) > tol:
        raise DomainError(
            f"s = {s} is not an atom of the coupling (nearest atom {nearest})"
        )
    return (math.cosh(2 * a) - math.cos(2 * s * a)) / (
        a * math.pi * math.sinh(2 * a) * (1.0 + s * s) ** 2
    )


ProductCheck = namedtuple("ProductCheck", ["sign", "negative_factors", "value"])


def l1_nonneg_product_check(alpha, a, s, big_k):
    """Sign bookkeeping for the truncated product form of the L1 weight.

    Uses sin(2sa) = 2sa prod_k (1 - (2sa/(k pi))^2) to write the generic
    weight as -2s/(pi Im(alpha) (1+s^2)^2) times the product, truncated at
    k = big_k. Requires Im(alpha) != 0 and big_k >= ceil(2|s|a/pi) so all
    sign-carrying factors are present.
    """
    alpha = _unimodular_scalar(alpha)
    if abs(alpha.imag) < 1e-14:
        raise DomainError("product form needs a coupling with nonzero imaginary part")
    a = float(a)
    s = float(s)
    needed = math.ceil(2 * abs(s) * a / math.pi)
    if big_k < needed:
        raise DomainError(f"truncation K = {big_k} below required {needed}")
    x = 2 * s * a / math.pi
    value = -2 * s / (math.pi * alpha.imag * (1.0 + s * s) ** 2)
    negative = 0
    for k in range(1, big_k + 1):
        factor = 1.0 - (x / k) ** 2
        if factor < 0:
            negative += 1
        value *= factor
    sign = 0 if value == 0 else (1 if value > 0 else -1)
    return ProductCheck(sign=sign, negative_factors=negative, value=value)


# ---------------------------------------------------------------------------
# generic atom scan (rank independent)
# ---------------------------------------------------------------------------

def _golden_min(fun, lo, hi, tol=1e-10):
    """Golden-section minimizer; assumes a single interior minimum."""
    invphi = (math.sqrt(5.0) - 1) / 2
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = fun(c), fun(d)
    while hi - lo > tol:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = fun(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = fun(d)
    return 0.5 * (lo + hi)


def _v_polish(fun, s, h):
    """One polish step for a V-shaped dip f(x) = c |x - x0| + O((x - x0)^2).

    Sampling at s - h and s + h with |s - x0| < h gives the slope c from the
    sum and the offset from the difference. Returns s unchanged whenever the
    fit is invalid (non-finite slope or a correction larger than h).
    """
    fp, fm = fun(s + h), fun(s - h)
    c = (fp + fm) / (2.0 * h)
    if not (np.isfinite(c) and c > 0):
        return s
    delta = (fp - fm) / (2.0 * c)
    if not np.isfinite(delta) or abs(delta) > h:
        return s
    return s - delta


# Upper limit on the atom-scan grid, so a wide window or a tiny step fails
# with a typed error instead of exhausting memory. The scans the package
# runs use at most about a thousand points.
MAX_SCAN_POINTS = 10 ** 6


def atom_scan(b, alpha, window, step, scan_tol=np.inf, keep_tol=1e-6,
              refine_tol=1e-10):
    """Locate atom candidates of the (B, alpha) measure inside window.

    Scans sigma_min(I - B(s) alpha*) on a uniform grid and golden-refines
    every local minimum (window edges included); only refined points whose
    sigma_min drops below keep_tol survive. The dips are narrow, so the
    coarse samples near an atom need not be small themselves; filtering
    happens after refinement. scan_tol optionally prunes the refinement list
    when the objective is known to stay small near atoms. Numerical
    evaluation failures (package errors, LAPACK failures, overflow) count as
    +inf, which keeps the scan robust near degenerate boundary points; any
    other exception propagates.

    Each golden minimum gets one V-fit polish: sigma_min vanishes linearly
    at an atom, and the golden bracket alone leaves an offset around 1e-11
    that is enough to stall the boundary limit ladder of a subsequent
    point-mass evaluation. The polish pushes locations to near machine
    accuracy.

    step must keep distinct atoms at least two grid cells apart: a bracket
    that straddles two dips refines to only one of them. The interval
    lattices have spacing pi/a (first order) or at least on the order of
    (pi/2a)^2 (second order), so pi/(8a) is comfortable there; the
    half-line families have no such floor and need a step chosen for the
    coupling at hand. DomainError for a step that is not finite and
    positive, and, before anything is allocated, for a grid of more than
    MAX_SCAN_POINTS points.
    """
    alpha = np.atleast_2d(np.asarray(alpha, dtype=complex))
    n = alpha.shape[0]
    eye = np.eye(n)

    def objective(s):
        try:
            bv = np.atleast_2d(b(s))
            return float(np.linalg.svd(eye - bv @ alpha.conj().T, compute_uv=False)[-1])
        except (ClarkSpectraError, np.linalg.LinAlgError, ArithmeticError):
            return np.inf

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
    vals = np.array([objective(s) for s in grid])
    found = []
    for i in range(len(grid)):
        left = vals[i - 1] if i > 0 else np.inf
        right = vals[i + 1] if i < len(grid) - 1 else np.inf
        if vals[i] < scan_tol and vals[i] <= left and vals[i] <= right:
            blo = grid[max(i - 1, 0)]
            bhi = grid[min(i + 1, len(grid) - 1)]
            s_star = _golden_min(objective, blo, bhi, tol=refine_tol)
            s_star = _v_polish(objective, s_star, h=1e-7 * (1.0 + abs(s_star)))
            if objective(s_star) < keep_tol:
                found.append(s_star)
    found.sort()
    out = []
    for s in found:
        if not out or abs(s - out[-1]) > 1e-8:
            out.append(s)
    return out


def l2_atoms(alpha, a, window):
    """Atoms of the L2 measure in the window, via a scan of the generic B.

    The eigenvalues of the interval problem are spaced at least on the order
    of (pi/(2a))^2 apart, so a grid step of pi/(8a) brackets each one
    individually for every window that matters in practice.
    """
    a = float(a)
    return atom_scan(livsic_function(l2(a)), alpha, window,
                     step=math.pi / (8 * a))
