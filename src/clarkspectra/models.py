"""The four concrete derivative-type models and their closed-form objects.

K models live on the half-line (0, inf):
    K1: -d^2/dx^2, deficiency rank 1
    K2: +d^4/dx^4, deficiency rank 2
L models live on the symmetric interval (-a, a):
    L1: i d/dx, rank 1
    L2: -d^2/dx^2, rank 2

Each model is its row of _ROWS and its interval length. The row gives its
square-integrable characteristic rates, on the closed upper half-plane and
on the decaying branch that defect_onb takes at -i, and with the
closed-form inner product that is all the generic machinery needs; both
take arrays of points. On top of that this module carries the rank-one
closed-form characteristic functions and densities and the L1 atom lattice
and weights, used as independent cross-checks of the generic pipeline.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .cplane import check_unitary, principal_power
from .defect import exp_inner_halfline, exp_inner_interval
from .errors import DomainError, SingularError, ToleranceError

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
]


# name -> (rank, order, halfline, upper, lower): the rates are w^(1/order)
# times upper on the closed upper half-plane, times lower below the axis
_ROWS = {"K1": (1, 2, True, [1j], [-1j]),
         "K2": (2, 4, True, [1j, -1.0], [-1.0, -1j]),
         "L1": (1, 1, False, [-1j], [-1j]),
         "L2": (2, 2, False, [-1j, 1j], [-1j, 1j])}


@dataclass(frozen=True)
class Model:
    """A concrete symmetric differential model with equal deficiency indices:
    a name with a row in _ROWS (DomainError otherwise) and the interval
    half-length a (None on the half-line). rank is the deficiency index n,
    order the order of the differential expression, both from the row.
    """

    name: str
    a: float = None

    rank = property(lambda self: _ROWS[self.name][0])
    order = property(lambda self: _ROWS[self.name][1])
    halfline = property(lambda self: _ROWS[self.name][2])

    def __post_init__(self):
        if self.name not in _ROWS:
            raise DomainError(f"unknown model {self.name!r}")
        if not self.halfline and not (self.a is not None and self.a > 0
                                      and math.isfinite(self.a)):
            raise DomainError(
                f"interval half-length must be positive, got {self.a}")

    def raw_rates(self, w):
        """Square-integrable characteristic exponents of the defect space at
        w, a scalar or an array; shape w.shape + (rank,): w^(1/order) times
        the row's multipliers. On the closed upper half-plane the upper
        branch (real w gives the limits from above, which every boundary
        evaluation uses); below the axis the decaying branch, taken at -i
        by defect_onb. The L rates are entire, one branch on both sides.
        """
        w = np.asarray(w, dtype=complex)
        _, order, _, upper, lower = _ROWS[self.name]
        root = principal_power(w, 1.0 / order)[..., None]
        below = (w.imag < 0)[..., None]
        if not below.any():
            return root * upper
        return np.where(below, root * lower, root * upper)

    @property
    def scan_step(self):
        """Twice the cell of the interval models' atom scan, the resolution
        of that scan. The scan's count is exact while arg det B(s) steps by
        less than 2 pi per cell. L1: pi/(8a), a sixteenth of the period of
        its scalar B, so below 2 pi (below pi for a >= 0.1). L2: at most a
        third of its Dirichlet gap (pi/(2a))^2 and at most 0.5, as near
        s = 0 its eigenphases sweep about 4 pi on a scale of 1 whatever a;
        so below 2. Infinite on the half-line, where the distance to the
        cut sizes the geometric grid."""
        if self.halfline:
            return math.inf
        step = math.pi / (8.0 * self.a)
        if self.name == "L2":
            # a * a, as a ** 2 raises on overflow: an overflow makes the
            # bound 0, which the scan refuses, an underflow leaves it out
            square = 12.0 * (self.a * self.a)
            step = min(step, math.pi ** 2 / square if square else math.inf, 0.5)
        return step

    def inner(self, mu, nu):
        """Closed-form <exp(mu x), exp(nu x)> on the model's domain; arrays
        broadcast."""
        if self.halfline:
            return exp_inner_halfline(mu, nu)
        return exp_inner_interval(mu, nu, self.a)


def k1():
    return Model("K1")


def k2():
    return Model("K2")


def l1(a):
    return Model("L1", float(a))


def l2(a):
    return Model("L2", float(a))


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

    Implemented as e^{-2a} expm1(2ia(w - i))/expm1(2ia(w + i)), the
    numerator as -e^{2iaw} expm1(-2ia(w - i)) below Im w = 1, so that no
    exponent has a positive real part on the closed upper half-plane, and
    expm1 keeps the digits of short intervals.
    """
    w = complex(w)
    if w.imag < 0:
        raise DomainError("characteristic function lives on the closed upper half-plane")
    a = float(a)
    z = 2j * a * (w - 1j)
    num = (math.exp(-2 * a) * np.expm1(z) if w.imag >= 1.0
           else -np.exp(2j * a * w) * np.expm1(-z))
    return complex(num / np.expm1(2j * a * (w + 1j)))


# ---------------------------------------------------------------------------
# closed-form densities
# ---------------------------------------------------------------------------

def k1_density(alpha, s):
    """AC density of the K1 spectral measure at s, in closed form.

    Vanishes for s <= 0. For s > 0, with x = Re alpha, y = Im alpha and
    t = sqrt(2s):

        rho(s) = 2 t / (pi (s + 1 + t) D(s)),
        D(s) = |(alpha - 1) s + t + (i alpha - 1)|^2
             = 2(1-x) s^2 + 2^{3/2}(x-1) s^{3/2} + (4 - 2x + 2y) s
               - 2^{3/2}(y+1) sqrt(s) + (2 + 2y).
    """
    alpha = complex(check_unitary(alpha, 1, "coupling")[0, 0])
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
# interval atoms: the L1 lattice and weights
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
    DomainError where the spacing pi/a, the length 2a or a lattice point is
    not a finite float.
    """
    alpha = complex(check_unitary(alpha, 1, "coupling")[0, 0])
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
    lo, hi = n_range
    locs = sorted(s0 + n * math.pi / a for n in range(int(lo), int(hi) + 1))
    if not all(map(math.isfinite, (math.pi / a, 2.0 * a, *locs))):
        raise DomainError(f"L1 atom lattice is out of float range at a = {a!r}")
    resid = abs(l1_livsic(s0, a) * alpha.conjugate() - 1.0)
    if resid > 1e-6:
        raise ToleranceError(
            f"atom equation residual {resid:.3e} at base point s_0 = {s0!r}")
    return locs


def l1_weight(alpha, a, s):
    """Mass of the L1 atom at s, a point or an array of points:

        mu({s}) = 2 (sinh^2 a + sin^2 s_0 a) / (a pi sinh(2a) (1 + s^2)^2),

    which is (cosh 2a - cos 2sa) / (...) without its cancellation on short
    intervals, as cos 2sa = cos 2 s_0 a on the lattice s_0 + n pi / a.
    A float for a point, an array of the shape of s otherwise; the base
    point s_0 is computed once per call. DomainError when any point is
    farther than 1e-8 from the atom lattice of alpha, and when a weight is
    not finite (a sinh(2a) underflows or sinh(2a) overflows). At alpha = -1
    this reduces to tanh(a)/(a pi (1+s^2)^2) on s = n pi / a, at alpha = +1
    to coth(a)/(a pi (1+s^2)^2) on the shifted lattice.
    """
    alpha = complex(check_unitary(alpha, 1, "coupling")[0, 0])
    a = float(a)
    pts = np.asarray(s, dtype=float)
    base = l1_atoms(alpha, a, (0, 0))[0]
    nearest = base + np.round((pts - base) / (math.pi / a)) * math.pi / a
    off = ~(np.abs(pts - nearest) <= 1e-8)
    if np.any(off):
        i = np.flatnonzero(off.reshape(-1))[0]
        raise DomainError(
            f"s = {float(pts.reshape(-1)[i])!r} is not an atom of the coupling "
            f"(nearest atom {float(nearest.reshape(-1)[i])!r})")
    with np.errstate(all="ignore"):
        weight = 2.0 * (np.sinh(a) ** 2 + math.sin(base * a) ** 2) / (
            a * math.pi * np.sinh(2 * a) * (1.0 + pts * pts) ** 2)
    if not np.all(np.isfinite(weight)):
        raise DomainError(f"L1 weight at a = {a!r} is not finite")
    return float(weight) if weight.ndim == 0 else weight
