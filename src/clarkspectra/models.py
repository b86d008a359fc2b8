"""The four concrete derivative-type models: the model catalog.

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
take arrays of points. The closed-form references of the rank-one models
live in oracle; the boundary-condition maps, one generic pair for all four
models, in extensions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cplane import principal_power
from .defect import exp_inner_halfline, exp_inner_interval
from .errors import DomainError

__all__ = ["Model", "k1", "k2", "l1", "l2"]


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

