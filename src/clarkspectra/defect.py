"""Exponential sums, closed-form inner products, defect subspace bases.

Every deficiency element of the derivative-type models is a finite sum of
exponentials c * exp(r x) living either on the half-line (0, inf) or on a
symmetric interval (-a, a). Inner products of such sums reduce to rational
resp. sinh expressions in the rates, so Gram matrices never need quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DivergenceError, DomainError, RankError

__all__ = [
    "HalfLine",
    "Interval",
    "ExpSum",
    "exp_inner_halfline",
    "exp_inner_interval",
    "expsum_inner",
    "defect_basis",
    "orthonormalize",
    "defect_onb",
]


@dataclass(frozen=True)
class HalfLine:
    """The domain (0, inf)."""


@dataclass(frozen=True)
class Interval:
    """The symmetric interval (-a, a)."""

    a: float

    def __post_init__(self):
        if not (self.a > 0 and np.isfinite(self.a)):
            raise DomainError(f"interval half-length must be positive, got {self.a}")


def exp_inner_halfline(mu, nu):
    """<exp(mu x), exp(nu x)> on (0, inf) = -1/(mu + conj(nu)); arrays
    broadcast.

    Requires Re(mu + conj(nu)) < 0; otherwise the integral diverges. NaN
    rates pass through as NaN.
    """
    z = np.asarray(mu, dtype=complex) + np.conj(nu)
    if (z.real >= 0).any():
        raise DivergenceError(
            f"exp pairing with combined rate {z} is not integrable on the half-line"
        )
    return (-1.0 / z)[()]


def exp_inner_interval(mu, nu, a, shift=0.0):
    """<exp(mu x), exp(nu x)> on (-a, a) = 2 sinh((mu + conj(nu)) a)/(mu + conj(nu)),
    times exp(-shift); arrays broadcast.

    The removable singularity at mu + conj(nu) = 0 (value 2a) is handled by a
    short Taylor expansion once |z a| drops below 1e-8. Where sinh would
    overflow, the scale goes into the exponentials, so a shift close to
    |Re z| a keeps the value finite however large z is.
    """
    if not a > 0:
        raise DomainError(f"interval half-length must be positive, got {a}")
    z = np.asarray(mu, dtype=complex) + np.conj(nu)
    za = z * a
    big = np.abs(za.real) >= 700.0
    small = np.abs(za) < 1e-8
    if not (big.any() or small.any()):
        return (2.0 * np.sinh(za) * np.exp(-shift) / z)[()]
    with np.errstate(all="ignore"):
        out = 2.0 * np.sinh(za) * np.exp(-shift) / z
        out = np.where(big, (np.exp(za - shift) - np.exp(-za - shift)) / z, out)
        out = np.where(small, 2.0 * a * (1.0 + za * za / 6.0 + za ** 4 / 120.0)
                       * np.exp(-shift), out)
    return out[()]


def _merge_terms(terms):
    merged = {}
    for coeff, rate in terms:
        rate = complex(rate)
        merged[rate] = merged.get(rate, 0.0) + complex(coeff)
    return tuple((c, r) for r, c in merged.items() if c != 0)


@dataclass(frozen=True)
class ExpSum:
    """A finite exponential sum sum_j c_j exp(r_j x) on a fixed domain.

    terms: tuple of (coefficient, rate) pairs, rates pairwise distinct.
    domain: HalfLine() or Interval(a). On the half-line every rate must have
    strictly negative real part so the function is square integrable.
    """

    terms: tuple
    domain: object = field(default_factory=HalfLine)

    def __post_init__(self):
        object.__setattr__(self, "terms", _merge_terms(self.terms))
        if isinstance(self.domain, HalfLine):
            for _, rate in self.terms:
                if rate.real >= 0:
                    raise DomainError(
                        f"half-line exponential sum has non-decaying rate {rate:.6g}"
                    )
        elif not isinstance(self.domain, Interval):
            raise DomainError(f"unknown domain {self.domain!r}")

    def __call__(self, x):
        return sum(c * np.exp(r * np.asarray(x, dtype=complex)) for c, r in self.terms)

    def derivative(self, order=1):
        return ExpSum(tuple((c * r ** order, r) for c, r in self.terms), self.domain)

    def __add__(self, other):
        if not isinstance(other, ExpSum):
            return NotImplemented
        if other.domain != self.domain:
            raise DomainError("cannot add exponential sums on different domains")
        return ExpSum(self.terms + other.terms, self.domain)

    def __neg__(self):
        return self.scale(-1.0)

    def __sub__(self, other):
        if not isinstance(other, ExpSum):
            return NotImplemented
        return self + other.scale(-1.0)

    def scale(self, c):
        return ExpSum(tuple((c * cj, rj) for cj, rj in self.terms), self.domain)


def expsum_inner(f, g):
    """L2 inner product of two exponential sums on a common domain,
    conjugate-linear in the second argument."""
    if f.domain != g.domain:
        raise DomainError(
            f"inner product across domains {f.domain!r} and {g.domain!r}"
        )
    if isinstance(f.domain, HalfLine):
        pair = exp_inner_halfline
    else:
        a = f.domain.a
        pair = lambda mu, nu: exp_inner_interval(mu, nu, a)
    total = 0.0 + 0.0j
    for cf, rf in f.terms:
        for cg, rg in g.terms:
            total += cf * cg.conjugate() * pair(rf, rg)
    return total


def defect_basis(model, w):
    """Raw (unnormalized) deficiency basis of the model at w, Im w != 0, as a
    tuple of ExpSum.

    The rates are the model's canonical square-integrable characteristic
    roots; each basis element is the bare exponential exp(r x).
    """
    w = complex(w)
    if w.imag == 0:
        raise DomainError("deficiency spaces are attached to non-real points")
    domain = HalfLine() if model.halfline else Interval(model.a)
    return tuple(ExpSum(((1.0, r),), domain) for r in model.raw_rates(w))


# Gram condition number above which a defect basis counts as degenerate
_COND_LIMIT = 1e12


def orthonormalize(funcs):
    """Classical Gram-Schmidt on a tuple of ExpSum, using the closed-form
    inner products. Leading coefficients come out positive real because each
    normalization divides by a positive norm.

    Raises RankError when the Gram matrix of the input is numerically rank
    deficient (condition number above _COND_LIMIT).
    """
    k = len(funcs)
    gram = np.empty((k, k), dtype=complex)
    for i in range(k):
        for j in range(k):
            gram[i, j] = expsum_inner(funcs[i], funcs[j])
    if np.linalg.cond(gram) > _COND_LIMIT:
        raise RankError(
            f"defect basis is numerically degenerate (Gram condition > {_COND_LIMIT:.1e})"
        )
    out = []
    for j in range(k):
        v = funcs[j]
        for u in out:
            v = v - u.scale(expsum_inner(funcs[j], u))
        norm2 = expsum_inner(v, v).real
        if norm2 <= 0:
            raise RankError("Gram-Schmidt hit a non-positive norm")
        out.append(v.scale(1.0 / np.sqrt(norm2)))
    return tuple(out)


@lru_cache(maxsize=64)
def defect_onb(model, sign):
    """Orthonormalized defect basis of the model at sign * i, sign '+' or
    '-'; computed once per model and sign."""
    return orthonormalize(defect_basis(model, 1j if sign == "+" else -1j))
