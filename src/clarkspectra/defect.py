"""Closed-form inner products of exponentials and the orthonormal defect bases.

Every deficiency element of the derivative-type models is a finite sum of
exponentials on the model's domain, the half-line (0, inf) or a symmetric
interval (-a, a). Such functions are a pair of arrays (coeffs, rates),
meaning sum_m coeffs[..., m] exp(rates[m] x): coeffs has shape (m,) for one
function and (k, m) for k functions over the same rates. Inner products of
exponentials reduce to rational resp. sinh expressions in the rates, so
Gram matrices never need quadrature, and an orthonormal basis is the
inverse Cholesky factor of one of them.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DivergenceError, DomainError, RankError

__all__ = [
    "exp_inner_halfline",
    "exp_inner_interval",
    "defect_onb",
]


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


# Taylor coefficients of sinh(sqrt u)/sqrt u = sum_k u^k/(2k+1)!; eleven
# terms leave a remainder below 1e-19 for |u| <= 1
_SINHC = np.array([1.0 / math.factorial(2 * k + 1) for k in range(11)])
_SINHC_SLOPE = _SINHC[1:] * np.arange(1, 11)


def _sinhc(u, slope=False):
    """sinh(sqrt u)/sqrt u, or its derivative in u, for |u| <= 1 (Horner)."""
    out = 0.0
    for coeff in (_SINHC_SLOPE if slope else _SINHC)[::-1]:
        out = out * u + coeff
    return out


def _cosh_sinh(z, a, shift, slope=False):
    """cosh(za) and sinh(za)/z, with slope also d/d(z^2) of sinh(za)/z,
    each times exp(-shift); z an array. The last two come from _sinhc of
    u = (za)^2 where |za| <= 1, since their closed forms cancel there."""
    za = z * a
    with np.errstate(all="ignore"):
        up, down = np.exp(za - shift), np.exp(-za - shift)
        out = [0.5 * (up + down), (up - down) / (2.0 * z)]
        if slope:
            out.append((a * out[0] - out[1]) / (2.0 * z * z))
    small = np.abs(za) <= 1.0
    if small.any():
        u, scale = (za * za)[small], np.broadcast_to(np.exp(-shift), za.shape)[small]
        out[1][small] = a * _sinhc(u) * scale
        if slope:
            out[2][small] = a * a * a * _sinhc(u, slope=True) * scale
    return out


def exp_inner_interval(mu, nu, a):
    """<exp(mu x), exp(nu x)> on (-a, a) = 2 sinh((mu + conj(nu)) a)/(mu + conj(nu));
    arrays broadcast.

    From _cosh_sinh, with the series at the removable singularity
    mu + conj(nu) = 0 (value 2a).
    """
    if not a > 0:
        raise DomainError(f"interval half-length must be positive, got {a}")
    z = np.asarray(mu, dtype=complex) + np.conj(nu)
    with np.errstate(all="ignore"):
        out = 2.0 * _cosh_sinh(np.atleast_1d(z), a, 0.0)[1]
    return out.reshape(z.shape)[()]


# Gram condition number above which a defect basis counts as degenerate
_COND_LIMIT = 1e12


@lru_cache(maxsize=64)
def defect_onb(model, sign):
    """Orthonormal defect basis of the model at sign * i, sign '+' or '-',
    as a pair (coeffs, rates); computed once per model and sign.

    rates are model.raw_rates(sign * i), and basis element k is
    sum_m coeffs[k, m] exp(rates[m] x). coeffs is the inverse of the
    Cholesky factor of the Gram matrix G[j, m] = <exp(rates[j] x),
    exp(rates[m] x)>, so coeffs G coeffs* = I: lower triangular with a
    positive diagonal, which is Gram-Schmidt on the exponentials in the
    order of the rates. DomainError when G is not finite (exp(rate a)
    overflows on a very long interval); RankError when G is numerically
    rank deficient (condition number above _COND_LIMIT, or not positive
    definite).
    """
    rates = model.raw_rates(1j if sign == "+" else -1j)
    gram = model.inner(rates[:, None], rates[None, :])
    if not np.all(np.isfinite(gram)):
        raise DomainError(f"Gram matrix of the defect basis of {model.name} "
                          f"is not finite at a = {model.a!r}")
    if np.linalg.cond(gram) > _COND_LIMIT:
        raise RankError(
            f"defect basis is numerically degenerate (Gram condition > {_COND_LIMIT:.1e})"
        )
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise RankError("Gram matrix of the defect basis is not positive "
                        "definite") from exc
    # forward substitution for chol^{-1}, row by row, keeps the upper
    # triangle exactly zero and the diagonal exactly 1/chol[k, k]
    eye = np.eye(len(rates))
    coeffs = np.zeros_like(chol)
    for k in range(len(rates)):
        coeffs[k] = (eye[k] - chol[k, :k] @ coeffs[:k]) / chol[k, k]
    coeffs.flags.writeable = rates.flags.writeable = False
    return coeffs, rates
