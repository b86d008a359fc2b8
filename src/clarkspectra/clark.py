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
zero. The point mass is a limit, taken non-tangentially, w -> s from the
upper half-plane.
"""

from __future__ import annotations

import math

import numpy as np

from .cplane import nt_limit
from .errors import (ConvergenceError, DimensionError, DomainError,
                     NonUnitaryError)
from .livsic import _solve_small, conjugated_schur, transform_alpha

__all__ = [
    "check_alpha",
    "ac_density",
    "point_mass",
    "point_mass_with_retry",
    "conjugation_check",
]


def check_alpha(alpha, n, tol=1e-10):
    """Validate and return the perturbation parameter as an n x n unitary."""
    alpha = np.atleast_2d(np.asarray(alpha, dtype=complex))
    if alpha.shape != (n, n):
        raise DimensionError(f"perturbation parameter must be {n} x {n}, got {alpha.shape}")
    # "not <=" so that a NaN entry fails the test too
    if not np.max(np.abs(alpha.conj().T @ alpha - np.eye(n))) <= tol:
        raise NonUnitaryError("perturbation parameter is not unitary")
    return alpha


def _hermitize(m):
    return 0.5 * (m + m.conj().T)


def _density_value(bval, alpha):
    """(alpha* - B*)^{-1} (I - B* B) (alpha - B)^{-1} = X* (I - B* B) X with
    X = (alpha - B)^{-1}; SingularError when alpha - B is singular (an atom,
    not an AC point)."""
    eye = np.eye(bval.shape[0])
    x = _solve_small(alpha - bval, eye)
    return x.conj().T @ (eye - bval.conj().T @ bval) @ x


def ac_density(b, alpha, s):
    """Absolutely continuous density matrix of the (B, alpha) measure at s.

    b is a SchurFunction. For s > b.ac_edge the density sandwich is
    evaluated once, at the boundary value b(s); otherwise s lies off the
    model's essential spectrum and the result is an exact zero matrix,
    computed without evaluating b. The result is Hermitian by construction.
    """
    n = np.atleast_2d(np.asarray(alpha, dtype=complex)).shape[0]
    alpha = check_alpha(alpha, n)
    s = float(s)
    if not math.isfinite(s):
        raise DomainError(f"density point must be finite, got {s!r}")
    if s <= b.ac_edge:
        return np.zeros((n, n), dtype=complex)
    rho = _density_value(np.atleast_2d(b(s)), alpha)
    return _hermitize(rho) / (np.pi * (1.0 + s * s))


def point_mass(b, alpha, s, **limit_opts):
    """Mass mu({s}) of the (B, alpha) measure at the real point s.

    Returns the n x n (Hermitian, PSD) mass matrix; zero when s carries no
    atom. Along the vertical ladder the factor (s - w) equals -i eps.
    """
    n = np.atleast_2d(np.asarray(alpha, dtype=complex)).shape[0]
    alpha = check_alpha(alpha, n)
    s = float(s)
    eye = np.eye(n)

    def f(w):
        m = eye - np.atleast_2d(b(w)) @ alpha.conj().T
        return (s - w) * np.linalg.solve(m, eye)

    lim = np.atleast_2d(nt_limit(f, s, **limit_opts))
    pref = 2j / (np.pi * (1.0 + s * s) ** 2)
    return _hermitize(pref * lim)


def point_mass_with_retry(b, alpha, s):
    """point_mass at the default tolerance, retried once at rtol = 1e-6
    when the ladder stalls.

    Small atoms close to the continuum edge sit below the ladder's
    float-noise floor at the default budget; six relative digits is what
    the noise supports there and is plenty for tabulation. A second stall
    raises ConvergenceError.
    """
    try:
        return point_mass(b, alpha, s)
    except ConvergenceError:
        return point_mass(b, alpha, s, rtol=1e-6)


def conjugation_check(b2, r, q, alpha, s, kind="ac"):
    """Residual of the measure conjugation law at the real point s.

    Builds B1 = R B2 Q and compares measure(B1, alpha, s) against
    R measure(B2, R* alpha Q*, s) R*. kind selects the part: 'ac' for the
    density, 'atom' for the point mass. Returns the max-entry residual.
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
