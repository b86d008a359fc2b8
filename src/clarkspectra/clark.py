"""Matrix spectral measures of rank-n unitary perturbations.

Given the characteristic Schur function B of a model and a unitary parameter
alpha, the associated spectral measure splits into an absolutely continuous
part with matrix density

    rho(s) = (1/(pi (1+s^2))) * lim (alpha* - B*)^{-1} (I - B* B) (alpha - B)^{-1}

and point masses

    mu({s}) = (2i/(pi (1+s^2)^2)) * lim (s - w) (I - B(w) alpha*)^{-1},

both limits taken non-tangentially, w -> s from the upper half-plane. The
disk-side density uses the same sandwich with b(zeta) and a radial approach.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cplane import nt_limit, radial_limit
from .errors import (DimensionError, NonUnitaryError, SingularError,
                     ToleranceError)
from .livsic import conjugated_schur, transform_alpha

__all__ = [
    "check_alpha",
    "ac_density",
    "ac_density_disk",
    "point_mass",
    "nevanlinna",
    "conjugation_check",
    "MeasureReport",
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
    """(alpha* - B*)^{-1} (I - B* B) (alpha - B)^{-1} without explicit inverses."""
    m = alpha - bval
    n = np.eye(m.shape[0]) - bval.conj().T @ bval
    try:
        t = np.linalg.solve(m.conj().T, n)          # (M*)^{-1} N
        return np.linalg.solve(m.T, t.T).T          # ... M^{-1} from the right
    except np.linalg.LinAlgError as exc:
        raise SingularError(
            "alpha - B(w) is singular on the approach ladder; "
            "the target point is an atom candidate, not an AC point"
        ) from exc


def ac_density(b, alpha, s, **limit_opts):
    """Absolutely continuous density matrix of the (B, alpha) measure at s.

    b is a SchurFunction (or any callable on the closed upper half-plane);
    keyword options are forwarded to the non-tangential limit. The result is
    Hermitian by construction and positive semidefinite up to the limit
    tolerance.
    """
    n = np.atleast_2d(np.asarray(alpha, dtype=complex)).shape[0]
    alpha = check_alpha(alpha, n)
    s = float(s)

    def f(w):
        return _density_value(np.atleast_2d(b(w)), alpha)

    lim = np.atleast_2d(nt_limit(f, s, **limit_opts))
    return _hermitize(lim) / (np.pi * (1.0 + s * s))


def ac_density_disk(b, alpha, lam, **limit_opts):
    """Disk-side density at the unimodular point lam, radial approach.

    Evaluates (I - alpha b*)^{-1} (I - alpha b* b alpha*) (I - b alpha*)^{-1}
    at zeta = r lam, r -> 1-. Carries no Poisson-kernel prefactor; the
    half-plane density at s = inv_cayley-preimage is this value divided by
    pi (1 + s^2) after the change of variable.
    """
    n = np.atleast_2d(np.asarray(alpha, dtype=complex)).shape[0]
    alpha = check_alpha(alpha, n)

    def f(zeta):
        bz = np.atleast_2d(b(zeta))
        m = np.eye(n) - bz @ alpha.conj().T
        delta2 = np.eye(n) - alpha @ bz.conj().T @ bz @ alpha.conj().T
        try:
            t = np.linalg.solve(m.conj().T, delta2)
            return np.linalg.solve(m.T, t.T).T
        except np.linalg.LinAlgError as exc:
            raise SingularError(
                "I - b(zeta) alpha* is singular on the radial ladder"
            ) from exc

    lim = np.atleast_2d(radial_limit(f, lam, **limit_opts))
    return _hermitize(lim)


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


def nevanlinna(b, alpha, w):
    """Herglotz transform H(w) = (I - B alpha*)^{-1} (I + B alpha*).

    Its Hermitian part equals (I - K)^{-1} (I - K K*) (I - K*)^{-1} with
    K = B(w) alpha*, hence is positive semidefinite on the upper half-plane;
    the boundary density is that Hermitian part divided by pi (1 + s^2).
    """
    n = np.atleast_2d(np.asarray(alpha, dtype=complex)).shape[0]
    alpha = check_alpha(alpha, n)
    bv = np.atleast_2d(b(w))
    k = bv @ alpha.conj().T
    return np.linalg.solve(np.eye(n) - k, np.eye(n) + k)


def conjugation_check(b2, r, q, alpha, s, kind="ac", **limit_opts):
    """Residual of the measure conjugation law at the real point s.

    Builds B1 = R B2 Q and compares measure(B1, alpha, s) against
    R measure(B2, R* alpha Q*, s) R*. kind selects the part: 'ac' for the
    density, 'atom' for the point mass. Returns the max-entry residual.
    """
    b1 = conjugated_schur(b2, r, q)
    alpha2 = transform_alpha(alpha, r, q)
    r = np.atleast_2d(np.asarray(r, dtype=complex))
    if kind == "ac":
        m1 = ac_density(b1, alpha, s, **limit_opts)
        m2 = ac_density(b2, alpha2, s, **limit_opts)
    elif kind == "atom":
        m1 = point_mass(b1, alpha, s, **limit_opts)
        m2 = point_mass(b2, alpha2, s, **limit_opts)
    else:
        raise ValueError(f"kind must be 'ac' or 'atom', got {kind!r}")
    return float(np.max(np.abs(m1 - r @ m2 @ r.conj().T)))


@dataclass
class MeasureReport:
    """Computed description of a spectral measure on a grid plus atoms.

    density is a list of Hermitian PSD matrices matching grid; atoms is a
    list of (location, mass matrix) pairs with strictly increasing locations.
    """

    model: str
    alpha: np.ndarray
    grid: list = field(default_factory=list)
    density: list = field(default_factory=list)
    atoms: list = field(default_factory=list)

    def validate(self, tol=1e-8):
        for s, mat in zip(self.grid, self.density):
            mat = np.atleast_2d(mat)
            if np.max(np.abs(mat - mat.conj().T)) > tol:
                raise ToleranceError(f"density at s = {s} is not Hermitian")
            if np.min(np.linalg.eigvalsh(_hermitize(mat))) < -tol:
                raise ToleranceError(f"density at s = {s} is not PSD")
        locs = [s for s, _ in self.atoms]
        if any(b <= a for a, b in zip(locs, locs[1:])):
            raise ToleranceError("atom locations are not strictly increasing")
        for s, mat in self.atoms:
            mat = np.atleast_2d(mat)
            if np.max(np.abs(mat - mat.conj().T)) > tol:
                raise ToleranceError(f"atom mass at s = {s} is not Hermitian")
            if np.min(np.linalg.eigvalsh(_hermitize(mat))) < -tol:
                raise ToleranceError(f"atom mass at s = {s} is not PSD")
        return True
