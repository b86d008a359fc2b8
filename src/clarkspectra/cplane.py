"""Cayley transform, principal branches, boundary limits, unitary matrices.

The conformal map used throughout is gamma(w) = (w - i)/(w + i), which sends
the open upper half-plane onto the open unit disk with gamma(i) = 0; it is
the prefactor of every characteristic function. Boundary values of analytic
matrix functions are taken along vertical ladders w_k = s + i eps_0 2^{-k}
and accelerated by Richardson extrapolation in half-integer powers of eps,
which covers both analytic boundary behaviour and the sqrt-type behaviour
coming off a branch cut.
"""

from __future__ import annotations

import cmath

import numpy as np

from .errors import ConvergenceError, DimensionError, DomainError

__all__ = [
    "cayley",
    "principal_power",
    "nt_limit",
    "is_unitary",
    "random_unitary",
]


def _finite(w):
    w = complex(w)
    if not (cmath.isfinite(w)):
        raise DomainError(f"non-finite complex argument {w!r}")
    return w


def cayley(w):
    """Map the upper half-plane to the unit disk, gamma(w) = (w-i)/(w+i)."""
    w = _finite(w)
    if w == -1j:
        raise DomainError("cayley transform has a pole at w = -i")
    return (w - 1j) / (w + 1j)


def principal_power(w, p):
    """Principal branch of w**p, with a signed-zero guard on the cut.

    The C library puts complex(x, -0.0) on the lower side of the branch cut
    for negative real x. Boundary evaluation wants the upper continuation
    (argument in (-pi, pi]), so a zero imaginary part is normalized to +0.0
    before exponentiation. For real s > 0, principal_power(s, 1/2) is the
    positive root.
    """
    w = _finite(w)
    if w == 0 and p < 0:
        raise DomainError("negative power of zero")
    if w.imag == 0.0:
        w = complex(w.real, 0.0)
    return w ** p


# Ladder geometry: eps_k = _EPS0 2^{-k} for k = 0.._LEVELS, and at most
# _MAX_COLS columns in the Richardson table.
_EPS0 = 2.0 ** -4
_LEVELS = 30
_MAX_COLS = 12


def nt_limit(f, s, rtol=1e-8, atol=1e-12, full_output=False):
    """Non-tangential boundary limit of f at the real point s.

    Realized as the vertical approach w_k = s + i eps_k, eps_k = _EPS0 2^{-k},
    which lies inside every Stolz angle, and Richardson-extrapolated in the
    powers eps^(m/2), m = 1, 2, 3, ..., so the elimination ratios are
    beta_m = 2^(-m/2). Stops once the last two diagonal entries agree to
    atol + rtol * ||value||. The absolute floor matters: limits that are
    exactly zero (densities off the essential spectrum) never satisfy a
    purely relative test.

    f maps a complex point to a scalar or ndarray. With full_output=True
    returns (value, error_estimate, levels_used). Raises ConvergenceError
    when the ladder is exhausted before the diagonal settles.
    """
    s = float(s)
    prev_row = None
    best_err = np.inf
    for k in range(_LEVELS + 1):
        eps = _EPS0 * 2.0 ** (-k)
        val = np.asarray(f(s + 1j * eps), dtype=complex)
        if not np.all(np.isfinite(val)):
            raise ConvergenceError(
                f"ladder evaluation returned a non-finite value at eps = {eps:.3e}"
            )
        row = [val]
        if prev_row is not None:
            width = min(len(prev_row), _MAX_COLS - 1)
            for m in range(1, width + 1):
                beta = 2.0 ** (-m / 2.0)
                row.append((row[m - 1] - beta * prev_row[m - 1]) / (1.0 - beta))
            err = float(np.max(np.abs(row[-1] - row[-2])))
            best_err = min(best_err, err)
            tol = atol + rtol * float(np.max(np.abs(row[-1])))
            if err <= tol:
                out = row[-1] if row[-1].ndim else complex(row[-1])
                return (out, err, k) if full_output else out
        prev_row = row
    raise ConvergenceError(
        f"boundary limit did not settle within {_LEVELS} ladder levels "
        f"(best residual {best_err:.3e})"
    )


def is_unitary(m, tol=1e-10):
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"matrix must be square, got shape {m.shape}")
    return bool(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))) <= tol)


def random_unitary(n, rng):
    """Haar-distributed n x n unitary from a Ginibre sample and QR."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))
