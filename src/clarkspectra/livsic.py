"""Characteristic (Schur-class) matrix functions of the derivative models.

For a model of deficiency rank n the characteristic function is

    B(w) = gamma(w) * A(w, +)^{-1} A(w, -),

where A(w, sign)[j, k] pairs the raw defect exponentials at w against the
orthonormalized defect basis at sign * i. B is an n x n Schur-class function
on the upper half-plane with B(i) = 0. Real-axis values are understood as
upper continuations: the raw rates carry their Im w >= 0 branch down to the
boundary, so B extends continuously to R minus the branch points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .cplane import cayley, is_unitary
from .defect import defect_onb
from .errors import DimensionError, DomainError, NonUnitaryError, SingularError

__all__ = [
    "SchurFunction",
    "gram_matrix",
    "livsic_eval",
    "livsic_function",
    "conjugated_schur",
    "transform_alpha",
]


@dataclass
class SchurFunction:
    """A contractive analytic matrix function on the upper half-plane.

    Calling it at w with Im w < 0 raises DomainError; real w is allowed and
    means the boundary continuation from above. ac_edge is where the
    essential spectrum of the underlying model begins: for every coupling
    the measure has no absolutely continuous part on s <= ac_edge.
    """

    n: int
    fn: object
    ac_edge: float
    label: str = ""

    def __call__(self, w):
        w = complex(w)
        if w.imag < 0:
            raise DomainError("Schur function evaluated below the real axis")
        return self.fn(w)


def gram_matrix(model, w, sign):
    """A(w, sign)[j, k] = <exp(rho_j(w) x), phi_k(sign * i)> in the model's L2,
    row j scaled by exp(-|Re rho_j| a) on the interval (-a, a).

    rho_j are the raw defect rates at w (upper branch on the real axis) and
    phi_k the orthonormal defect basis at +i or -i. sign is '+' or '-'. The
    row scale is the same for both signs, so it cancels from
    A(w, +)^{-1} A(w, -); it keeps the rows finite where exp(rho_j x)
    grows like exp(|Re rho_j| a), as on L2 far down the negative axis.
    """
    if sign not in ("+", "-"):
        raise DomainError(f"sign must be '+' or '-', got {sign!r}")
    w = complex(w)
    rates = model.raw_rates(w)
    onb = defect_onb(model, sign)
    n = len(rates)
    a = np.empty((n, n), dtype=complex)
    for j, rho in enumerate(rates):
        shift = 0.0 if model.halfline else abs(rho.real) * model.a
        for k, phi in enumerate(onb):
            a[j, k] = sum(c.conjugate() * model.inner(rho, r, shift)
                          for c, r in phi.terms)
    return a


def _solve_small(a, b, tol=1e-14):
    """a^{-1} b for n in {1, 2} via explicit formulas, keeping the
    singularity check independent of LAPACK behaviour. The entries are read
    out as Python complex numbers: scalar arithmetic on them is several
    times faster than on numpy scalars."""
    n = a.shape[0]
    if n > 2:
        return np.linalg.solve(a, b)
    e = a.ravel().tolist()
    scale = max(1.0, max(map(abs, e))) ** n
    det = e[0] if n == 1 else e[0] * e[3] - e[1] * e[2]
    if abs(det) < tol * scale:
        raise SingularError(f"{n} x {n} matrix is singular, |det| = {abs(det):.3e}")
    if n == 1:
        return b / det
    return np.array([[e[3], -e[1]], [-e[2], e[0]]]) @ b / det


def livsic_eval(model, w):
    """Characteristic function value B(w) = gamma(w) A(w,+)^{-1} A(w,-).

    Defined for Im w >= 0; real w gives the boundary continuation. Returns an
    n x n ndarray (also for n = 1).
    """
    w = complex(w)
    if w.imag < 0:
        raise DomainError("characteristic function is defined on the closed upper half-plane")
    a_plus = gram_matrix(model, w, "+")
    a_minus = gram_matrix(model, w, "-")
    return cayley(w) * _solve_small(a_plus, a_minus)


def livsic_function(model):
    """Package livsic_eval as a SchurFunction. The half-line models have
    essential spectrum [0, inf); the interval models have none."""
    return SchurFunction(n=model.rank, fn=lambda w: livsic_eval(model, w),
                         ac_edge=0.0 if model.halfline else math.inf,
                         label=model.name)


def conjugated_schur(b, r, q):
    """The Schur function w -> R b(w) Q for unitary R, Q."""
    r = np.atleast_2d(np.asarray(r, dtype=complex))
    q = np.atleast_2d(np.asarray(q, dtype=complex))
    if r.shape != (b.n, b.n) or q.shape != (b.n, b.n):
        raise DimensionError(
            f"conjugating matrices must be {b.n} x {b.n}, got {r.shape} and {q.shape}"
        )
    if not (is_unitary(r) and is_unitary(q)):
        raise NonUnitaryError("conjugating matrices must be unitary")
    return replace(b, fn=lambda w: r @ np.atleast_2d(b(w)) @ q,
                   label=(b.label + "~conj") if b.label else "conj")


def transform_alpha(alpha, r, q):
    """Perturbation parameter for B2 matching alpha for B1 = R B2 Q.

    If B1 = R B2 Q then I - B1 alpha* = R (I - B2 (R* alpha Q*)*) R*, so the
    measures satisfy measure(B1, alpha) = R measure(B2, R* alpha Q*) R*.
    """
    alpha = np.atleast_2d(np.asarray(alpha, dtype=complex))
    r = np.atleast_2d(np.asarray(r, dtype=complex))
    q = np.atleast_2d(np.asarray(q, dtype=complex))
    return r.conj().T @ alpha @ q.conj().T
