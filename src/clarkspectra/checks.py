"""End-to-end verification battery.

Each check_n function realizes one acceptance criterion and returns a
CheckResult; run_all executes a subset or all of them. The test suite and
the command-line verify subcommand both call into this module so there is a
single source of truth for what "working" means.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass

import numpy as np

from . import clark, extensions, livsic, models, oracle
from .cplane import random_unitary
from .defect import ExpSum, HalfLine, Interval, defect_basis, orthonormalize

__all__ = ["CheckResult", "run_all", "ALL_CHECKS"]


@dataclass
class CheckResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float = 0.0

    def line(self):
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag} criterion {self.number:2d} [{self.name}] {self.detail} ({self.seconds:.2f}s)"


_L1_COUPLINGS = (1.0, -1.0, 1j, cmath.exp(1j * math.pi / 3))


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def check_1(seed=0):
    """L1 atom locations: generic scan + mass confirmation vs closed lattice."""
    b = livsic.livsic_function(models.l1(1.0))
    worst = 0.0
    for alpha in _L1_COUPLINGS:
        closed = models.l1_atoms(alpha, 1.0, (-10, 10))
        window = (closed[0] - 0.5, closed[-1] + 0.5)
        found = models.atom_scan(b, [[alpha]], window, step=math.pi / 8)
        if len(found) != len(closed):
            return False, (f"coupling {alpha}: found {len(found)} atoms, "
                           f"expected {len(closed)}")
        worst = max(worst, max(abs(f - c) for f, c in zip(found, closed)))
        for s in found[::5]:
            mass = clark.point_mass(b, [[alpha]], s)[0, 0].real
            if mass <= 1e-12:
                return False, f"non-positive mass {mass:.3e} at s = {s:.6f}"
    return worst <= 1e-8, f"max location deviation {worst:.2e} over 4 couplings"


def check_2(seed=0):
    """L1 atom masses: measure-limit values vs the closed weight formula."""
    b = livsic.livsic_function(models.l1(1.0))
    worst = 0.0
    for alpha in _L1_COUPLINGS:
        for s in models.l1_atoms(alpha, 1.0, (-10, 10)):
            pm = clark.point_mass(b, [[alpha]], s)[0, 0].real
            w = models.l1_weight(alpha, 1.0, s)
            worst = max(worst, _rel(pm, w))
    coth = math.cosh(1.0) / math.sinh(1.0)
    for s in models.l1_atoms(1.0, 1.0, (-10, 10)):
        ref = coth / (math.pi * (1.0 + s * s) ** 2)
        if _rel(models.l1_weight(1.0, 1.0, s), ref) > 1e-12:
            return False, f"closed weight mismatch at s = {s:.6f}"
    return worst <= 1e-6, f"max relative mass deviation {worst:.2e}"


def check_3(seed=0):
    """L1 eigenvalues: direct formula vs the boundary-map + atom route."""
    cut = 8.0 + 1e-6
    worst = 0.0
    for j in range(16):
        beta = cmath.exp(2j * math.pi * j / 16.0)
        direct = [s for s in oracle.l1_eigenvalues_direct(beta, 1.0, (-12, 12))
                  if abs(s) <= cut]
        alpha = extensions.alpha_from_bc_l1(beta, 1.0)
        atoms = [s for s in models.l1_atoms(alpha, 1.0, (-12, 12))
                 if abs(s) <= cut]
        if len(direct) != len(atoms):
            return False, f"count mismatch at arg beta = {2 * j}pi/16"
        worst = max(worst, max(abs(d - t) for d, t in zip(direct, atoms)))
    return worst <= 1e-8, f"max eigenvalue deviation {worst:.2e} over 16 couplings"


def check_4(seed=0):
    """Antiperiodic-free case alpha = -1: weights vs the summable series."""
    t = math.tanh(1.0)
    worst = 0.0
    total_w = 0.0
    total_t = 0.0
    for n in range(-10000, 10001):
        s = n * math.pi
        w = models.l1_weight(-1.0, 1.0, s)
        term = t / (math.pi * (1.0 + s * s) ** 2)
        worst = max(worst, abs(w - term))
        total_w += w
        total_t += term
    ok = worst <= 1e-9 and abs(total_w - total_t) <= 1e-9
    return ok, f"max term deviation {worst:.2e}, sums differ by {abs(total_w - total_t):.2e}"


def check_5(seed=0):
    """K1 density: generic boundary limit vs closed form, plus vanishing."""
    b = livsic.livsic_function(models.k1())
    worst = 0.0
    for alpha in (1.0, -1.0, 1j):
        for s in (0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0):
            gen = clark.ac_density(b, [[alpha]], s)[0, 0].real
            clo = models.k1_density(alpha, s)
            worst = max(worst, _rel(gen, clo))
        for s in (-5.0, -1.0, 0.0):
            gen = clark.ac_density(b, [[alpha]], s)[0, 0].real
            if abs(gen) > 1e-10:
                return False, f"density not vanishing at s = {s} (got {gen:.3e})"
            if models.k1_density(alpha, s) != 0.0:
                return False, f"closed density not zero at s = {s}"
    return worst <= 1e-6, f"max relative density deviation {worst:.2e}"


def check_6(seed=0):
    """K2 density: boundary-limit ladder vs direct boundary evaluation,
    Hermitian and PSD."""
    rng = np.random.default_rng([seed, 6])
    b = livsic.livsic_function(models.k2())
    worst = 0.0
    for alpha in (random_unitary(2, rng) for _ in range(3)):
        for s in (0.3, 0.7, 1.5, 3.0, 7.0):
            gen = clark.ac_density(b, alpha, s, rtol=1e-10, atol=1e-13)
            direct = models.k2_density(alpha, s)
            worst = max(worst, float(np.max(np.abs(gen - direct))))
            for mat, tag in ((gen, "generic"), (direct, "direct")):
                if np.max(np.abs(mat - mat.conj().T)) > 1e-10:
                    return False, f"{tag} density not Hermitian at s = {s}"
                if np.min(np.linalg.eigvalsh(mat)) < -1e-10:
                    return False, f"{tag} density not PSD at s = {s}"
    return worst <= 1e-6, f"max entrywise deviation {worst:.2e}"


def _dirichlet_bm():
    return extensions.BoundaryMatrices([[1, 0], [0, 0]], [[0, 0], [1, 0]])


def _periodic_bm():
    return extensions.BoundaryMatrices(np.eye(2), -np.eye(2))


def check_7(seed=0):
    """L2 atoms against the finite-difference eigenvalue oracle."""
    worst = 0.0
    for a in (1.0, math.pi / 2):
        for bm, label, kmax in ((_dirichlet_bm(), "dirichlet", 5),
                                (_periodic_bm(), "periodic", 4)):
            if label == "dirichlet":
                hi = (5.0 * math.pi / (2 * a)) ** 2 * 1.05 + 1.0
            else:
                hi = (4.0 * math.pi / a) ** 2 * 1.05 + 1.0
            window = (-1.0, hi)
            alpha = extensions.alpha_from_bc_regular(models.l2(a), bm)
            atoms = models.l2_atoms(alpha, a, window)[:5]
            if len(atoms) < 5:
                return False, f"{label} a={a:.3f}: only {len(atoms)} atoms found"
            fd = oracle.l2_eigenvalues_fd(bm, a, window, grid_points=400)
            merged = []
            for v in fd:
                if merged and abs(v - merged[-1]) < 1e-4 * (1.0 + abs(v)):
                    merged[-1] = 0.5 * (merged[-1] + v)
                else:
                    merged.append(v)
            for s in atoms:
                err = min(abs(s - v) for v in merged)
                worst = max(worst, err)
                if err > 1e-3:
                    return False, (f"{label} a={a:.3f}: atom {s:.6f} off the "
                                   f"oracle by {err:.2e}")
    return True, f"max atom-vs-oracle deviation {worst:.2e}"


def check_8(seed=0):
    """Unitary conjugation covariance of densities and masses."""
    rng = np.random.default_rng([seed, 8])
    cases = [
        (models.k1(), "ac", 2.0, np.array([[1j]])),
        (models.k2(), "ac", 1.5, random_unitary(2, rng)),
        (models.l1(1.0), "atom", math.pi, np.array([[-1.0 + 0.0j]])),
        (models.l2(1.0), "atom", math.pi ** 2,
         extensions.alpha_from_bc_regular(models.l2(1.0), _periodic_bm())),
    ]
    worst = 0.0
    for model, kind, s, alpha in cases:
        b2 = livsic.livsic_function(model)
        n = model.rank
        for _ in range(10):
            r = random_unitary(n, rng)
            q = random_unitary(n, rng)
            res = clark.conjugation_check(b2, r, q, alpha, s, kind=kind)
            worst = max(worst, res)
            if res > 1e-6:
                return False, f"{model.name} {kind}: residual {res:.2e}"
    return True, f"max conjugation residual {worst:.2e}"


def check_9(seed=0):
    """Schur bound and the normalization B(i) = 0 for all four models."""
    rng = np.random.default_rng([seed, 9])
    worst_sigma = 0.0
    for model in (models.k1(), models.k2(), models.l1(1.0), models.l2(1.0)):
        b = livsic.livsic_function(model)
        center = np.max(np.abs(np.atleast_2d(b(1j))))
        if center > 1e-12:
            return False, f"{model.name}: B(i) = {center:.3e}"
        for _ in range(200):
            w = complex(rng.uniform(-15, 15), rng.uniform(0.02, 8.0))
            sigma = float(np.linalg.norm(np.atleast_2d(b(w)), 2))
            worst_sigma = max(worst_sigma, sigma)
            if sigma > 1.0 + 1e-9:
                return False, f"{model.name}: sigma_max = {sigma:.12f} at w = {w:.4f}"
    return True, f"largest singular value observed {worst_sigma:.12f}"


def check_10(seed=0):
    """Pairing matrices vs adaptive quadrature at random points."""
    rng = np.random.default_rng([seed, 10])
    worst = 0.0
    for model in (models.k1(), models.k2(), models.l1(1.0), models.l2(1.0)):
        domain = HalfLine() if model.halfline else Interval(model.a)
        onb = {sign: orthonormalize(defect_basis(model, z)).functions
               for sign, z in (("+", 1j), ("-", -1j))}
        for _ in range(20):
            w = complex(rng.uniform(-5, 5), rng.uniform(0.1, 3.0))
            raw = [ExpSum(((1.0, r),), domain) for r in model.raw_rates(w)]
            for sign in ("+", "-"):
                amat = livsic.gram_matrix(model, w, sign)
                for j, f in enumerate(raw):
                    for k, g in enumerate(onb[sign]):
                        ref = oracle.quad_inner(f, g)
                        worst = max(worst, abs(amat[j, k] - ref))
    return worst <= 1e-8, f"max pairing-vs-quadrature deviation {worst:.2e}"


def check_11(seed=0):
    """Robin bound state: strictly positive mass at the predicted point."""
    out = oracle.k1_bound_state_check(1.0, 1.0)
    if out is None:
        return False, "no bound state reported for sigma = 1"
    location, weight = out
    if abs(location + 1.0) > 1e-12:
        return False, f"bound state at {location:.2e}, expected -1"
    if weight <= 1e-12:
        return False, f"non-positive mass {weight:.3e}"
    return True, f"mass {weight:.10f} at s = -1"


def check_12(seed=0):
    """Self-adjointness validator: accept conforming, reject violations."""
    rng = np.random.default_rng([seed, 12])
    good = [_dirichlet_bm(), _periodic_bm()]
    for _ in range(3):
        good.append(extensions.bc_from_alpha_regular(models.l2(1.0),
                                                     random_unitary(2, rng)))
    for i, bm in enumerate(good):
        if not extensions.validate_sa_matrices(bm):
            return False, f"conforming example {i} rejected"
    rejected = 0
    for _ in range(20):
        u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        t = complex(rng.standard_normal(), rng.standard_normal())
        bm = extensions.BoundaryMatrices(np.vstack([u, t * u]),
                                         np.vstack([v, t * v]))
        if not extensions.validate_sa_matrices(bm):
            rejected += 1
    for _ in range(20):
        base = extensions.bc_from_alpha_regular(models.l2(1.0),
                                                random_unitary(2, rng))
        while True:
            pert = 0.3 * (rng.standard_normal((2, 2))
                          + 1j * rng.standard_normal((2, 2)))
            bm = extensions.BoundaryMatrices(base.beta_a + pert, base.beta_b)
            c = bm.c
            defect = np.max(np.abs(bm.beta_a @ c @ bm.beta_a.conj().T
                                   - bm.beta_b @ c @ bm.beta_b.conj().T))
            sv = np.linalg.svd(np.hstack([bm.beta_a, bm.beta_b]),
                               compute_uv=False)
            if defect > 1e-6 and sv[-1] > 1e-6 * sv[0]:
                break
        if not extensions.validate_sa_matrices(bm):
            rejected += 1
    ok = rejected == 40
    return ok, f"rejected {rejected}/40 randomized violations, accepted {len(good)} conforming"


ALL_CHECKS = [
    (1, "l1 atom locations", check_1),
    (2, "l1 atom masses", check_2),
    (3, "l1 eigenvalue routes", check_3),
    (4, "l1 mass series", check_4),
    (5, "k1 density closed form", check_5),
    (6, "k2 density closed form", check_6),
    (7, "l2 atoms vs fd oracle", check_7),
    (8, "conjugation covariance", check_8),
    (9, "schur bound", check_9),
    (10, "pairings vs quadrature", check_10),
    (11, "robin bound state", check_11),
    (12, "sa validator", check_12),
]


def run_all(seed=0, numbers=None):
    """Run the selected criteria (all by default); returns CheckResults."""
    results = []
    for number, name, fn in ALL_CHECKS:
        if numbers is not None and number not in numbers:
            continue
        t0 = time.perf_counter()
        try:
            passed, detail = fn(seed)
        except Exception as exc:  # a crash is a failure with diagnostics
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(number=number, name=name, passed=passed,
                                   detail=detail,
                                   seconds=time.perf_counter() - t0))
    return results
