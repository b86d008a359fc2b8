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

from . import clark, defect, extensions, livsic, models, oracle
from .cplane import cayley, random_unitary

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
    return np.abs(a - b) / np.maximum(np.abs(b), 1e-300)


def check_1(seed=0):
    """L1 atom locations: generic scan and its masses vs closed lattice."""
    b = livsic.livsic_function(models.l1(1.0))
    worst = 0.0
    for alpha in _L1_COUPLINGS:
        closed = models.l1_atoms(alpha, 1.0, (-10, 10))
        window = (closed[0] - 0.5, closed[-1] + 0.5)
        found, masses = clark.atom_scan(b, [[alpha]], window)
        if len(found) != len(closed):
            return False, (f"coupling {alpha}: found {len(found)} atoms, "
                           f"expected {len(closed)}")
        worst = max(worst, max(abs(f - c) for f, c in zip(found, closed)))
        for s, mass in zip(found, masses[:, 0, 0].real):
            if mass <= 1e-12:
                return False, f"non-positive mass {mass:.3e} at s = {s:.6f}"
    return worst <= 1e-12, f"max location deviation {worst:.2e} over 4 couplings"


def check_2(seed=0):
    """L1 atom masses: point masses vs the closed weight formula."""
    b = livsic.livsic_function(models.l1(1.0))
    worst = 0.0
    for alpha in _L1_COUPLINGS:
        atoms = np.array(models.l1_atoms(alpha, 1.0, (-10, 10)))
        masses = clark.point_mass(b, [[alpha]], atoms)[:, 0, 0].real
        worst = max(worst, float(np.max(_rel(
            masses, models.l1_weight(alpha, 1.0, atoms)))))
    coth = math.cosh(1.0) / math.sinh(1.0)
    s = np.array(models.l1_atoms(1.0, 1.0, (-10, 10)))
    off = _rel(models.l1_weight(1.0, 1.0, s),
               coth / (math.pi * (1.0 + s * s) ** 2)) > 1e-12
    if np.any(off):
        return False, f"closed weight mismatch at s = {s[off][0]:.6f}"
    return worst <= 1e-12, f"max relative mass deviation {worst:.2e}"


def check_3(seed=0):
    """L1 eigenvalues: direct formula vs the boundary map + atom lattice;
    f(a) = beta f(-a) is the condition [[-beta]] | [[1]] of the one map."""
    model = models.l1(1.0)
    cut = 8.0 + 1e-6
    worst = 0.0
    for j in range(16):
        beta = cmath.exp(2j * math.pi * j / 16.0)
        direct = [s for s in oracle.l1_eigenvalues_direct(beta, 1.0, (-12, 12))
                  if abs(s) <= cut]
        alpha = extensions.alpha_from_bc_regular(
            model, extensions.BoundaryMatrices([[-beta]], [[1.0]]))[0, 0]
        atoms = [s for s in models.l1_atoms(alpha, 1.0, (-12, 12))
                 if abs(s) <= cut]
        if len(direct) != len(atoms):
            return False, f"count mismatch at arg beta = {2 * j}pi/16"
        worst = max(worst, max(abs(d - t) for d, t in zip(direct, atoms)))
    return worst <= 1e-12, f"max eigenvalue deviation {worst:.2e} over 16 couplings"


def check_4(seed=0):
    """Antiperiodic-free case alpha = -1: weights vs the summable series."""
    s = np.arange(-10000, 10001) * math.pi
    w = models.l1_weight(-1.0, 1.0, s)
    term = math.tanh(1.0) / (math.pi * (1.0 + s * s) ** 2)
    worst = float(np.max(np.abs(w - term)))
    total_w, total_t = float(np.sum(w)), float(np.sum(term))
    ok = worst <= 1e-9 and abs(total_w - total_t) <= 1e-9
    return ok, f"max term deviation {worst:.2e}, sums differ by {abs(total_w - total_t):.2e}"


def check_5(seed=0):
    """K1 density: generic boundary value vs closed form, plus vanishing."""
    b = livsic.livsic_function(models.k1())
    worst = 0.0
    on, off = (0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0), (-5.0, -1.0, 0.0)
    for alpha in (1.0, -1.0, 1j):
        gen = clark.ac_density(b, [[alpha]], on + off)[:, 0, 0]
        for s, rho in zip(on, gen.real):
            worst = max(worst, _rel(rho, models.k1_density(alpha, s)))
        for s, rho in zip(off, gen[len(on):]):
            if rho != 0.0:
                return False, f"density not vanishing at s = {s} (got {rho:.3e})"
            if models.k1_density(alpha, s) != 0.0:
                return False, f"closed density not zero at s = {s}"
    return worst <= 1e-12, f"max relative density deviation {worst:.2e}"


def check_6(seed=0):
    """K2 density: direct boundary evaluation vs the generalized
    eigenfunction of the ODE (oracle.eigen_density, one stacked call per
    coupling on the five points), Hermitian and PSD."""
    rng = np.random.default_rng([seed, 6])
    model = models.k2()
    b = livsic.livsic_function(model)
    worst = 0.0
    points = (0.3, 0.7, 1.5, 3.0, 7.0)
    for alpha in (random_unitary(2, rng) for _ in range(3)):
        for s, gen, ref in zip(points, clark.ac_density(b, alpha, points),
                               oracle.eigen_density(model, alpha, points)):
            worst = max(worst, float(np.max(np.abs(gen - ref))
                                     / np.max(np.abs(ref))))
            for mat, tag in ((gen, "direct"), (ref, "eigenfunction")):
                if np.max(np.abs(mat - mat.conj().T)) > 1e-10:
                    return False, f"{tag} density not Hermitian at s = {s}"
                if np.min(np.linalg.eigvalsh(mat)) < -1e-10:
                    return False, f"{tag} density not PSD at s = {s}"
    return worst <= 1e-12, f"max relative entrywise deviation {worst:.2e}"


def _dirichlet_bm():
    return extensions.BoundaryMatrices([[1, 0], [0, 0]], [[0, 0], [1, 0]])


def _periodic_bm():
    return extensions.BoundaryMatrices(np.eye(2), -np.eye(2))


def check_7(seed=0):
    """L2 atoms against the roots of the boundary determinant
    (oracle.l2_eigenvalues): the same points, and the rank of each mass
    equal to the multiplicity of its root (periodic conditions have double
    eigenvalues)."""
    worst = 0.0
    for a in (1.0, math.pi / 2):
        for bm, label in ((_dirichlet_bm(), "dirichlet"),
                          (_periodic_bm(), "periodic")):
            if label == "dirichlet":
                hi = (5.0 * math.pi / (2 * a)) ** 2 * 1.05 + 1.0
            else:
                hi = (4.0 * math.pi / a) ** 2 * 1.05 + 1.0
            window = (-1.0, hi)
            alpha = extensions.alpha_from_bc_regular(models.l2(a), bm)
            atoms, masses = clark.atom_scan(
                livsic.livsic_function(models.l2(a)), alpha, window)
            roots = oracle.l2_eigenvalues(bm, a, window)
            distinct = sorted(set(roots))
            if len(atoms) < 5 or len(atoms) != len(distinct):
                return False, (f"{label} a={a:.3f}: {len(atoms)} atoms, "
                               f"{len(distinct)} determinant roots")
            for s, mass, r in zip(atoms, masses, distinct):
                worst = max(worst, abs(s - r) / (1.0 + abs(r)))
                eig = np.linalg.eigvalsh(mass)
                rank = int(np.sum(eig > 1e-8 * eig[-1]))
                if rank != roots.count(r):
                    return False, (f"{label} a={a:.3f}: mass of rank {rank} "
                                   f"at {s:.6f}, root of multiplicity "
                                   f"{roots.count(r)}")
    return worst <= 1e-12, f"max relative atom-vs-root deviation {worst:.2e}"


def check_8(seed=0):
    """Unitary conjugation covariance of densities and masses. Each trial
    takes B1 = R B Q at the coupling R alpha Q, whose transported parameter
    is alpha itself, so the atom cases compare the masses of an atom."""
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
            res = clark.conjugation_check(b2, r, q, r @ alpha @ q, s,
                                          kind=kind)
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
        center = np.max(np.abs(b(1j)))
        if center > 1e-12:
            return False, f"{model.name}: B(i) = {center:.3e}"
        # 200 points (re, im) in one call of b
        re, im = rng.uniform([-15.0, 0.02], [15.0, 8.0], size=(200, 2)).T
        w = re + 1j * im
        sigma = np.linalg.norm(b(w), 2, axis=(1, 2))
        worst_sigma = max(worst_sigma, float(np.max(sigma)))
        if not np.all(sigma <= 1.0 + 1e-9):
            k = int(np.argmax(~(sigma <= 1.0 + 1e-9)))
            return False, f"{model.name}: sigma_max = {sigma[k]:.12f} at w = {w[k]:.4f}"
    return True, f"largest singular value observed {worst_sigma:.12f}"


def _defect_bases(model):
    """Both orthonormal defect bases as one (coeffs, rates) stack: the
    basis at +i, then the one at -i, in block-diagonal coefficients over
    the rates at +i and then at -i."""
    (c_plus, r_plus), (c_minus, r_minus) = (defect.defect_onb(model, s) for s in "+-")
    n = model.rank
    coeffs = np.zeros((2 * n, 2 * n), dtype=complex)
    coeffs[:n, :n], coeffs[n:, n:] = c_plus, c_minus
    return coeffs, np.concatenate([r_plus, r_minus])


def _points_10(rng):
    """The 20 points of criterion 10 for one model, each drawn as its real
    part in (-5, 5) and then its imaginary part in (0.1, 3)."""
    re, im = rng.uniform([-5.0, 0.1], [5.0, 3.0], size=(20, 2)).T
    return re + 1j * im


def _pairings(model, w):
    """The pairings of the plain exponentials of the rates at each point of
    w with both defect bases, from one quad_inner call on the whole stack:
    shape w.shape + (rank, 2 rank), the basis at +i in the first rank
    columns."""
    rates = model.raw_rates(w)
    q = oracle.quad_inner(model, (np.eye(rates.size), rates),
                          _defect_bases(model))
    return q.reshape(rates.shape + (-1,))


def check_10(seed=0):
    """B against Gauss-Legendre quadrature at random points: livsic_eval's
    B(w) against gamma(w) Q(+)^{-1} Q(-), Q the pairings of the plain
    exponentials of the rates at w with both defect bases, one stacked
    quad_inner per model for its 20 points, so that the factors and the
    constant matrices of every model's B (livsic._frame) are all
    checked."""
    rng = np.random.default_rng([seed, 10])
    worst = 0.0
    for model in (models.k1(), models.k2(), models.l1(1.0), models.l2(1.0)):
        w, n = _points_10(rng), model.rank
        q = _pairings(model, w)
        want = cayley(w)[:, None, None] * np.linalg.solve(q[..., :n], q[..., n:])
        worst = max(worst, float(np.max(np.abs(livsic.livsic_eval(model, w)
                                               - want))))
    return worst <= 1e-12, f"max B-vs-quadrature deviation {worst:.2e}"


def check_11(seed=0):
    """Half-line bound states: point masses against the eigenfunction
    masses of the ODE (oracle.eigen_mass). K1 at the closed Robin location
    of sigma = 1; K2 at the atoms that the scan finds on (-1e6, 0.5) for 8
    fixed Haar couplings, each a null point of the boundary system."""
    out = oracle.k1_bound_state_check(1.0, 1.0)
    if out is None:
        return False, "no bound state reported for sigma = 1"
    location, weight = out
    if abs(location + 1.0) > 1e-12:
        return False, f"bound state at {location:.2e}, expected -1"
    model = models.k1()
    alpha = extensions.alpha_from_bc_regular(
        model, extensions.BoundaryMatrices([[1.0, 1.0]], np.empty((1, 0))))
    k1_mass = float(clark.point_mass(livsic.livsic_function(model), alpha,
                                     location)[0, 0].real)
    worst = _rel(k1_mass, weight)
    model = models.k2()
    b = livsic.livsic_function(model)
    rng = np.random.default_rng(13)
    count, flat = 0, 0.0
    for alpha in (random_unitary(2, rng) for _ in range(8)):
        for s, mass in zip(*clark.atom_scan(b, alpha, (-1e6, 0.5))):
            ref = oracle.eigen_mass(model, alpha, s)
            worst = max(worst, float(np.max(np.abs(mass - ref))
                                     / np.max(np.abs(ref))))
            sv = np.linalg.svd(oracle._boundary_system(model, alpha, s)[1],
                               compute_uv=False)
            flat = max(flat, sv[-1] / sv[0])
            count += 1
    # the scan finds 12 atoms of these couplings in the window, one of them
    # at s = -13148.4
    ok = count == 12 and worst <= 1e-12 and flat <= 1e-12
    return ok, (f"K1 mass {k1_mass:.10f} at s = -1 and {count} K2 atoms, max "
                f"relative deviation from the eigenfunction masses "
                f"{worst:.2e}, boundary sigma_min/sigma_max {flat:.2e}")


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
            c = extensions.canonical_c(2)
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
    (7, "l2 atoms vs determinant roots", check_7),
    (8, "conjugation covariance", check_8),
    (9, "schur bound", check_9),
    (10, "pairings vs quadrature", check_10),
    (11, "half-line bound states", check_11),
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
