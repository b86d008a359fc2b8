"""The benchmark's workloads: request generation from a seed, and checks.

A workload is a sequence of rounds. Round r of seed n draws its inputs from
numpy.random.default_rng([n, workload id, r]), so the same seed gives the
same requests, and every round holds the same kinds of request in the same
number. A request is one user task: one or two calls of the command-line
entry point. A task's run(call) makes the calls through call(argv), which
returns (exit code, stdout); its check(result) compares what they printed
with the references in refs.py (for K2, with the characteristic function
evaluated at the real point, without the boundary ladder) and returns a list
of failure messages. A task whose command exits with another code than 0
fails the run, unless its may_fail names the error it is known to end with.

The inputs that set the cost of a request (grid counts, atom counts, the
interval length of L2) are a fixed set per round in random order, or drawn
one per equal slice of their range, so every round costs about the same
whatever the seed and the run-to-run spread comes from the machine, not
from the draw.
"""

from __future__ import annotations

import cmath
import json
import math

import numpy as np

import refs

# Tolerances of checked values. The boundary ladder runs at rtol = 1e-8 and
# the acceptance battery certifies densities and weights to 1e-6 relative.
# K1 densities are the exception: the ladder's stopping test (two
# successive diagonal entries agreeing) can pass by accident on a real-valued
# limit, and about one grid point in 1e4 then lands off by 1e-6 to 3e-5
# relative (in 36 runs of 1e4 K1 points each, 5 had a point beyond 1e-5; the
# worst was 2.8e-5). So a K1 request passes when every point is within
# K1_DENSITY_RTOL and at most K1_STRAY_SHARE of its points are beyond
# TARGET_RTOL: an error in a formula, a branch or a normalization moves most
# points of a request and fails the second test from 1e-6 up. Every check
# also records its worst deviation and the number of values beyond
# TARGET_RTOL in the run record.
TARGET_RTOL = 1e-6
K1_DENSITY_RTOL = 1e-3
K1_STRAY_SHARE = 0.1
DENSITY_RTOL = 1e-6
WEIGHT_RTOL = 1e-6
LOCATION_TOL = 1e-9
SIGMA_MIN_TOL = 1e-6


class Accuracy:
    """Worst relative deviation per checked quantity, and how many values
    exceeded TARGET_RTOL."""

    def __init__(self):
        self.worst = {}
        self.beyond_target = {}

    def note(self, name, deviation):
        self.worst[name] = max(self.worst.get(name, 0.0), float(deviation))
        if deviation > TARGET_RTOL:
            self.beyond_target[name] = self.beyond_target.get(name, 0) + 1


ACCURACY = Accuracy()


def _b_k2(s):
    """B of the K2 model at the real point s, straight from livsic_eval.
    Imported here, not at the top, because run.py loads this module without
    the package on its path."""
    from clarkspectra import livsic, models
    return livsic.livsic_eval(models.k2(), s)


# A K2 atom request that exits with ConvergenceError: the shallow atom near
# s = -1.70e-4 stalls the point-mass ladder at both the strict and the
# reduced tolerance. Its input does not depend on the seed, and it runs once
# in every atoms-mixed round, so failed requests are a fixed share.
K2_STALL_ALPHA = ('[["1:-2.6179938779914944","0"],'
                  '["0","1:-2.6179938779914944"]]')
K2_STALL_WINDOW = "--window=-40:0.5"


def _num(x):
    return repr(float(x))


def _scalar_arg(z):
    z = complex(z)
    return f"{z.real!r},{z.imag!r}"


def _matrix_arg(m):
    return json.dumps([[_scalar_arg(z) for z in row] for row in m])


def _alpha_from_doc(entry):
    return complex(entry["re"], entry["im"])


def _matrix_from_doc(rows):
    return np.array([[_alpha_from_doc(e) for e in row] for row in rows])


def _haar_unitary(rng, n):
    """Haar-random n x n unitary (QR of a complex Ginibre matrix)."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _unimodular(rng):
    return complex(np.exp(1j * rng.uniform(-math.pi, math.pi)))


def _strata(rng, lo, hi, k):
    """One uniform draw in each of k equal slices of [lo, hi], shuffled."""
    edges = np.linspace(lo, hi, k + 1)
    return _shuffled(rng, [rng.uniform(edges[i], edges[i + 1]) for i in range(k)])


def _shuffled(rng, values):
    return [values[i] for i in rng.permutation(len(values))]


# ---------------------------------------------------------------------------
# density-halfline
# ---------------------------------------------------------------------------

class Task:
    # The error a known fault ends this task with (exit code 1 and this
    # name in the message); None: any exit other than 0 fails the run.
    may_fail = None
    # Check the output also after a non-zero exit (it says what went wrong).
    check_any_exit = False


class DensityTask(Task):
    def __init__(self, model, alpha, start, stop, count):
        self.kind = f"density-{model}"
        self.model, self.alpha = model, alpha
        self.start, self.stop, self.count = start, stop, count

    def argv(self):
        alpha = (_scalar_arg(self.alpha) if self.model == "k1"
                 else _matrix_arg(self.alpha))
        return ["density", "--model", self.model, f"--alpha={alpha}",
                f"--grid={_num(self.start)}:{_num(self.stop)}:{self.count}",
                "--format", "json"]

    def run(self, call):
        return call(self.argv())

    def check(self, out):
        doc = json.loads(out)
        grid = np.array(doc["grid"], dtype=float)
        want = np.linspace(self.start, self.stop, self.count)
        if grid.shape != want.shape or np.max(np.abs(grid - want)) > 1e-12 * (
                1.0 + np.max(np.abs(want))):
            return [f"{self.kind}: grid differs from the requested one"]
        mats = [_matrix_from_doc(m) for m in doc["density"]]
        if len(mats) != len(grid):
            return [f"{self.kind}: {len(mats)} densities for {len(grid)} points"]
        if self.model == "k1":
            return self._check_k1(grid, mats)
        for s, m in zip(grid, mats):
            errors = self._check_k2_point(float(s), m)
            if errors:
                return errors
        return []

    def _check_k1(self, grid, mats):
        stray = 0
        for s, m in zip(grid, mats):
            ref = refs.k1_density(self.alpha, float(s))
            dev = abs(m[0, 0] - ref) / ref
            ACCURACY.note("k1_density", dev)
            if dev > K1_DENSITY_RTOL:
                return [f"density-k1 s={float(s)!r}: density {m[0, 0]} vs "
                        f"closed form {ref}"]
            stray += dev > TARGET_RTOL
        if stray > K1_STRAY_SHARE * len(grid):
            return [f"density-k1 alpha={self.alpha!r}: {stray} of {len(grid)} "
                    f"points differ from the closed form by more than {TARGET_RTOL}"]
        return []

    def _check_k2_point(self, s, m):
        tag = f"{self.kind} s={s!r}"
        scale = max(1.0, float(np.max(np.abs(m))))
        if np.max(np.abs(m - m.conj().T)) > 1e-12 * scale:
            return [f"{tag}: density is not Hermitian"]
        eig = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
        ACCURACY.note("k2_density_negative_eigenvalue", -eig[0] / eig[-1])
        if eig[0] < -DENSITY_RTOL * eig[-1]:
            return [f"{tag}: density is not PSD (eigenvalues {eig})"]
        ref = _direct_sandwich(_b_k2(s), self.alpha, s)
        dev = np.max(np.abs(m - ref)) / np.max(np.abs(ref))
        ACCURACY.note("k2_density", dev)
        if dev > DENSITY_RTOL:
            return [f"{tag}: density differs from the direct boundary "
                    f"sandwich by {dev:.3e} relative"]
        return []


def _direct_sandwich(b, alpha, s):
    """(alpha* - B*)^{-1} (I - B* B) (alpha - B)^{-1} / (pi (1 + s^2))."""
    inv = np.linalg.inv(alpha - b)
    core = np.eye(b.shape[0]) - b.conj().T @ b
    return inv.conj().T @ core @ inv / (math.pi * (1.0 + s * s))


def density_round(rng):
    """Five K1 and five K2 requests, alternating, with grids inside the
    continuum s > 0. Each model gets the grid counts 20, 35, 50, 65 and 80
    in random order, so every round evaluates the same number of points."""
    counts = {m: _shuffled(rng, [20, 35, 50, 65, 80]) for m in ("k1", "k2")}
    tasks = []
    for i in range(10):
        model = "k1" if i % 2 == 0 else "k2"
        alpha = _unimodular(rng) if model == "k1" else _haar_unitary(rng, 2)
        tasks.append(DensityTask(model, alpha, rng.uniform(0.0, 0.5),
                                 rng.uniform(5.0, 40.0), counts[model][i // 2]))
    return tasks


# ---------------------------------------------------------------------------
# atoms-mixed
# ---------------------------------------------------------------------------

def _window_arg(lo, hi):
    return f"--window={_num(lo)}:{_num(hi)}"


def _atoms(out):
    return [(float(x["s"]), float(x["weight"])) for x in json.loads(out)["atoms"]]


def _mass_budget_error(tag, atoms, rank):
    total = sum(math.pi * (1.0 + s * s) * w for s, w in atoms)
    if total > rank * (1.0 + 1e-9):
        return [f"{tag}: normalized atom mass {total!r} exceeds the rank {rank}"]
    return []


class L1Task(Task):
    """i d/dx on (-a, a) at a random coupling; the window holds the atoms
    n0 .. n0 + k - 1 of the lattice, with its edges at lattice midpoints."""

    kind = "atoms-l1"

    def __init__(self, a, alpha, n0, k):
        self.a, self.alpha, self.k = a, alpha, k
        h = math.pi / a
        base = refs.l1_base(alpha, a)
        self.expected = [base + n * h for n in range(n0, n0 + k)]
        self.window = (base + (n0 - 0.5) * h, base + (n0 + k - 0.5) * h)

    def run(self, call):
        return call(["atoms", "--model", "l1", "--a", _num(self.a),
                     f"--alpha={_scalar_arg(self.alpha)}",
                     _window_arg(*self.window), "--format", "json"])

    def check(self, out):
        atoms = _atoms(out)
        tag = f"atoms-l1 a={self.a!r} alpha={self.alpha!r}"
        if len(atoms) != self.k:
            return [f"{tag}: {len(atoms)} atoms, expected {self.k}"]
        for (s, w), ref in zip(atoms, self.expected):
            if abs(s - ref) > LOCATION_TOL * (1.0 + abs(ref)):
                return [f"{tag}: atom at {s!r}, lattice point {ref!r}"]
            wref = refs.l1_weight(self.a, ref)
            ACCURACY.note("l1_weight", abs(w - wref) / wref)
            if abs(w - wref) > WEIGHT_RTOL * wref:
                return [f"{tag}: weight {w!r} at {s!r}, closed form {wref!r}"]
        return []


class L2Task(Task):
    """-d^2/dx^2 on (-a, a) from a boundary condition: bcmap gives the
    coupling, then the window holds the first 9 distinct eigenvalues."""

    kind = "atoms-l2"
    COUNT = 9

    def __init__(self, bc, a):
        self.bc, self.a = bc, a
        evs = refs.l2_eigenvalues(bc, a, self.COUNT + 1)
        self.expected = evs[:self.COUNT]
        gap = evs[1] - evs[0]
        self.window = (evs[0] - 0.5 * gap, 0.5 * (evs[-2] + evs[-1]))

    def run(self, call):
        beta_a, beta_b = refs.L2_BOUNDARY[self.bc]
        a = _num(self.a)
        rc, bc_out = call(["bcmap", "--model", "l2", "--a", a,
                           "--beta-a", json.dumps(beta_a),
                           "--beta-b", json.dumps(beta_b)])
        if rc != 0:
            return rc, None
        alpha = _matrix_from_doc(json.loads(bc_out)["alpha"])
        rc, out = call(["atoms", "--model", "l2", "--a", a,
                        f"--alpha={_matrix_arg(alpha)}",
                        _window_arg(*self.window), "--format", "json"])
        return rc, out

    def check(self, out):
        atoms = _atoms(out)
        tag = f"atoms-l2 {self.bc} a={self.a!r}"
        if len(atoms) != self.COUNT:
            return [f"{tag}: {len(atoms)} atoms, expected {self.COUNT}"]
        for (s, w), ref in zip(atoms, self.expected):
            if abs(s - ref) > LOCATION_TOL * (1.0 + abs(ref)):
                return [f"{tag}: atom at {s!r}, eigenvalue {ref!r}"]
            if not w > 0.0:
                return [f"{tag}: non-positive weight {w!r} at {s!r}"]
        return _mass_budget_error(tag, atoms, 2)


class K1RobinTask(Task):
    """-d^2/dx^2 on the half-line under sigma f(0) + f'(0) = 0: bcmap gives
    the coupling; the only atom in the window is the bound state at
    -sigma^2. The window is the same for every sigma in [0.2, 3]."""

    kind = "atoms-k1"
    window = (-10.0, 0.5)

    def __init__(self, sigma):
        self.sigma = sigma

    def run(self, call):
        rc, bc_out = call(["bcmap", "--model", "k1", "--b", _num(self.sigma),
                           "--c", "1"])
        if rc != 0:
            return rc, None
        alpha = _alpha_from_doc(json.loads(bc_out)["alpha"])
        rc, out = call(["atoms", "--model", "k1",
                        f"--alpha={_scalar_arg(alpha)}",
                        _window_arg(*self.window), "--format", "json"])
        return rc, (alpha, out)

    def check(self, result):
        alpha, out = result
        tag = f"atoms-k1 sigma={self.sigma!r}"
        if abs(abs(alpha) - 1.0) > 1e-12:
            return [f"{tag}: bcmap coupling {alpha!r} is not unimodular"]
        atoms = _atoms(out)
        ref = -self.sigma ** 2
        if len(atoms) != 1:
            return [f"{tag}: {len(atoms)} atoms, expected one at {ref!r}"]
        s, w = atoms[0]
        if abs(s - ref) > LOCATION_TOL * (1.0 + abs(ref)):
            return [f"{tag}: atom at {s!r}, bound state at {ref!r}"]
        wref = refs.k1_atom_weight(alpha, s)
        ACCURACY.note("k1_weight", abs(w - wref) / abs(wref))
        if abs(w - wref) > WEIGHT_RTOL * abs(wref):
            return [f"{tag}: weight {w!r}, residue {wref!r}"]
        return []


class K2StallTask(Task):
    """The fixed K2 request of K2_STALL_ALPHA (see its comment)."""

    kind = "atoms-k2"
    may_fail = "ConvergenceError"
    alpha = cmath.rect(1.0, -2.6179938779914944) * np.eye(2)

    def run(self, call):
        return call(["atoms", "--model", "k2", f"--alpha={K2_STALL_ALPHA}",
                     K2_STALL_WINDOW, "--format", "json"])

    def check(self, out):
        atoms = _atoms(out)
        for s, w in atoms:
            b = _b_k2(s)
            smin = np.linalg.svd(np.eye(2) - b @ self.alpha.conj().T,
                                 compute_uv=False)[-1]
            if smin > SIGMA_MIN_TOL:
                return [f"atoms-k2: sigma_min(I - B alpha*) = {smin:.3e} at {s!r}"]
            if not w > 0.0:
                return [f"atoms-k2: non-positive weight {w!r} at {s!r}"]
        return _mass_budget_error("atoms-k2", atoms, 2)


def atoms_round(rng):
    """Four L1 (20, 27, 33 and 40 atoms), three L2 (one per boundary
    condition), two K1 Robin and the fixed K2 request, in shuffled order.
    The L1 scan grid has 8 points per atom whatever a is; the L2 grid grows
    like 1/a, so a stays in [1, 2] there to keep the cost of a round
    steady."""
    tasks = []
    for a, k in zip(_strata(rng, 0.5, 2.0, 4), _shuffled(rng, [20, 27, 33, 40])):
        tasks.append(L1Task(a, _unimodular(rng), int(rng.integers(-k, 1)), k))
    for bc, a in zip(refs.L2_BOUNDARY, _strata(rng, 1.0, 2.0, 3)):
        tasks.append(L2Task(bc, a))
    tasks.extend(K1RobinTask(sigma) for sigma in _strata(rng, 0.2, 3.0, 2))
    tasks.append(K2StallTask())
    return _shuffled(rng, tasks)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

class VerifyTask(Task):
    kind = "verify"
    check_any_exit = True

    def __init__(self, seed):
        self.seed = seed

    def run(self, call):
        return call(["verify", "--seed", str(self.seed)])

    def check(self, out):
        lines = out.strip().splitlines()
        passed = [ln for ln in lines if ln.startswith("PASS criterion")]
        if len(passed) != 12 or lines[-1] != "12/12 criteria passed":
            return [f"verify --seed {self.seed}: {lines[-1] if lines else 'no output'}"]
        return []


class Workload:
    def __init__(self, name, number, make_round, warmup, trace_rounds):
        self.name = name
        self.number = number
        self.make_round = make_round
        self.warmup = warmup
        self.trace_rounds = trace_rounds

    def round(self, seed, index):
        return self.make_round(seed, np.random.default_rng([seed, self.number, index]))


WORKLOADS = {
    w.name: w for w in (
        Workload("density-halfline", 1, lambda seed, rng: density_round(rng),
                 DensityTask("k2", np.eye(2), 0.5, 4.0, 8), trace_rounds=8),
        Workload("atoms-mixed", 2, lambda seed, rng: atoms_round(rng),
                 L1Task(1.0, -1.0 + 0.0j, -1, 3), trace_rounds=6),
        Workload("verify", 3, lambda seed, rng: [VerifyTask(seed)],
                 None, trace_rounds=1),
    )
}
