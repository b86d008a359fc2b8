"""Command-line front end.

Subcommands:

  density   sample the absolutely continuous density on a real grid
  atoms     locate point masses and report their weights
  livsic    evaluate the characteristic function along a horizontal line
  bcmap     translate boundary conditions to couplings and back
  verify    run the acceptance battery

Complex scalars on the command line are written 're,im' (Cartesian),
'mod:arg' (polar, argument in radians), or a bare real such as '0.5'.
Matrices are JSON arrays of rows whose entries are numbers, strings in the
scalar syntax, or {"re": .., "im": ..} objects. Values that start with a
dash (negative grid endpoints, windows, index ranges) must be attached to
their flag: --grid=-3:3:25. Numeric output uses 17 significant digits so
values round-trip exactly through text. Non-finite numbers (nan, inf) are
malformed input.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys

import numpy as np

from . import checks, clark, extensions, livsic, models
from .errors import ClarkSpectraError, ConvergenceError

__all__ = ["main", "build_parser", "parse_complex", "parse_matrix"]


class _ConfigError(Exception):
    """Bad command-line payload; maps to exit code 2."""


def parse_complex(text):
    """Parse 're,im', 'mod:arg', or a bare real into a complex number."""
    t = str(text).strip()
    try:
        if "," in t:
            re_s, im_s = t.split(",", 1)
            z = complex(float(re_s), float(im_s))
        elif ":" in t:
            mod_s, arg_s = t.split(":", 1)
            z = cmath.rect(float(mod_s), float(arg_s))
        else:
            z = complex(float(t), 0.0)
    except ValueError as exc:
        raise _ConfigError(
            f"cannot parse complex number {text!r}; use 're,im', 'mod:arg', "
            "or a bare real") from exc
    if not cmath.isfinite(z):
        raise _ConfigError(f"complex number {text!r} is not finite")
    return z


def _entry_to_complex(entry):
    if isinstance(entry, bool):
        raise _ConfigError(f"bad matrix entry {entry!r}")
    try:
        if isinstance(entry, (int, float)):
            return complex(entry)
        if isinstance(entry, dict) and set(entry) <= {"re", "im"}:
            return complex(float(entry.get("re", 0.0)),
                           float(entry.get("im", 0.0)))
    except (TypeError, ValueError, OverflowError) as exc:
        raise _ConfigError(f"bad matrix entry {entry!r}") from exc
    if isinstance(entry, str):
        return parse_complex(entry)
    raise _ConfigError(f"bad matrix entry {entry!r}")


def parse_matrix(text):
    """Parse a JSON array of rows into a complex ndarray."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _ConfigError(f"matrix is not valid JSON: {exc}") from exc
    if (not isinstance(data, list) or not data
            or not all(isinstance(row, list) and row for row in data)):
        raise _ConfigError("matrix JSON must be a non-empty array of rows")
    rows = [[_entry_to_complex(e) for e in row] for row in data]
    if len({len(r) for r in rows}) != 1:
        raise _ConfigError("matrix rows have unequal lengths")
    mat = np.array(rows, dtype=complex)
    if not np.all(np.isfinite(mat)):
        raise _ConfigError("matrix entries must be finite")
    return mat


def _parse_alpha(text, rank):
    if str(text).lstrip().startswith("["):
        mat = parse_matrix(text)
    else:
        mat = np.array([[parse_complex(text)]])
    if mat.shape != (rank, rank):
        raise _ConfigError(f"coupling must be {rank}x{rank} for this model, "
                           f"got {mat.shape[0]}x{mat.shape[1]}")
    return mat


def _parse_grid(text):
    parts = str(text).split(":")
    if len(parts) != 3:
        raise _ConfigError("grid must be start:stop:count")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise _ConfigError(f"cannot parse grid {text!r}") from exc
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise _ConfigError(f"grid endpoints must be finite, got {text!r}")
    if count < 1:
        raise _ConfigError("grid count must be at least 1")
    return np.linspace(start, stop, count)


def _parse_window(text):
    parts = str(text).split(":")
    if len(parts) != 2:
        raise _ConfigError("window must be lo:hi")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise _ConfigError(f"cannot parse window {text!r}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise _ConfigError("window needs finite lo < hi")
    return lo, hi


def _parse_n_range(text):
    parts = str(text).split("..")
    if len(parts) != 2:
        raise _ConfigError("index range must be lo..hi")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise _ConfigError(f"cannot parse index range {text!r}") from exc
    if lo > hi:
        raise _ConfigError("index range needs lo <= hi")
    return lo, hi


def _make_model(name, a):
    if name == "k1":
        return models.k1()
    if name == "k2":
        return models.k2()
    if name == "l1":
        return models.l1(a)
    return models.l2(a)


def _finite_float(text):
    """argparse type for a finite float; argparse exits with code 2 otherwise."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _positive_float(text):
    value = _finite_float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _g(x):
    return f"{float(x):.17g}"


def _cobj(z):
    z = complex(z)
    return {"re": float(z.real), "im": float(z.imag)}


def _mat_json(m):
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    return [[_cobj(z) for z in row] for row in m]


def _csv_header(rank, first, extra=()):
    cols = [first]
    for r in range(1, rank + 1):
        for c in range(1, rank + 1):
            cols.append(f"re_r{r}c{c}")
            cols.append(f"im_r{r}c{c}")
    cols.extend(extra)
    return ",".join(cols)


def _matrix_cells(m):
    m = np.atleast_2d(m)
    cells = []
    for r in range(m.shape[0]):
        for c in range(m.shape[1]):
            cells.append(_g(m[r, c].real))
            cells.append(_g(m[r, c].imag))
    return cells


def _measure_doc(name, alpha, grid, density, atoms):
    return {
        "model": name,
        "alpha": _mat_json(alpha),
        "grid": [float(s) for s in grid],
        "density": [_mat_json(m) for m in density],
        "atoms": [{"s": float(s), "weight": float(w)} for s, w in atoms],
    }


def cmd_density(args):
    model = _make_model(args.model, args.a)
    alpha = _parse_alpha(args.alpha, model.rank)
    clark.check_alpha(alpha, model.rank)
    grid = _parse_grid(args.grid)
    b = livsic.livsic_function(model)
    vals = [clark.ac_density(b, alpha, float(s)) for s in grid]
    if args.format == "csv":
        lines = [_csv_header(model.rank, "s")]
        for s, mat in zip(grid, vals):
            lines.append(",".join([_g(s)] + _matrix_cells(mat)))
        print("\n".join(lines))
    else:
        print(json.dumps(_measure_doc(args.model, alpha, grid, vals, []),
                         indent=2))
    return 0


def _mass_with_fallback(b, alpha, s):
    """Point mass at s, retried at reduced tolerance when the strict ladder
    stalls. Small atoms close to the continuum edge sit below the ladder's
    float-noise floor at the default budget; six relative digits is what the
    noise supports there and is plenty for tabulation."""
    try:
        return clark.point_mass(b, alpha, s)
    except ConvergenceError:
        return clark.point_mass(b, alpha, s, rtol=1e-6)


def cmd_atoms(args):
    model = _make_model(args.model, args.a)
    alpha = _parse_alpha(args.alpha, model.rank)
    clark.check_alpha(alpha, model.rank)
    if args.model == "l1" and args.n_range:
        lo, hi = _parse_n_range(args.n_range)
        scal = complex(alpha[0, 0])
        locs = models.l1_atoms(scal, model.a, (lo, hi))
        weights = [models.l1_weight(scal, model.a, s) for s in locs]
    else:
        if not args.window:
            raise _ConfigError("atoms needs --window lo:hi "
                               "(or --n-range lo..hi for l1)")
        window = _parse_window(args.window)
        b = livsic.livsic_function(model)
        step = args.step
        if step is None:
            # no lattice floor on atom spacing on the half-line
            step = 0.05 if model.halfline else math.pi / (8.0 * model.a)
        locs = models.atom_scan(b, alpha, window, step=step)
        weights = [float(np.trace(_mass_with_fallback(b, alpha, s)).real)
                   for s in locs]
    if args.format == "csv":
        lines = ["s,weight"]
        for s, w in zip(locs, weights):
            lines.append(f"{_g(s)},{_g(w)}")
        print("\n".join(lines))
    else:
        print(json.dumps(_measure_doc(args.model, alpha, [], [],
                                      list(zip(locs, weights))), indent=2))
    return 0


def cmd_livsic(args):
    model = _make_model(args.model, args.a)
    if args.im < 0:
        raise _ConfigError("--im must be nonnegative")
    grid = _parse_grid(args.grid)
    b = livsic.livsic_function(model)
    vals = [np.atleast_2d(b(complex(float(s), args.im))) for s in grid]
    sig = [float(np.linalg.norm(v, 2)) for v in vals]
    if args.format == "csv":
        lines = [_csv_header(model.rank, "re_w", extra=("sigma_max",))]
        for s, mat, sv in zip(grid, vals, sig):
            lines.append(",".join([_g(s)] + _matrix_cells(mat) + [_g(sv)]))
        print("\n".join(lines))
    else:
        doc = {
            "model": args.model,
            "im": float(args.im),
            "grid": [float(s) for s in grid],
            "values": [_mat_json(v) for v in vals],
            "sigma_max": [float(v) for v in sig],
        }
        print(json.dumps(doc, indent=2))
    return 0


def _unimodular_residual(z):
    return abs(abs(complex(z)) - 1.0)


def cmd_bcmap(args):
    name = args.model
    if name == "k2":
        raise _ConfigError("boundary translation for k2 is not exposed on "
                           "the command line; use the library API")
    if name == "k1":
        if args.alpha:
            alpha = complex(_parse_alpha(args.alpha, 1)[0, 0])
            b, c = extensions.bc_from_alpha_k1(alpha)
            doc = {"model": "k1", "b": _cobj(b), "c": _cobj(c),
                   "unitarity_residual": _unimodular_residual(alpha)}
        elif args.b is not None and args.c is not None:
            alpha = extensions.alpha_from_bc_k1(parse_complex(args.b),
                                                parse_complex(args.c))
            doc = {"model": "k1", "alpha": _cobj(alpha),
                   "unitarity_residual": _unimodular_residual(alpha)}
        else:
            raise _ConfigError("k1 bcmap needs --alpha or both --b and --c")
    elif name == "l1":
        if args.alpha:
            alpha = complex(_parse_alpha(args.alpha, 1)[0, 0])
            beta = extensions.bc_from_alpha_l1(alpha, args.a)
            doc = {"model": "l1", "a": float(args.a), "beta": _cobj(beta),
                   "unitarity_residual": _unimodular_residual(alpha)}
        elif args.beta is not None:
            alpha = extensions.alpha_from_bc_l1(parse_complex(args.beta),
                                                args.a)
            doc = {"model": "l1", "a": float(args.a), "alpha": _cobj(alpha),
                   "unitarity_residual": _unimodular_residual(alpha)}
        else:
            raise _ConfigError("l1 bcmap needs --alpha or --beta")
    else:
        model = _make_model("l2", args.a)
        if args.alpha:
            alpha = _parse_alpha(args.alpha, 2)
            bm = extensions.bc_from_alpha_regular(model, alpha)
            resid = float(np.max(np.abs(alpha @ alpha.conj().T - np.eye(2))))
            doc = {"model": "l2", "a": float(args.a),
                   "beta_a": _mat_json(bm.beta_a),
                   "beta_b": _mat_json(bm.beta_b),
                   "unitarity_residual": resid}
        elif args.beta_a and args.beta_b:
            bm = extensions.BoundaryMatrices(parse_matrix(args.beta_a),
                                             parse_matrix(args.beta_b))
            alpha = extensions.alpha_from_bc_regular(model, bm)
            resid = float(np.max(np.abs(alpha @ alpha.conj().T - np.eye(2))))
            doc = {"model": "l2", "a": float(args.a),
                   "alpha": _mat_json(alpha), "unitarity_residual": resid}
        else:
            raise _ConfigError("l2 bcmap needs --alpha or both "
                               "--beta-a and --beta-b")
    print(json.dumps(doc, indent=2))
    return 0


def cmd_verify(args):
    numbers = None
    if args.only:
        try:
            numbers = {int(t) for t in args.only.split(",") if t.strip()}
        except ValueError as exc:
            raise _ConfigError("--only takes comma-separated criterion "
                               "numbers") from exc
    results = checks.run_all(seed=args.seed, numbers=numbers)
    if not results:
        raise _ConfigError("no criteria selected")
    for r in results:
        print(r.line())
    failed = sum(1 for r in results if not r.passed)
    print(f"{len(results) - failed}/{len(results)} criteria passed")
    return 1 if failed else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="clarkspectra",
        description="Boundary spectral measures of half-line and interval "
                    "derivative models.",
        epilog="Complex scalars: 're,im', 'mod:arg' (radians), or a bare "
               "real. Matrices: JSON rows of numbers, scalar strings, or "
               "{\"re\", \"im\"} objects.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model(sp, need_alpha):
        sp.add_argument("--model", required=True,
                        choices=["k1", "k2", "l1", "l2"],
                        help="which operator family")
        sp.add_argument("--a", type=_finite_float, default=1.0,
                        help="interval half-length for l1/l2 (ignored for "
                             "half-line models)")
        if need_alpha:
            sp.add_argument("--alpha", required=True,
                            help="unitary coupling: complex scalar or JSON "
                                 "matrix")

    d = sub.add_parser("density",
                       help="sample the absolutely continuous density")
    add_model(d, need_alpha=True)
    d.add_argument("--grid", required=True, help="start:stop:count")
    d.add_argument("--format", choices=["csv", "json"], default="csv")
    d.set_defaults(func=cmd_density)

    t = sub.add_parser("atoms", help="locate point masses and weights")
    add_model(t, need_alpha=True)
    t.add_argument("--window", help="lo:hi scan window")
    t.add_argument("--n-range", dest="n_range",
                   help="lo..hi lattice indices (closed route, l1 only)")
    t.add_argument("--step", type=_positive_float, default=None,
                   help="scan step; atoms closer than two steps merge into "
                        "one bracket (default pi/(8a) on intervals, 0.05 on "
                        "the half-line)")
    t.add_argument("--format", choices=["csv", "json"], default="csv")
    t.set_defaults(func=cmd_atoms)

    lv = sub.add_parser("livsic",
                        help="evaluate the characteristic function on a "
                             "horizontal line")
    add_model(lv, need_alpha=False)
    lv.add_argument("--grid", required=True,
                    help="start:stop:count for the real part of w")
    lv.add_argument("--im", type=_finite_float, default=1.0,
                    help="imaginary part of w (default 1.0)")
    lv.add_argument("--format", choices=["csv", "json"], default="csv")
    lv.set_defaults(func=cmd_livsic)

    bc = sub.add_parser("bcmap",
                        help="translate boundary conditions to couplings "
                             "and back")
    bc.add_argument("--model", required=True,
                    choices=["k1", "k2", "l1", "l2"])
    bc.add_argument("--a", type=_finite_float, default=1.0)
    bc.add_argument("--alpha", help="coupling to convert to a boundary "
                                    "condition")
    bc.add_argument("--b", help="k1 value coefficient")
    bc.add_argument("--c", help="k1 derivative coefficient")
    bc.add_argument("--beta", help="l1 phase coupling")
    bc.add_argument("--beta-a", dest="beta_a", help="l2 left boundary matrix")
    bc.add_argument("--beta-b", dest="beta_b",
                    help="l2 right boundary matrix")
    bc.set_defaults(func=cmd_bcmap)

    v = sub.add_parser("verify", help="run the acceptance battery")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--only", help="comma-separated criterion numbers")
    v.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ClarkSpectraError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
