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
dash (negative grid endpoints or windows) must be attached to their flag:
--grid=-3:3:25. CSV output carries 17 significant digits and JSON output
Python's shortest round-trip repr, so both round-trip exactly. JSON is
compact, on one line, the same bytes as json.dumps of the document, written
from one text template per array filled with the floats of ndarray.tolist();
`python -m json.tool` indents it. Non-finite numbers (nan, inf) are
malformed input.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import sys

import numpy as np

from . import checks, clark, extensions, livsic, models
from .errors import ClarkSpectraError, SingularError

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


def _fields(text, sep, kinds, what, form):
    """text split at sep, each field converted by its kind; _ConfigError
    "<what> must be <form>" for another number of fields and "cannot
    parse <what>" for a field its kind refuses."""
    parts = str(text).split(sep)
    if len(parts) != len(kinds):
        raise _ConfigError(f"{what} must be {form}")
    try:
        return [kind(part) for kind, part in zip(kinds, parts)]
    except ValueError as exc:
        raise _ConfigError(f"cannot parse {what} {text!r}") from exc


def _parse_grid(text):
    start, stop, count = _fields(text, ":", (float, float, int), "grid",
                                 "start:stop:count")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise _ConfigError(f"grid endpoints must be finite, got {text!r}")
    if count < 1:
        raise _ConfigError("grid count must be at least 1")
    if count > clark.MAX_SCAN_POINTS:
        raise _ConfigError(f"grid count {count} exceeds the limit of "
                           f"{clark.MAX_SCAN_POINTS} points")
    return np.linspace(start, stop, count)


def _parse_window(text):
    lo, hi = _fields(text, ":", (float, float), "window", "lo:hi")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise _ConfigError("window needs finite lo < hi")
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


# Leaf templates of the JSON writer: a real number, a complex one, an atom
_REAL, _COMPLEX, _ATOM = "%r", '{"re": %r, "im": %r}', '{"s": %r, "weight": %r}'


def _json(a, leaf=_REAL):
    """JSON text of a number or array as json.dumps writes a.tolist(), a
    complex entry as {"re", "im"} and, with leaf _ATOM, each row of a real
    (k, 2) array as {"s", "weight"}: one %-template for the array's shape,
    filled from tolist(), whose Python floats print their shortest repr."""
    a = np.asarray(a)
    if leaf == _COMPLEX:
        a = np.stack((a.real, a.imag), axis=-1)
    template = leaf
    for count in reversed(a.shape if leaf == _REAL else a.shape[:-1]):
        template = "[" + ", ".join([template] * count) + "]"
    text = template % tuple(a.ravel().tolist())
    # json's names for the non-finite floats; no finite repr has an "n"
    if "n" in text:
        text = text.replace("nan", "NaN").replace("inf", "Infinity")
    return text


def _print_json(**fields):
    """One line: the JSON object of the fields' JSON texts, in order."""
    print("{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}")


def _csv_header(rank, first, extra=()):
    cols = [first]
    for r in range(1, rank + 1):
        for c in range(1, rank + 1):
            cols.append(f"re_r{r}c{c}")
            cols.append(f"im_r{r}c{c}")
    cols.extend(extra)
    return ",".join(cols)


def _csv_rows(first, vals, *last):
    """One CSV line per point: first[i], the real and imaginary parts of
    vals[i] entry by entry, then last[...][i], each with 17 digits."""
    m = len(first)
    cells = np.column_stack([first, vals.reshape(m, -1).view(float), *last])
    fmt = ",".join(["%.17g"] * cells.shape[1])
    return [fmt % tuple(row) for row in cells.tolist()]


def _print_measure(name, alpha, grid, density, locs, weights):
    _print_json(model=f'"{name}"', alpha=_json(alpha, _COMPLEX),
                grid=_json(grid), density=_json(density, _COMPLEX),
                atoms=_json(np.column_stack((locs, weights)), _ATOM))


def cmd_density(args):
    model = _make_model(args.model, args.a)
    alpha = _parse_alpha(args.alpha, model.rank)
    grid = _parse_grid(args.grid)
    vals = clark.ac_density(livsic.livsic_function(model), alpha, grid)
    if args.format == "csv":
        print("\n".join([_csv_header(model.rank, "s")]
                        + _csv_rows(grid, vals)))
    else:
        _print_measure(args.model, alpha, grid, vals, [], [])
    return 0


def cmd_atoms(args):
    model = _make_model(args.model, args.a)
    alpha = _parse_alpha(args.alpha, model.rank)
    if not args.window:
        raise _ConfigError("atoms needs --window lo:hi")
    locs, masses = clark.atom_scan(livsic.livsic_function(model), alpha,
                                   _parse_window(args.window))
    weights = np.trace(masses, axis1=1, axis2=2).real
    if args.format == "csv":
        print("\n".join(["s,weight"] + [f"{s:.17g},{w:.17g}"
                                         for s, w in zip(locs, weights)]))
    else:
        _print_measure(args.model, alpha, np.empty(0), [], locs, weights)
    return 0


def cmd_livsic(args):
    model = _make_model(args.model, args.a)
    if args.im < 0:
        raise _ConfigError("--im must be nonnegative")
    grid = _parse_grid(args.grid)
    vals = livsic.livsic_function(model)(grid + 1j * args.im)
    bad = ~np.all(np.isfinite(vals), axis=(1, 2))
    if np.any(bad):
        raise SingularError("characteristic function is not defined at "
                            f"w = {complex(grid[bad][0] + 1j * args.im)!r}")
    sig = np.linalg.norm(vals, 2, axis=(1, 2))
    if args.format == "csv":
        print("\n".join([_csv_header(model.rank, "re_w", extra=("sigma_max",))]
                        + _csv_rows(grid, vals, sig)))
    else:
        _print_json(model=f'"{args.model}"', im=_json(args.im),
                    grid=_json(grid), values=_json(vals, _COMPLEX),
                    sigma_max=_json(sig))
    return 0


# The flags that give each model's boundary condition to bcmap
_BC_FLAGS = {"k1": "both --b and --c", "l1": "--beta", "k2": "--beta-a",
             "l2": "both --beta-a and --beta-b"}
_BC_DESTS = {"k1": ("b", "c"), "l1": ("beta",), "k2": ("beta_a",),
             "l2": ("beta_a", "beta_b")}


def _parse_bc(args, model):
    """The blocks (beta_a, beta_b) of bcmap's boundary-condition flags: k1
    b f(0) + c f'(0) = 0 as [[b, c]], l1 f(a) = beta f(-a) as
    [[-beta]] | [[1]], l2 --beta-a | --beta-b, and k2 --beta-a beside an
    empty block, as the half-line has one endpoint. A flag of another
    model is a _ConfigError, not ignored."""
    name, empty = args.model, np.empty((model.rank, 0))
    for dest in ("b", "c", "beta", "beta_a", "beta_b"):
        if dest not in _BC_DESTS[name] and getattr(args, dest) is not None:
            raise _ConfigError(f"{name} bcmap takes {_BC_FLAGS[name]}, not "
                               f"--{dest.replace('_', '-')}")
    if name == "k1" and args.b is not None and args.c is not None:
        return [[parse_complex(args.b), parse_complex(args.c)]], empty
    if name == "l1" and args.beta is not None:
        return [[-parse_complex(args.beta)]], [[1.0]]
    if name == "k2" and args.beta_a:
        return parse_matrix(args.beta_a), empty
    if name == "l2" and args.beta_a and args.beta_b:
        return parse_matrix(args.beta_a), parse_matrix(args.beta_b)
    raise _ConfigError(f"{name} bcmap needs --alpha or {_BC_FLAGS[name]}")


def _bc_fields(name, bm):
    """The boundary condition bm under the keys of the model's flags."""
    if name == "k1":
        return {"b": _json(bm.beta_a[0, 0], _COMPLEX),
                "c": _json(bm.beta_a[0, 1], _COMPLEX)}
    if name == "l1":
        return {"beta": _json(-bm.beta_a[0, 0] / bm.beta_b[0, 0], _COMPLEX)}
    fields = {"beta_a": _json(bm.beta_a, _COMPLEX)}
    if name == "l2":
        fields["beta_b"] = _json(bm.beta_b, _COMPLEX)
    return fields


def cmd_bcmap(args):
    model = _make_model(args.model, args.a)
    fields = {"model": f'"{args.model}"'}
    if not model.halfline:
        fields["a"] = _json(args.a)
    if args.alpha:
        alpha = _parse_alpha(args.alpha, model.rank)
        fields.update(_bc_fields(args.model,
                                 extensions.bc_from_alpha_regular(model, alpha)))
    else:
        bm = extensions.BoundaryMatrices(*_parse_bc(args, model))
        alpha = extensions.alpha_from_bc_regular(model, bm)
        fields["alpha"] = _json(alpha[0, 0] if model.rank == 1 else alpha,
                                _COMPLEX)
    fields["unitarity_residual"] = _json(np.max(np.abs(
        alpha @ alpha.conj().T - np.eye(model.rank))))
    _print_json(**fields)
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
    add_model(bc, need_alpha=False)
    bc.add_argument("--alpha", help="coupling to convert to a boundary "
                                    "condition")
    bc.add_argument("--b", help="k1 value coefficient")
    bc.add_argument("--c", help="k1 derivative coefficient")
    bc.add_argument("--beta", help="l1 phase coupling")
    bc.add_argument("--beta-a", dest="beta_a",
                    help="l2 left boundary matrix, k2 boundary matrix at 0")
    bc.add_argument("--beta-b", dest="beta_b",
                    help="l2 right boundary matrix")
    bc.set_defaults(func=cmd_bcmap)

    v = sub.add_parser("verify", help="run the acceptance battery")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--only", help="comma-separated criterion numbers")
    v.set_defaults(func=cmd_verify)
    return parser


@functools.lru_cache(maxsize=None)
def _parser():
    # parse_args returns a fresh Namespace and leaves the parser unchanged,
    # so one parser serves every call of main in a process
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
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
