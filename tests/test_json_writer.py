"""The JSON writer prints what json.dumps prints for the dict document of
each --format json subcommand: {"re", "im"} objects per complex entry,
lists per array axis, Python floats with their shortest repr."""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clarkspectra import clark, cli, extensions, livsic, models
from clarkspectra.cplane import random_unitary
from clarkspectra.errors import ClarkSpectraError

NAMES = ["k1", "k2", "l1", "l2"]


def _cjson(z):
    # a complex scalar, matrix or stack as the same nesting of dicts
    z = np.asarray(z, dtype=complex)
    cells = np.empty(z.size, dtype=object)
    cells[:] = [{"re": re, "im": im} for re, im in
                zip(z.real.ravel().tolist(), z.imag.ravel().tolist())]
    return cells.reshape(z.shape).tolist()


def _measure_doc(name, alpha, grid, density, locs, weights):
    return {"model": name, "alpha": _cjson(alpha), "grid": grid.tolist(),
            "density": _cjson(density),
            "atoms": [{"s": s, "weight": w} for s, w in
                      np.column_stack((locs, weights)).tolist()]}


def _model(name, a):
    make = getattr(models, name)
    return make() if name.startswith("k") else make(a)


def _matrix_arg(m):
    return json.dumps(_cjson(m))


def _alpha_arg(alpha):
    if alpha.shape == (1, 1):
        z = complex(alpha[0, 0])
        return f"{z.real!r},{z.imag!r}"
    return _matrix_arg(alpha)


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _same_as(argv, doc):
    """main(argv) prints json.dumps(doc) on one line; doc is a callable, and
    when it raises ClarkSpectraError, main exits 1 and prints nothing."""
    code, out = _run(argv)
    try:
        want = doc()
    except ClarkSpectraError:
        assert code == 1 and out == ""
        return
    assert code == 0
    assert out == json.dumps(want) + "\n"


model_args = st.tuples(st.sampled_from(NAMES),
                       st.floats(min_value=0.3, max_value=3.0),
                       st.integers(0, 2 ** 32 - 1))
grids = st.tuples(st.floats(min_value=-40.0, max_value=40.0),
                  st.floats(min_value=0.0, max_value=80.0),
                  st.integers(1, 200))


@given(model_args, grids)
@settings(max_examples=40, deadline=None)
def test_density_json_is_json_dumps_of_the_document(margs, grid):
    name, a, seed = margs
    model = _model(name, a)
    alpha = random_unitary(model.rank, np.random.default_rng(seed))
    lo, width, count = grid
    argv = ["density", "--model", name, f"--a={a!r}",
            f"--alpha={_alpha_arg(alpha)}",
            f"--grid={lo!r}:{lo + width!r}:{count}", "--format", "json"]

    def doc():
        pts = np.linspace(lo, lo + width, count)
        vals = clark.ac_density(livsic.livsic_function(model), alpha, pts)
        return _measure_doc(name, alpha, pts, vals, [], [])
    _same_as(argv, doc)


WINDOWS = {"k1": (-10.0, 0.5), "k2": (-40.0, 0.5), "l1": (-20.0, 20.0),
           "l2": (-5.0, 60.0)}


@given(model_args, st.booleans())
@settings(max_examples=24, deadline=None)
def test_atoms_json_is_json_dumps_of_the_document(margs, empty):
    # an empty window (above the half-line spectrum's atoms, or a sliver of
    # the interval's) prints an empty atom list
    name, a, seed = margs
    model = _model(name, a)
    alpha = random_unitary(model.rank, np.random.default_rng(seed))
    window = (1.0, 2.0) if empty and model.halfline else \
        (0.0, 1e-9) if empty else WINDOWS[name]
    argv = ["atoms", "--model", name, f"--a={a!r}",
            f"--alpha={_alpha_arg(alpha)}",
            f"--window={window[0]!r}:{window[1]!r}", "--format", "json"]

    def doc():
        locs, masses = clark.atom_scan(livsic.livsic_function(model), alpha,
                                       window)
        if empty:
            assert len(locs) == 0
        return _measure_doc(name, alpha, np.empty(0), [], locs,
                            np.trace(masses, axis1=1, axis2=2).real)
    _same_as(argv, doc)


def test_atoms_l1_lattice_json_is_json_dumps_of_the_document():
    # on a vanishing interval the lattice weights are not finite, and the
    # request is refused (exit 1, nothing printed) where it once wrote NaN
    alpha = np.array([[0.6 + 0.8j]])
    for a, n_range in ((1.3, "-3..3"), (1.3, "5..5"), (1e-300, "-2..2")):
        lo, hi = map(int, n_range.split(".."))

        def doc():
            locs = models.l1_atoms(alpha[0, 0], a, (lo, hi))
            weights = models.l1_weight(alpha[0, 0], a, np.array(locs))
            return _measure_doc("l1", alpha, np.empty(0), [], locs, weights)
        _same_as(["atoms", "--model", "l1", f"--a={a!r}", "--alpha",
                  "0.6,0.8", f"--n-range={n_range}", "--format", "json"], doc)
    assert _run(["atoms", "--model", "l1", "--a=1e-300", "--alpha", "1",
                 "--n-range=0..0", "--format", "json"]) == (1, "")


@given(model_args, grids, st.floats(min_value=0.0, max_value=3.0))
@settings(max_examples=40, deadline=None)
def test_livsic_json_is_json_dumps_of_the_document(margs, grid, im):
    name, a, _ = margs
    model = _model(name, a)
    lo, width, count = grid
    argv = ["livsic", "--model", name, f"--a={a!r}",
            f"--grid={lo!r}:{lo + width!r}:{count}", f"--im={im!r}",
            "--format", "json"]
    pts = np.linspace(lo, lo + width, count)
    vals = livsic.livsic_function(model)(pts + 1j * im)
    if not np.all(np.isfinite(vals)):
        assert _run(argv) == (1, "")
        return
    doc = {"model": name, "im": im, "grid": pts.tolist(),
           "values": _cjson(vals),
           "sigma_max": np.linalg.norm(vals, 2, axis=(1, 2)).tolist()}
    _same_as(argv, lambda: doc)


def _bc_doc(name, bm):
    if name == "k1":
        return {"b": _cjson(bm.beta_a[0, 0]), "c": _cjson(bm.beta_a[0, 1])}
    if name == "l1":
        return {"beta": _cjson(-bm.beta_a[0, 0] / bm.beta_b[0, 0])}
    doc = {"beta_a": _cjson(bm.beta_a)}
    if name == "l2":
        doc["beta_b"] = _cjson(bm.beta_b)
    return doc


def _bc_args(name, bm):
    """bcmap's flags for the boundary condition bm."""
    if name == "k1":
        b, c = complex(bm.beta_a[0, 0]), complex(bm.beta_a[0, 1])
        return [f"--b={b.real!r},{b.imag!r}", f"--c={c.real!r},{c.imag!r}"]
    if name == "l1":
        beta = complex(-bm.beta_a[0, 0] / bm.beta_b[0, 0])
        return [f"--beta={beta.real!r},{beta.imag!r}"]
    args = [f"--beta-a={_matrix_arg(bm.beta_a)}"]
    if name == "l2":
        args.append(f"--beta-b={_matrix_arg(bm.beta_b)}")
    return args


@given(model_args)
@settings(max_examples=40, deadline=None)
def test_bcmap_json_is_json_dumps_of_the_document(margs):
    # both directions; a rank-one alpha prints as one complex scalar
    name, a, seed = margs
    model = _model(name, a)
    alpha = random_unitary(model.rank, np.random.default_rng(seed))
    head = {"model": name} if model.halfline else {"model": name, "a": a}
    residual = lambda al: float(np.max(np.abs(
        al @ al.conj().T - np.eye(model.rank))))

    def to_bc():
        bm = extensions.bc_from_alpha_regular(model, alpha)
        return {**head, **_bc_doc(name, bm),
                "unitarity_residual": residual(alpha)}
    _same_as(["bcmap", "--model", name, f"--a={a!r}",
                      f"--alpha={_alpha_arg(alpha)}"], to_bc)
    bm = extensions.bc_from_alpha_regular(model, alpha)
    bc_args = _bc_args(name, bm)
    parsed = extensions.BoundaryMatrices(*cli._parse_bc(
        cli._parser().parse_args(["bcmap", "--model", name, *bc_args]),
        model))

    def to_alpha():
        back = extensions.alpha_from_bc_regular(model, parsed)
        return {**head,
                "alpha": _cjson(back[0, 0] if model.rank == 1 else back),
                "unitarity_residual": residual(back)}
    _same_as(["bcmap", "--model", name, f"--a={a!r}", *bc_args],
             to_alpha)


EDGES = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0 / 3.0, 0.1, 1e16,
         1e-7, 123456789.0]


def test_writer_edge_floats():
    x = np.array(EDGES)
    assert cli._json(x) == json.dumps(EDGES)
    z = x + 1j * x[::-1]
    assert cli._json(z, cli._COMPLEX) == json.dumps(_cjson(z))
    assert cli._json(z.reshape(-1, 1, 1), cli._COMPLEX) == json.dumps(
        _cjson(z.reshape(-1, 1, 1)))
    assert cli._json(complex(-0.0, 5e-324), cli._COMPLEX) == \
        '{"re": -0.0, "im": 5e-324}'
    for value in EDGES:
        assert cli._json(value) == json.dumps(value)
        assert cli._json(np.float64(value)) == json.dumps(value)
    pairs = np.column_stack((x, x[::-1]))
    assert cli._json(pairs, cli._ATOM) == json.dumps(
        [{"s": s, "weight": w} for s, w in pairs.tolist()])


def test_writer_empty_and_non_finite():
    for shape in ((0,), (0, 2, 2), (3, 0)):
        assert cli._json(np.zeros(shape)) == json.dumps(np.zeros(shape).tolist())
        assert cli._json(np.zeros(shape, complex), cli._COMPLEX) == \
            json.dumps(_cjson(np.zeros(shape, complex)))
    assert cli._json(np.zeros((0, 2)), cli._ATOM) == "[]"
    odd = [math.nan, math.inf, -math.inf, 1.0]
    assert cli._json(np.array(odd)) == json.dumps(odd)
    z = np.empty(4, dtype=complex)
    z.real, z.imag = odd, odd[::-1]
    assert cli._json(z, cli._COMPLEX) == json.dumps(_cjson(z))


def test_edge_floats_through_the_command_line():
    # -0.0, the smallest subnormal and 1/3 reach the document unchanged
    grid = np.array([5e-324, 1.0 / 3.0])
    vals = livsic.livsic_function(models.l1(1.0))(grid + 1j * -0.0)
    doc = {"model": "l1", "im": -0.0, "grid": grid.tolist(),
           "values": _cjson(vals),
           "sigma_max": np.linalg.norm(vals, 2, axis=(1, 2)).tolist()}
    argv = ["livsic", "--model", "l1", "--grid=5e-324:0.3333333333333333:2",
            "--im=-0.0", "--format", "json"]
    _same_as(argv, lambda: doc)
    out = _run(argv)[1]
    assert '"im": -0.0' in out and '"grid": [5e-324, 0.3333333333333333]' in out
