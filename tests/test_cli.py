import dataclasses
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from clarkspectra import clark, livsic, models
from clarkspectra.cli import main, parse_complex, parse_matrix


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_complex_forms():
    assert parse_complex("0.5") == 0.5
    assert parse_complex("1,-2") == 1 - 2j
    assert parse_complex("2:3.141592653589793") == pytest.approx(-2.0)
    from clarkspectra.cli import _ConfigError
    with pytest.raises(_ConfigError):
        parse_complex("half")


def test_parse_matrix_mixed_entries():
    m = parse_matrix('[[1, "0,1"], [{"re": 2, "im": -1}, "2:0"]]')
    assert m[0, 0] == 1 and m[0, 1] == 1j
    assert m[1, 0] == 2 - 1j and m[1, 1] == pytest.approx(2.0)
    from clarkspectra.cli import _ConfigError
    with pytest.raises(_ConfigError):
        parse_matrix("[[1, 2], [3]]")
    with pytest.raises(_ConfigError):
        parse_matrix("not json")


def test_density_csv_matches_closed_form(capsys):
    code, out, err = run_cli(capsys, [
        "density", "--model", "k1", "--alpha", "-1", "--grid", "1:1:1"])
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines[0] == "s,re_r1c1,im_r1c1"
    s, re_v, im_v = (float(t) for t in lines[1].split(","))
    assert s == 1.0
    assert re_v == pytest.approx(models.k1_density(-1.0, 1.0), rel=1e-6)
    assert re_v == pytest.approx(math.sqrt(2.0) / (6.0 * math.pi), rel=1e-6)
    assert abs(im_v) < 1e-12


def _cells(*cols):
    return ",".join(f"{float(x):.17g}" for x in cols)


def test_csv_rows_are_per_cell_17_digit_output(capsys):
    import numpy as np
    from clarkspectra import clark, livsic
    alpha = '[["0.6,0.8","0"],["0","0,1"]]'
    code, out, _ = run_cli(capsys, ["density", "--model", "k2",
                                    f"--alpha={alpha}", "--grid=-1:7:41"])
    assert code == 0
    grid = np.linspace(-1.0, 7.0, 41)
    vals = clark.ac_density(livsic.livsic_function(models.k2()),
                            [[0.6 + 0.8j, 0], [0, 1j]], grid)
    expect = [_cells(s, *[p for z in m.ravel() for p in (z.real, z.imag)])
              for s, m in zip(grid, vals)]
    assert out.splitlines()[1:] == expect
    code, out, _ = run_cli(capsys, ["livsic", "--model", "l2", "--a", "0.7",
                                    "--grid=-30:30:17", "--im", "0.25"])
    assert code == 0
    grid = np.linspace(-30.0, 30.0, 17)
    vals = livsic.livsic_function(models.l2(0.7))(grid + 0.25j)
    sig = np.linalg.norm(vals, 2, axis=(1, 2))
    expect = [_cells(s, *[p for z in m.ravel() for p in (z.real, z.imag)], sv)
              for s, m, sv in zip(grid, vals, sig)]
    assert out.splitlines()[1:] == expect


def _strict_json(text):
    # the output is standard JSON: no NaN or Infinity tokens
    def reject(token):
        raise AssertionError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=reject)


def _cells_of(entries):
    # nested {"re", "im"} objects as an array with a trailing (re, im) axis
    if isinstance(entries, dict):
        return [entries["re"], entries["im"]]
    return [_cells_of(e) for e in entries]


def _same_bits(doc_values, library_values):
    # equal as IEEE bit patterns, so -0.0 and 0.0 differ
    def bits(values):
        return np.asarray(values, dtype=float).view(np.int64)
    assert np.array_equal(bits(doc_values), bits(library_values))


def test_json_values_are_the_library_values_bit_for_bit(capsys):
    from clarkspectra import clark, livsic
    alpha = [[0.6 + 0.8j, 0], [0, 1j]]
    alpha_text = '[["0.6,0.8","0"],["0","0,1"]]'
    code, out, _ = run_cli(capsys, [
        "density", "--model", "k2", f"--alpha={alpha_text}",
        "--grid=-1:7:41", "--format", "json"])
    assert code == 0 and out.count("\n") == 1
    doc = _strict_json(out)
    grid = np.linspace(-1.0, 7.0, 41)
    vals = clark.ac_density(livsic.livsic_function(models.k2()), alpha, grid)
    _same_bits(doc["grid"], grid)
    _same_bits(_cells_of(doc["density"]),
               np.stack((vals.real, vals.imag), -1))
    _same_bits(_cells_of(doc["alpha"]),
               np.stack((np.real(alpha), np.imag(alpha)), -1))
    code, out, _ = run_cli(capsys, [
        "livsic", "--model", "l2", "--a", "0.7", "--grid=-30:30:17",
        "--im", "0.25", "--format", "json"])
    assert code == 0 and out.count("\n") == 1
    doc = _strict_json(out)
    grid = np.linspace(-30.0, 30.0, 17)
    vals = livsic.livsic_function(models.l2(0.7))(grid + 0.25j)
    _same_bits(doc["grid"], grid)
    _same_bits(_cells_of(doc["values"]), np.stack((vals.real, vals.imag), -1))
    _same_bits(doc["sigma_max"], np.linalg.norm(vals, 2, axis=(1, 2)))
    assert doc["im"] == 0.25
    code, out, _ = run_cli(capsys, [
        "atoms", "--model", "l2", "--a", "0.7", f"--alpha={alpha_text}",
        "--window=-1:120", "--format", "json"])
    assert code == 0 and out.count("\n") == 1
    doc = _strict_json(out)
    locs, masses = clark.atom_scan(livsic.livsic_function(models.l2(0.7)),
                                   np.array(alpha), (-1.0, 120.0))
    assert len(locs) == 4
    _same_bits([a["s"] for a in doc["atoms"]], locs)
    _same_bits([a["weight"] for a in doc["atoms"]],
               np.trace(masses, axis1=1, axis2=2).real)
    assert doc["grid"] == [] and doc["density"] == []


def test_density_k2_across_an_atom_is_zero_below_the_axis(capsys):
    # this coupling has an atom near s = -1.70e-4; the density is an exact
    # zero on s <= 0, where no boundary limit is taken
    alpha = '[["1:-2.6179938779914944","0"],["0","1:-2.6179938779914944"]]'
    code, out, err = run_cli(capsys, [
        "density", "--model", "k2", f"--alpha={alpha}", "--grid=-2:0.5:2001",
        "--format", "json"])
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert len(doc["grid"]) == 2001
    for s, rho in zip(doc["grid"], doc["density"]):
        cells = [v for row in rho for e in row for v in (e["re"], e["im"])]
        if s <= 0:
            assert all(v == 0.0 for v in cells), s
        else:
            assert rho[0][0]["re"] > 0.0 and rho[1][1]["re"] > 0.0, s


def test_density_json_schema(capsys):
    code, out, _ = run_cli(capsys, [
        "density", "--model", "k1", "--alpha", "-1", "--grid", "0.5:1.5:3",
        "--format", "json"])
    assert code == 0
    _check_k1_density_json(out)


def _check_k1_density_json(out):
    doc = json.loads(out)
    assert list(doc.keys()) == ["model", "alpha", "grid", "density", "atoms"]
    assert doc["model"] == "k1"
    assert doc["alpha"] == [[{"re": -1.0, "im": 0.0}]]
    assert doc["grid"] == [0.5, 1.0, 1.5]
    assert len(doc["density"]) == 3
    mid = doc["density"][1][0][0]
    assert mid["re"] == pytest.approx(math.sqrt(2.0) / (6.0 * math.pi),
                                      rel=1e-6)
    assert doc["atoms"] == []


def test_parser_reuse_leaks_nothing_between_calls(capsys):
    from clarkspectra import cli
    sequence = [
        ["density", "--model", "k1", "--alpha", "-1", "--grid", "0.5:1.5:3",
         "--format", "json"],
        ["density", "--model", "k1", "--alpha", "-1", "--grid", "0.5:1.5:3"],
        ["density", "--model", "k1", "--alpha", "-1", "--grid", "0.5:1.5:3",
         "--format", "xml"],
        ["livsic", "--model", "l2", "--a", "0.7", "--grid=-2:2:3"],
        ["livsic", "--model", "l2", "--a", "nan", "--grid=-2:2:3"],
        ["livsic", "--model", "l2", "--grid=-2:2:3"],
    ]

    def call(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return code, capsys.readouterr()

    fresh = []
    for argv in sequence:
        cli._parser.cache_clear()
        fresh.append(call(argv))
    cli._parser.cache_clear()
    assert [call(argv) for argv in sequence] == fresh
    codes = [code for code, _ in fresh]
    assert codes == [0, 0, 2, 0, 2, 0]
    outs = [captured.out for _, captured in fresh]
    assert outs[0].startswith("{") and outs[1].startswith("s,re_r1c1,")
    # no --a after --a 0.7 takes the default 1.0
    assert outs[5] != outs[3]
    assert outs[5] == call(["livsic", "--model", "l2", "--a", "1.0",
                            "--grid=-2:2:3"])[1].out


def test_atoms_l1_lattice_route(capsys):
    # the scan on (-2, 5) prints the alpha = 1 lattice points -pi/2, pi/2
    # and 3 pi/2 with their closed-form weights
    code, out, _ = run_cli(capsys, [
        "atoms", "--model", "l1", "--a", "1", "--alpha", "1",
        "--window=-2:5"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "s,weight"
    rows = [tuple(float(t) for t in line.split(",")) for line in lines[1:]]
    locs = [r[0] for r in rows]
    assert locs == pytest.approx([-math.pi / 2, math.pi / 2, 3 * math.pi / 2],
                                 rel=1e-15)
    for s, w in rows:
        assert w == pytest.approx(models.l1_weight(1.0, 1.0, s), rel=1e-12)


def test_atoms_l1_lattice_route_on_short_and_long_intervals(capsys):
    # at a = 1e-12 the lattice spacing pi/a puts one atom in (-3, 3), the
    # base point -2, with the weight (1 + s_0^2)/(pi (1 + s_0^2)^2) to first
    # order in a
    code, out, _ = run_cli(capsys, [
        "atoms", "--model", "l1", "--a", "1e-12", "--alpha", "0.6,0.8",
        "--window=-3:3"])
    assert code == 0
    rows = [tuple(float(t) for t in line.split(","))
            for line in out.strip().splitlines()[1:]]
    assert len(rows) == 1 and rows[0][0] == pytest.approx(-2.0, rel=1e-15)
    assert rows[0][1] == pytest.approx(1.0 / (5.0 * math.pi), rel=1e-12)
    # at a = 400 the defect basis overflows: a typed refusal, not a
    # traceback
    code, _, err = run_cli(capsys, [
        "atoms", "--model", "l1", "--a", "400", "--alpha", "1",
        "--window=-3:3"])
    assert code == 1 and "DomainError" in err


def test_atoms_scan_route_json(capsys):
    code, out, _ = run_cli(capsys, [
        "atoms", "--model", "k1", "--alpha", "-1", "--window=-1:-0.1",
        "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["atoms"]) == 1
    atom = doc["atoms"][0]
    assert atom["s"] == pytest.approx(-0.5, abs=1e-8)
    assert atom["weight"] == pytest.approx(0.20371832721067634, rel=1e-6)


def _k2_sigma_min(alpha, s):
    # sigma_min(I - B(s) alpha*) of the K2 model at the real point s
    import numpy as np
    from clarkspectra import livsic
    b = livsic.livsic_eval(models.k2(), s)
    return np.linalg.svd(np.eye(2) - b @ alpha.conj().T, compute_uv=False)[-1]


def test_atoms_shallow_edge_atom_fallback(capsys):
    # this coupling has one small atom just below the continuum edge,
    # placed by Newton steps within a tolerance relative to its distance to 0
    import numpy as np
    code, out, _ = run_cli(capsys, [
        "atoms", "--model", "k2", "--alpha", '[["0,-1","0"],["0","0,-1"]]',
        "--window=-0.1:0.1"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    s, w = (float(t) for t in lines[1].split(","))
    assert s == pytest.approx(-0.0016654, abs=1e-6)
    assert w == pytest.approx(0.0201234, rel=1e-4)
    assert _k2_sigma_min(-1j * np.eye(2), s) <= 1e-13


def test_atoms_k2_shallow_atom_near_the_branch_point(capsys):
    # a small atom 1.7e-4 below the edge of the essential spectrum, next to
    # a deeper one, each in its own cell of the geometric grid.
    # Every printed location is a zero of I - B alpha* to rounding.
    import cmath
    import numpy as np
    alpha = '[["1:-2.6179938779914944","0"],["0","1:-2.6179938779914944"]]'
    code, out, err = run_cli(capsys, [
        "atoms", "--model", "k2", f"--alpha={alpha}", "--window=-40:0.5"])
    assert code == 0 and err == ""
    rows = [tuple(float(t) for t in line.split(","))
            for line in out.strip().splitlines()[1:]]
    assert [s for s, _ in rows] == pytest.approx(
        [-0.26264440779126091, -1.6993372764117866e-4], rel=0, abs=1e-12)
    assert [w for _, w in rows] == pytest.approx(
        [0.22293830350252486, 0.0054530541196780467], rel=1e-10)
    coupling = cmath.rect(1.0, -2.6179938779914944) * np.eye(2)
    for s, _ in rows:
        assert _k2_sigma_min(coupling, s) <= 1e-13, s


def _l2_atoms_against_the_oracle(a, alpha, window, out):
    """The atoms of a JSON atoms request on L2, checked against the roots of
    the boundary determinant and the traces of the eigenfunction masses at
    1e-12; returns the locations and weights."""
    from clarkspectra import extensions, oracle
    model = models.l2(a)
    alpha = parse_matrix(alpha)
    doc = json.loads(out)
    locs = np.array([atom["s"] for atom in doc["atoms"]])
    weights = np.array([atom["weight"] for atom in doc["atoms"]])
    roots = oracle.l2_eigenvalues(extensions.bc_from_alpha_regular(model, alpha),
                                  a, window)
    assert len(roots) == len(locs)
    assert np.max(np.abs(np.array(roots) - locs) / (1 + np.abs(locs))) <= 1e-12
    for s, w in zip(locs, weights):
        ref = np.trace(oracle.eigen_mass(model, alpha, s)).real
        assert w == pytest.approx(ref, rel=1e-12)
    return locs, weights


def test_atoms_closer_than_the_scan_step_are_refused(capsys):
    # two L2 atoms at 0.27 and 0.344, closer than the scan step (0.23):
    # the eigenphase count puts them in cells of their own, and the request
    # prints both with their masses
    alpha = ('[["-0.49121901621699293,-0.3404899637733655",'
             '"-0.5320378119597038,0.5997551411380755"],'
             '["-0.45443034394051274,0.6605024793159593",'
             '"-0.44849476727109416,-0.3950721213323274"]]')
    a = 1.7255712856402476
    window = (-3.3861400976209453, 10.071271490026856)
    code, out, err = run_cli(capsys, [
        "atoms", "--model", "l2", "--a", repr(a), f"--alpha={alpha}",
        f"--window={window[0]!r}:{window[1]!r}", "--format", "json"])
    assert code == 0 and err == ""
    locs, weights = _l2_atoms_against_the_oracle(a, alpha, window, out)
    assert locs[:2] == pytest.approx([0.270936, 0.344274], abs=1e-6)
    assert weights[:2] == pytest.approx([0.26218, 0.25592], abs=1e-5)


@pytest.mark.parametrize("a, alpha, first", [
    (1.847671788385213,
     '[["-0.45254875266286887,-0.04241817979797751",'
     '"0.021095523797580236,0.8904803778644502"],'
     '["0.10693356817776778,0.8842881524043387",'
     '"-0.4417747640237638,0.10693331279746146"]]',
     [(-0.0591675, 0.270), (0.1014330, 0.296)]),
    (0.5303143355618514,
     '[["-0.6491494580416493,-0.4788430531083783",'
     '"-0.026923794470177807,0.5904146177944848"],'
     '["-0.5788813799062195,0.1192084712256278",'
     '"-0.5747463767946513,-0.5659967232655507"]]',
     [(-0.3531906, 0.283), (0.3485810, 0.283)]),
], ids=["a1.85", "a0.53"])
def test_atoms_of_close_l2_pairs(capsys, a, alpha, first):
    # random L2 couplings whose two lowest atoms lie closer than the scan
    # step: every atom of the window is printed, at the oracle's location
    # and with its mass
    window = (-30.0, 400.0)
    code, out, err = run_cli(capsys, [
        "atoms", "--model", "l2", "--a", repr(a), f"--alpha={alpha}",
        "--window=-30:400", "--format", "json"])
    assert code == 0 and err == ""
    locs, weights = _l2_atoms_against_the_oracle(a, alpha, window, out)
    assert list(zip(locs[:2], weights[:2])) == [
        (pytest.approx(s, abs=1e-7), pytest.approx(w, abs=1e-3))
        for s, w in first]


def test_atoms_requires_window_or_range(capsys):
    code, out, err = run_cli(capsys, [
        "atoms", "--model", "k1", "--alpha", "-1"])
    assert code == 2
    assert "window" in err


def test_atoms_on_a_window_end(capsys):
    # the K1 Robin condition b = c = 1 has its atom at -1, the window's
    # lower end: it is printed, with the coupling that bcmap gives
    code, out, _ = run_cli(capsys, ["bcmap", "--model", "k1", "--b", "1",
                                    "--c", "1"])
    alpha = json.loads(out)["alpha"]
    code, out, err = run_cli(capsys, [
        "atoms", "--model", "k1", f"--alpha={alpha['re']!r},{alpha['im']!r}",
        "--window=-1:0.5"])
    assert code == 0 and err == ""
    rows = [tuple(float(t) for t in line.split(","))
            for line in out.strip().splitlines()[1:]]
    assert len(rows) == 1
    assert rows[0][0] == pytest.approx(-1.0, rel=1e-12)
    assert rows[0][1] == pytest.approx(0.1318482719, rel=1e-9)


def test_livsic_csv_schur_bound(capsys):
    code, out, _ = run_cli(capsys, [
        "livsic", "--model", "k2", "--grid=-3:3:7", "--im", "0.5"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ("re_w,re_r1c1,im_r1c1,re_r1c2,im_r1c2,"
                        "re_r2c1,im_r2c1,re_r2c2,im_r2c2,sigma_max")
    assert len(lines) == 8
    for line in lines[1:]:
        cells = [float(t) for t in line.split(",")]
        assert len(cells) == 10
        assert cells[-1] <= 1.0 + 1e-9


def test_livsic_vanishes_at_i(capsys):
    code, out, _ = run_cli(capsys, [
        "livsic", "--model", "l1", "--grid", "0:0:1", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert list(doc.keys()) == ["model", "im", "grid", "values", "sigma_max"]
    assert doc["im"] == 1.0
    assert doc["sigma_max"][0] < 1e-12


def test_bcmap_k1_both_directions(capsys):
    code, out, _ = run_cli(capsys, [
        "bcmap", "--model", "k1", "--b", "1", "--c", "0"])
    assert code == 0 and out.count("\n") == 1
    doc = json.loads(out)
    assert doc["alpha"] == {"re": 1.0, "im": 0.0}
    assert doc["unitarity_residual"] < 1e-12
    code, out, _ = run_cli(capsys, [
        "bcmap", "--model", "k1", "--alpha", "0,-1"])
    assert code == 0
    doc = json.loads(out)
    assert abs(complex(doc["b"]["re"], doc["b"]["im"])) < 1e-12
    assert complex(doc["c"]["re"], doc["c"]["im"]) == pytest.approx(1.0)


def test_bcmap_k1_rank_test_is_relative(capsys):
    # (1e-13 : 1e-13) is the Robin ray (1 : 1), alpha = e^{3 i pi/4}, and
    # (0 : 0) is no ray: the generic map's RankError, not a LAPACK error
    for scale in ("1", "1e-13"):
        code, out, err = run_cli(capsys, [
            "bcmap", "--model", "k1", "--b", scale, "--c", scale])
        assert code == 0 and err == ""
        alpha = json.loads(out)["alpha"]
        assert abs(complex(alpha["re"], alpha["im"])
                   - np.exp(0.75j * math.pi)) < 1e-15
    code, out, err = run_cli(capsys, [
        "bcmap", "--model", "k1", "--b", "0", "--c", "0"])
    assert code == 1 and out == ""
    assert err == "error: RankError: boundary system is rank deficient\n"


def test_bcmap_l1_round_trip(capsys):
    code, out, _ = run_cli(capsys, [
        "bcmap", "--model", "l1", "--a", "0.9", "--beta", "1"])
    assert code == 0
    doc = json.loads(out)
    alpha = complex(doc["alpha"]["re"], doc["alpha"]["im"])
    assert alpha == pytest.approx(-1.0)
    code, out, _ = run_cli(capsys, [
        "bcmap", "--model", "l1", "--a", "0.9", "--alpha", "-1"])
    doc = json.loads(out)
    assert complex(doc["beta"]["re"], doc["beta"]["im"]) == pytest.approx(1.0)


def test_bcmap_l2_round_trip(capsys):
    code, out, _ = run_cli(capsys, [
        "bcmap", "--model", "l2", "--a", "1",
        "--beta-a", "[[1,0],[0,0]]", "--beta-b", "[[0,0],[1,0]]"])
    assert code == 0
    first = json.loads(out)
    assert first["unitarity_residual"] < 1e-8
    alpha_text = json.dumps(first["alpha"])
    code, out, _ = run_cli(capsys, [
        "bcmap", "--model", "l2", "--a", "1", "--alpha", alpha_text])
    assert code == 0
    second = json.loads(out)
    code, out, _ = run_cli(capsys, [
        "bcmap", "--model", "l2", "--a", "1",
        "--beta-a", json.dumps(second["beta_a"]),
        "--beta-b", json.dumps(second["beta_b"])])
    assert code == 0
    third = json.loads(out)
    for i in range(2):
        for j in range(2):
            assert third["alpha"][i][j]["re"] == pytest.approx(
                first["alpha"][i][j]["re"], abs=1e-8)
            assert third["alpha"][i][j]["im"] == pytest.approx(
                first["alpha"][i][j]["im"], abs=1e-8)


def test_bcmap_k2_round_trip(capsys):
    # the clamped beam f(0) = f'(0) = 0: one boundary block at 0, whose
    # keys and round trip match those of l2 without beta_b and a
    clamped = [[1, 0, 0, 0], [0, 1, 0, 0]]
    code, out, _ = run_cli(capsys, [
        "bcmap", "--model", "k2", "--beta-a", json.dumps(clamped)])
    assert code == 0
    first = json.loads(out)
    assert list(first) == ["model", "alpha", "unitarity_residual"]
    assert first["unitarity_residual"] < 1e-14
    code, out, _ = run_cli(capsys, [
        "bcmap", "--model", "k2", "--alpha", json.dumps(first["alpha"])])
    assert code == 0
    second = json.loads(out)
    assert list(second) == ["model", "beta_a", "unitarity_residual"]
    beta_a = np.array([[complex(e["re"], e["im"]) for e in row]
                       for row in second["beta_a"]])
    # the same condition: the rows span f(0), f'(0)
    assert beta_a.shape == (2, 4)
    assert np.max(np.abs(beta_a[:, 2:])) < 1e-14
    assert abs(np.linalg.det(beta_a[:, :2])) == pytest.approx(1.0)
    code, out, _ = run_cli(capsys, [
        "bcmap", "--model", "k2", "--beta-a", json.dumps(second["beta_a"])])
    assert code == 0
    third = json.loads(out)
    for i in range(2):
        for j in range(2):
            for part in ("re", "im"):
                assert third["alpha"][i][j][part] == pytest.approx(
                    first["alpha"][i][j][part], abs=1e-12)
    code, _, err = run_cli(capsys, ["bcmap", "--model", "k2"])
    assert code == 2 and "--beta-a" in err


@pytest.mark.parametrize("argv,flag", [
    # a second endpoint on the half-line
    (["--model", "k2", "--beta-a", "[[1,0,0,0],[0,1,0,0]]",
      "--beta-b", "[[5]]"], "--beta-b"),
    # a k1 Robin coefficient beside an l2 condition
    (["--model", "l2", "--b", "3", "--beta-a", "[[1,0],[0,0]]",
      "--beta-b", "[[0,0],[1,0]]"], "--b")])
def test_bcmap_rejects_flags_of_another_model(capsys, argv, flag):
    code, out, err = run_cli(capsys, ["bcmap", *argv])
    assert code == 2 and out == ""
    assert f"{argv[1]} bcmap takes" in err and err.rstrip().endswith(flag)


def test_verify_single_criterion(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--only", "11"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("PASS criterion 11")
    assert lines[-1] == "1/1 criteria passed"


def exit_code(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:   # argparse rejected a flag value itself
        code = exc.code
    capsys.readouterr()
    return code


def test_error_exit_codes(capsys):
    code, _, err = run_cli(capsys, [
        "density", "--model", "k1", "--alpha", "half", "--grid", "0:1:2"])
    assert code == 2 and "cannot parse complex" in err
    code, _, err = run_cli(capsys, [
        "density", "--model", "k1", "--alpha", "0.5", "--grid", "1:2:2"])
    assert code == 1 and "NonUnitaryError" in err
    code, _, err = run_cli(capsys, [
        "density", "--model", "k1", "--alpha", "-1", "--grid", "1:2"])
    assert code == 2
    code, _, err = run_cli(capsys, [
        "density", "--model", "l2", "--alpha", "1", "--grid", "1:2:2"])
    assert code == 2 and "2x2" in err
    # non-finite or out-of-range numbers are malformed input, not a
    # numerical refusal
    for argv in (
            ["density", "--model", "k1", "--alpha", "-1", "--grid", "nan:1:3"],
            ["density", "--model", "k1", "--alpha", "-1", "--grid", "0.5:inf:3"],
            ["density", "--model", "k1", "--alpha", "-1",
             "--grid", "0:1:1000000000"],
            ["livsic", "--model", "k1", "--grid", "0:1:3", "--im", "nan"],
            ["density", "--model", "l1", "--a", "nan", "--alpha", "1",
             "--grid", "0:1:3"],
            ["density", "--model", "k1", "--alpha", "nan", "--grid", "0:1:3"],
            ["density", "--model", "k2", "--alpha", "[[NaN, 0], [0, 1]]",
             "--grid", "0:1:3"],
            ["density", "--model", "k2", "--alpha", '[[{"re": "x"}, 0], [0, 1]]',
             "--grid", "0:1:3"],
            ["atoms", "--model", "k1", "--alpha", "-1", "--window=-inf:0"],
            ["bcmap", "--model", "l1", "--a", "nan", "--beta", "1"]):
        assert exit_code(capsys, argv) == 2, argv
    # a finite window too wide for the scan grid is a typed refusal (on
    # the half-line the grid is geometric, so the interval model L1)
    code, _, err = run_cli(capsys, [
        "atoms", "--model", "l1", "--alpha", "-1", "--window=-1e9:0"])
    assert code == 1 and "DomainError" in err


def test_error_messages_print_plain_numbers(capsys, monkeypatch):
    # K1's B is 1 to rounding far out, where alpha = 1 makes the density
    # undefined, and a B that is NaN at s = 1e15 is refused; each refusal
    # names the point as a Python number, not as a NumPy repr. L1's B
    # itself is unitary there (a ratio of sinh, no pairing solve)
    code, _, err = run_cli(capsys, [
        "density", "--model", "k1", "--alpha", "1", "--grid", "1e100:1e101:2"])
    assert code == 1 and "s = 1e+100" in err and "np." not in err
    argv = ["livsic", "--model", "l1", "--grid", "1e15:2e15:2", "--im", "0",
            "--format", "json"]
    code, out, err = run_cli(capsys, argv)
    assert code == 0 and err == ""
    assert np.max(np.abs(np.array(json.loads(out)["sigma_max"]) - 1.0)) <= 1e-14
    b = livsic.livsic_function(models.l1(1.0))
    nan_first = lambda w, derivative=False: np.where(
        np.asarray(w)[:, None, None] == 1e15, np.nan, b.fn(w))
    monkeypatch.setattr(livsic, "livsic_function",
                        lambda model: dataclasses.replace(b, fn=nan_first))
    code, _, err = run_cli(capsys, argv)
    assert code == 1 and "w = (1000000000000000+0j)" in err and "np." not in err


def test_atoms_k2_far_atom_of_a_haar_coupling(capsys):
    # the sixth Haar coupling of seed 13 has an atom at s = -13148.4, whose
    # eigenphase velocity gives the eigenfunction mass to 1e-12
    from clarkspectra import oracle
    from clarkspectra.cplane import random_unitary
    rng = np.random.default_rng(13)
    alpha = [random_unitary(2, rng) for _ in range(6)][5]
    text = json.dumps([[f"{float(z.real)!r},{float(z.imag)!r}" for z in row]
                       for row in alpha])
    code, out, err = run_cli(capsys, [
        "atoms", "--model", "k2", f"--alpha={text}", "--window=-1e6:0.5"])
    assert code == 0 and err == ""
    rows = [tuple(float(t) for t in line.split(","))
            for line in out.strip().splitlines()[1:]]
    assert len(rows) == 2
    s, w = rows[0]
    assert s == pytest.approx(-13148.379124730856, rel=1e-12)
    ref = np.trace(oracle.eigen_mass(models.k2(), alpha, s)).real
    assert w == pytest.approx(ref, rel=1e-12)


def test_atoms_k2_window_end_next_to_an_atom(capsys):
    # the Haar coupling of seed 955 has atoms at s = -0.808 and -0.636; with
    # the window's lower end between them the upper atom is reported with
    # its eigenfunction weight, not dropped for the one below the window
    from clarkspectra import oracle
    from clarkspectra.cplane import random_unitary
    alpha = random_unitary(2, np.random.default_rng(955))
    text = json.dumps([[f"{float(z.real)!r},{float(z.imag)!r}" for z in row]
                       for row in alpha])
    code, out, err = run_cli(capsys, [
        "atoms", "--model", "k2", f"--alpha={text}", "--window=-0.75:0.5"])
    assert code == 0 and err == ""
    rows = [tuple(float(t) for t in line.split(","))
            for line in out.strip().splitlines()[1:]]
    assert len(rows) == 1
    s, w = rows[0]
    assert s == pytest.approx(-0.6363087, rel=1e-6)
    ref = np.trace(oracle.eigen_mass(models.k2(), alpha, s)).real
    assert w == pytest.approx(ref, rel=1e-12)


def test_bcmap_and_atoms_share_the_unitary_check(capsys):
    # a coupling 2e-9 from unitary is refused by both commands
    alpha = "--alpha=[[1.000000001,0],[0,1]]"
    for argv in (["bcmap", "--model", "l2", "--a", "1", alpha],
                 ["atoms", "--model", "l2", "--a", "1", alpha,
                  "--window=0:1"]):
        code, out, err = run_cli(capsys, argv)
        assert code == 1 and out == "", argv
        assert err.startswith("error: NonUnitaryError"), argv


def test_bcmap_on_very_long_intervals_is_a_typed_refusal(capsys):
    # exp(rate a) overflows in the boundary rows: DomainError, exit 1, no
    # traceback; a = 400 still answers
    for argv in (
            ["bcmap", "--model", "l1", "--a", "1e300", "--alpha", "1"],
            ["bcmap", "--model", "l2", "--a", "1e10",
             "--alpha", "[[0,1],[1,0]]"],
            ["bcmap", "--model", "l2", "--a", "1e200",
             "--beta-a", "[[1,0],[0,0]]", "--beta-b", "[[0,0],[1,0]]"]):
        code, out, err = run_cli(capsys, argv)
        assert code == 1 and out == "", argv
        assert err.startswith("error: DomainError") and "Traceback" not in err
    code, out, err = run_cli(capsys, [
        "bcmap", "--model", "l2", "--a", "400", "--alpha", "[[0,1],[1,0]]"])
    assert code == 0 and err == ""
    assert json.loads(out)["unitarity_residual"] <= 1e-12


_L2_ARGS = {"density": ["--alpha=[[1,0],[0,1]]", "--grid=-1:1:3"],
            "livsic": ["--grid=-1:1:3"],
            "atoms": ["--alpha=[[1,0],[0,1]]", "--window=-1:1"]}


@pytest.mark.parametrize("command,model,a,error", [
    *[(cmd, "l2", a, None if cmd == "density" else "RankError")
      for a in ("1e-300", "1e-170") for cmd in _L2_ARGS],
    *[(cmd, "l2", a, None if cmd == "density" else "DomainError")
      for a in ("1e155", "1e200", "1e300") for cmd in _L2_ARGS],
    *[("atoms", "l1", a, "DomainError") for a in ("1e-309", "1e308")],
    ("atoms", "l1", "2e-308", None),
])
def test_extreme_interval_lengths_are_typed_refusals(capsys, command, model,
                                                     a, error):
    # L2 far from a = 1: the degenerate or overflowing defect basis and an
    # atom scan step that underflows to 0 are refused by type, and the
    # density, zero off the half-line, needs no B; the L1 scan refuses
    # cells of width inf or 0 before any arithmetic warns, and at
    # a = 2e-308 the lattice spacing pi/a = 1.6e308 leaves no atom in the
    # window
    args = (_L2_ARGS[command] if model == "l2"
            else ["--alpha", "1", "--window=-3:3"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, [command, "--model", model, "--a", a,
                                          *args])
    if error is None:
        assert code == 0 and err == ""
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert len(rows) == (3 if command == "density" else 0)
        assert all(float(t) == 0.0 for row in rows for t in row[1:])
    else:
        assert code == 1 and out == ""
        assert err.startswith(f"error: {error}: ") and err.count("\n") == 1


def test_import_leaves_scipy_unloaded():
    # the package and the whole verification battery, oracles included,
    # run on numpy alone
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, clarkspectra, clarkspectra.cli; "
         "print('scipy' in sys.modules); "
         "from clarkspectra import checks; "
         "print(all(r.passed for r in checks.run_all())); "
         "print('scipy' in sys.modules)"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True", "False"]


def test_module_invocation_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "clarkspectra.cli", "atoms", "--model", "l1",
         "--a", "2", "--alpha", "0,1", "--window=-1:3"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "s,weight"
    assert len(lines) == 4


def test_module_invocation_prints_one_line_of_json():
    # a fresh process builds its parser once and writes compact JSON
    proc = subprocess.run(
        [sys.executable, "-m", "clarkspectra.cli", "density", "--model", "k1",
         "--alpha", "-1", "--grid", "0.5:1.5:3", "--format", "json"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.endswith("\n") and proc.stdout.count("\n") == 1
    _check_k1_density_json(proc.stdout)
