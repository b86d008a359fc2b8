import json
import math
import subprocess
import sys

import pytest

from clarkspectra import models
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


def test_density_json_schema(capsys):
    code, out, _ = run_cli(capsys, [
        "density", "--model", "k1", "--alpha", "-1", "--grid", "0.5:1.5:3",
        "--format", "json"])
    assert code == 0
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


def test_atoms_l1_lattice_route(capsys):
    code, out, _ = run_cli(capsys, [
        "atoms", "--model", "l1", "--a", "1", "--alpha", "1",
        "--n-range=-1..1"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "s,weight"
    rows = [tuple(float(t) for t in line.split(",")) for line in lines[1:]]
    locs = [r[0] for r in rows]
    assert locs == pytest.approx([-math.pi / 2, math.pi / 2, 3 * math.pi / 2])
    for s, w in rows:
        assert w == pytest.approx(models.l1_weight(1.0, 1.0, s), rel=1e-12)


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


def test_atoms_shallow_edge_atom_fallback(capsys):
    # this coupling has one small atom just below the continuum edge; the
    # strict point-mass ladder stalls on it and the weight column must come
    # through the documented reduced-tolerance retry
    code, out, _ = run_cli(capsys, [
        "atoms", "--model", "k2", "--alpha", '[["0,-1","0"],["0","0,-1"]]',
        "--window=-0.1:0.1"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    s, w = (float(t) for t in lines[1].split(","))
    assert s == pytest.approx(-0.0016654, abs=1e-6)
    assert w == pytest.approx(0.0201234, rel=1e-4)


def test_atoms_requires_window_or_range(capsys):
    code, out, err = run_cli(capsys, [
        "atoms", "--model", "k1", "--alpha", "-1"])
    assert code == 2
    assert "window" in err


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
    assert code == 0
    doc = json.loads(out)
    assert doc["alpha"] == {"re": 1.0, "im": 0.0}
    assert doc["unitarity_residual"] < 1e-12
    code, out, _ = run_cli(capsys, [
        "bcmap", "--model", "k1", "--alpha", "0,-1"])
    assert code == 0
    doc = json.loads(out)
    assert abs(complex(doc["b"]["re"], doc["b"]["im"])) < 1e-12
    assert complex(doc["c"]["re"], doc["c"]["im"]) == pytest.approx(1.0)


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


def test_bcmap_k2_not_exposed(capsys):
    code, out, err = run_cli(capsys, [
        "bcmap", "--model", "k2", "--alpha", "1"])
    assert code == 2
    assert "library API" in err


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
    k1_atoms = ["atoms", "--model", "k1", "--alpha", "-1", "--window=-1:-0.1"]
    for argv in (
            ["density", "--model", "k1", "--alpha", "-1", "--grid", "nan:1:3"],
            ["density", "--model", "k1", "--alpha", "-1", "--grid", "0.5:inf:3"],
            ["livsic", "--model", "k1", "--grid", "0:1:3", "--im", "nan"],
            ["density", "--model", "l1", "--a", "nan", "--alpha", "1",
             "--grid", "0:1:3"],
            ["density", "--model", "k1", "--alpha", "nan", "--grid", "0:1:3"],
            ["density", "--model", "k2", "--alpha", "[[NaN, 0], [0, 1]]",
             "--grid", "0:1:3"],
            ["density", "--model", "k2", "--alpha", '[[{"re": "x"}, 0], [0, 1]]',
             "--grid", "0:1:3"],
            k1_atoms + ["--step", "nan"],
            k1_atoms + ["--step", "0"],
            k1_atoms + ["--step=-1"],
            ["atoms", "--model", "k1", "--alpha", "-1", "--window=-inf:0"],
            ["bcmap", "--model", "l1", "--a", "nan", "--beta", "1"]):
        assert exit_code(capsys, argv) == 2, argv
    # a finite window too wide for the scan grid is a typed refusal
    code, _, err = run_cli(capsys, [
        "atoms", "--model", "k1", "--alpha", "-1", "--window=-1e9:0"])
    assert code == 1 and "DomainError" in err


def test_module_invocation_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "clarkspectra.cli", "atoms", "--model", "l1",
         "--a", "2", "--alpha", "0,1", "--n-range", "0..2"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "s,weight"
    assert len(lines) == 4
