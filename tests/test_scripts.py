"""Smoke runs of the scripts in scripts/, so that a library name they use
cannot disappear unnoticed."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, timeout=300,
                          env=env, cwd=ROOT)


@pytest.mark.parametrize("name,args", [
    ("density_sweep.py", ("--model", "k1", "--phases", "2",
                          "--grid", "0.001:80:60")),
    ("atom_tables.py", ("l1", "--n-range=-2..2")),
])
def test_script_runs(name, args):
    proc = run_script(name, *args)
    assert proc.returncode == 0, proc.stderr


def test_atom_tables_l2_counts_agree():
    proc = run_script("atom_tables.py", "l2", "--top", "40")
    assert proc.returncode == 0, proc.stderr
    assert "root count 4, scan count 4" in proc.stdout


def test_layer_timing_prints_one_json_line():
    proc = run_script("layer_timing.py", "--repeat", "1")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    models = {"K1", "K2", "L1", "L2"}
    assert set(doc["b_us_per_point"]) == set(doc["atom_scan_ms"]) == models
    for per_size in doc["b_us_per_point"].values():
        assert set(per_size) == {"1", "64", "512"}
        assert all(t > 0 for t in per_size.values())
    assert all(t > 0 for t in doc["atom_scan_ms"].values())
    # the deterministic work of each scan: the grid call and the Newton
    # rounds, each with at least one point
    calls, points = doc["atom_scan_b_calls"], doc["atom_scan_b_points"]
    assert set(calls) == set(points) == models
    for name in models:
        assert isinstance(calls[name], int) and isinstance(points[name], int)
        assert 2 <= calls[name] <= points[name]
    assert set(doc["oracle_ms"]) == {"quad_inner_k2_block",
                                     "l2_eigenvalues_dirichlet"}
    assert all(t > 0 for t in doc["oracle_ms"].values())
    # the oracle's work in one battery: four root searches of criterion 7
    # and the quadratures of criteria 6, 10 and 11
    counts = doc["oracle_counts"]
    assert set(counts) == {"l2_eigenvalues_root_search_calls", "quad_inner_calls"}
    searches = counts["l2_eigenvalues_root_search_calls"]
    assert len(searches) == 4 and all(isinstance(c, int) and c > 0 for c in searches)
    assert isinstance(counts["quad_inner_calls"], int)
    assert counts["quad_inner_calls"] > 0
    assert set(doc["cli_ms"]) == {"K1", "K2"}
    for per_count in doc["cli_ms"].values():
        assert set(per_count) == {"20", "80"}
        for parts in per_count.values():
            assert set(parts) == {"request", "compute", "write"}
            assert all(t > 0 for t in parts.values())
