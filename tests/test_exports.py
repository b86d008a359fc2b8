"""Every exported name resolves, and the package re-exports its modules."""

import ast
import importlib
from pathlib import Path

import pytest

import clarkspectra

REEXPORTED = ["cplane", "defect", "livsic", "clark", "models", "extensions",
              "oracle"]
MODULES = REEXPORTED + ["checks", "cli"]


def test_package_exports_resolve():
    missing = [n for n in clarkspectra.__all__
               if not hasattr(clarkspectra, n)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    mod = importlib.import_module(f"clarkspectra.{name}")
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert missing == []


@pytest.mark.parametrize("name", REEXPORTED)
def test_module_exports_reexported(name):
    mod = importlib.import_module(f"clarkspectra.{name}")
    absent = [n for n in mod.__all__ if n not in clarkspectra.__all__]
    assert absent == []
    assert all(getattr(clarkspectra, n) is getattr(mod, n) for n in mod.__all__)


def test_no_boundary_limit_ladder_remains():
    # the oracles are direct ODE routines; the production point mass is
    # Clark's eigenphase-velocity formula, with no retry beside it
    from clarkspectra import clark, cplane, oracle
    for mod in (clarkspectra, clark, cplane, oracle):
        assert not hasattr(mod, "nt_limit")
        assert not hasattr(mod, "ladder_point_mass")
    assert not hasattr(clark, "point_mass_with_retry")
    assert "point_mass_with_retry" not in clarkspectra.__all__


def test_one_boundary_map_pair_remains():
    # alpha_from_bc_regular and bc_from_alpha_regular serve all four
    # models, the rank-one ones included, and the L2 atoms are
    # clark.atom_scan of the generic B
    from clarkspectra import extensions, models, oracle
    gone = ("alpha_from_bc_k1", "bc_from_alpha_k1", "alpha_from_bc_l1",
            "bc_from_alpha_l1", "alpha_from_bc_singular_template")
    for name in gone + ("_interval_hats", "_E14", "_E34"):
        assert not hasattr(extensions, name), name
    assert not hasattr(oracle, "_hats")
    assert not hasattr(models, "l2_atoms")
    assert not hasattr(models, "clark") and not hasattr(models, "livsic")
    assert not hasattr(models.Model, "expression_eigenvalue")
    for name in gone + ("l2_atoms",):
        assert name not in clarkspectra.__all__


def test_cli_atoms_come_from_the_scan_alone():
    # atoms has no closed lattice route beside clark.atom_scan
    text = (Path(clarkspectra.__file__).parent / "cli.py").read_text()
    for word in ("n_range", "l1_atoms", "l1_weight"):
        assert word not in text, word


def test_src_imports_no_scipy():
    # numpy is the only runtime dependency
    src = Path(clarkspectra.__file__).parent
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "scipy" for n in names), path.name


def test_livsic_is_b_alone():
    # livsic_eval is B's one evaluator and livsic_function binds it; the
    # small-matrix kernels live in clark, their only caller, which imports
    # nothing private from livsic
    from clarkspectra import livsic, models
    for name in ("_continued_b", "_mul_small", "_solve_small",
                 "_eigenvalues_small", "_ADJ_SIGN"):
        assert not hasattr(livsic, name), name
    for model in (models.k1(), models.l2(1.0)):
        assert livsic.livsic_function(model).fn.func is livsic.livsic_eval
    src = Path(clarkspectra.__file__).parent / "clark.py"
    names = [alias.name for node in ast.walk(ast.parse(src.read_text()))
             if isinstance(node, ast.ImportFrom) and node.module == "livsic"
             for alias in node.names]
    assert "conjugated_schur" in names
    assert [n for n in names if n.startswith("_")] == []


ROUTE = ["cplane", "defect", "models", "livsic", "clark", "extensions"]
CLOSED_FORMS = ["k1_livsic", "l1_livsic", "k1_density", "l1_atoms", "l1_weight"]


def _package_imports(name):
    """The package modules that clarkspectra.<name> imports, by its AST,
    whether relative (from . import x, from .x import y) or absolute."""
    path = Path(clarkspectra.__file__).parent / f"{name}.py"
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            parent = "clarkspectra" if node.level else ""
            dotted = ".".join(filter(None, (parent, node.module)))
            found.update(alias.name for alias in node.names
                         if dotted == "clarkspectra")
            paths = [dotted]
        elif isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        else:
            continue
        found.update(p.split(".")[1] for p in paths
                     if p.startswith("clarkspectra."))
    return found


@pytest.mark.parametrize("name", ROUTE)
def test_route_imports_no_reference(name):
    # the route from B to the measure stands apart from the references
    # that check it (oracle) and from the battery (checks)
    assert not _package_imports(name) & {"oracle", "checks"}


def test_cli_reaches_the_references_only_through_checks():
    imports = _package_imports("cli")
    assert "checks" in imports and "oracle" not in imports


def test_closed_forms_are_references():
    from clarkspectra import models, oracle
    for name in CLOSED_FORMS:
        assert not hasattr(models, name), name
        assert name in oracle.__all__ and name in clarkspectra.__all__, name
        assert getattr(clarkspectra, name) is getattr(oracle, name)


def test_test_only_names_are_gone():
    from clarkspectra import clark, errors, extensions
    for mod, name in ((extensions, "lagrange_bracket"),
                      (errors, "UnsupportedError"), (clark, "check_alpha")):
        assert not hasattr(mod, name), name
        assert name not in clarkspectra.__all__, name
