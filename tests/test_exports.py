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
    # models; the L1 closed form is an involution that serves both ways, and
    # the L2 atoms are clark.atom_scan of the generic B
    from clarkspectra import extensions, models, oracle
    for name in ("alpha_from_bc_singular_template", "bc_from_alpha_l1",
                 "_interval_hats"):
        assert not hasattr(extensions, name)
    assert not hasattr(oracle, "_hats")
    assert not hasattr(models, "l2_atoms")
    assert not hasattr(models, "clark") and not hasattr(models, "livsic")
    assert not hasattr(models.Model, "expression_eigenvalue")
    for name in ("alpha_from_bc_singular_template", "bc_from_alpha_l1",
                 "l2_atoms"):
        assert name not in clarkspectra.__all__


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
