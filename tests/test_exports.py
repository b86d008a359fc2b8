"""Every exported name resolves, and the package re-exports its modules."""

import importlib

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


def test_ladder_is_an_oracle_reference():
    # the boundary-limit ladder serves only the reference checks; the
    # production point mass is the residue, with no retry beside it
    from clarkspectra import clark, cplane, oracle
    assert clarkspectra.nt_limit is oracle.nt_limit
    assert not hasattr(cplane, "nt_limit")
    assert not hasattr(clark, "point_mass_with_retry")
    assert "point_mass_with_retry" not in clarkspectra.__all__
