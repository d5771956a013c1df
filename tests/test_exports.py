import ast
import inspect
from pathlib import Path

import pytest

import planarcasimir
from planarcasimir import config


@pytest.mark.parametrize("module", [planarcasimir, config],
                         ids=["planarcasimir", "config"])
def test_every_exported_name_resolves(module):
    assert len(set(module.__all__)) == len(module.__all__)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_package_exports_exactly_its_public_names():
    # Any public name outside __all__ would be importable from the package
    # without being part of its API; deleted functions must leave no trace.
    public = {name for name, value in vars(planarcasimir).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == set(planarcasimir.__all__)


def test_oracles_import_nothing_from_the_package():
    # The oracles are independent references: what imports the package,
    # such as the direct-difference reference, lives in another module.
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    assert imported and not [name for name in imported
                             if name.split(".")[0] == "planarcasimir"]
