import inspect

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
