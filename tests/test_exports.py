"""The package namespace re-exports exactly the modules' public names."""

import types

import pytest

import poolscreen
from poolscreen import designs, dilution, estimation, simulation, tables

MODULES = (designs, dilution, estimation, simulation, tables)

# module constants that stay in their module
NOT_REEXPORTED = {"DEFAULT_BATCH_CAP", "MAX_EXACT_POOL_COUNT", "BLOCK_REPS"}


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_listed_name_resolves(module):
    assert len(set(module.__all__)) == len(module.__all__)
    for name in module.__all__:
        assert hasattr(module, name), name


def test_package_reexports_each_modules_list():
    expected = {name for m in MODULES for name in m.__all__} - NOT_REEXPORTED
    exported = {
        name for name, value in vars(poolscreen).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == expected
    for module in MODULES:
        for name in set(module.__all__) - NOT_REEXPORTED:
            assert getattr(poolscreen, name) is getattr(module, name)
