"""The package root: its public names are its modules' own lists."""

import lllround
from lllround import cip, lp, mip, model, oracle, tailbounds

MODULES = (cip, lp, mip, model, oracle, tailbounds)


def test_public_names_are_the_union_of_the_module_lists():
    names = [name for module in MODULES for name in module.__all__]
    assert lllround.__all__ == names
    assert len(set(names)) == len(names) == 60
    assert "OracleError" in oracle.__all__
    for module in MODULES:
        for name in module.__all__:
            assert getattr(lllround, name) is getattr(module, name)
