"""The package root: its public names are its modules' own lists, each used
by the package itself, and its modules import nothing beyond the standard
library and numpy."""

import ast
import sys
from pathlib import Path

import lllround
from lllround import cip, lp, mip, model, oracle, tailbounds

MODULES = (model, tailbounds, lp, cip, mip, oracle)


def test_public_names_are_the_union_of_the_module_lists():
    names = [name for module in MODULES for name in module.__all__]
    assert lllround.__all__ == names
    assert len(set(names)) == len(names) == 54
    assert "OracleError" in oracle.__all__
    for module in MODULES:
        for name in module.__all__:
            assert getattr(lllround, name) is getattr(module, name)


def test_the_root_reaches_every_library_module():
    # the root loads a module on first use, from its own list: a file left
    # off it would not be reachable as lllround.<name>
    files = {path.stem for path in Path(lllround.__file__).parent.glob("*.py")}
    assert sorted(lllround._MODULES) == sorted(files - {"__init__", "cli"})
    assert lllround._MODULES == tuple(module.__name__.removeprefix("lllround.") for module in MODULES)


def test_library_modules_import_only_modules_before_them_at_their_top():
    # the root searches _MODULES in order for a public name, so that order
    # must be a dependency order: a later module imported at the top of an
    # earlier one would load with every name of the earlier one
    package = Path(lllround.__file__).parent
    for position, name in enumerate(lllround._MODULES):
        for node in ast.parse((package / f"{name}.py").read_text()).body:
            if not isinstance(node, ast.ImportFrom) or node.level != 1:
                continue
            for target in [node.module] if node.module else [a.name for a in node.names]:
                assert target in lllround._MODULES[:position], f"{name}.py imports .{target}"


def test_the_root_lists_its_modules_and_names_and_no_others():
    assert {*lllround._MODULES, *lllround.__all__} <= set(dir(lllround))
    assert not hasattr(lllround, "no_such_name")


def test_every_public_name_is_used_by_the_package():
    # a name or attribute in some module's code, outside the definitions of
    # unused public names: a helper only they call is unused as well
    trees = [ast.parse(path.read_text(), str(path))
             for path in Path(lllround.__file__).parent.glob("*.py")]
    unused: set[str] = set()
    while True:
        used = set()
        for tree in trees:
            for top in tree.body:
                if getattr(top, "name", None) in unused:
                    continue
                for node in ast.walk(top):
                    if isinstance(node, ast.Name):
                        used.add(node.id)
                    elif isinstance(node, ast.Attribute):
                        used.add(node.attr)
        newly_unused = set(lllround.__all__) - used
        if newly_unused == unused:
            break
        unused = newly_unused
    assert not unused, f"public names the package never uses: {sorted(unused)}"


def test_modules_import_only_the_standard_library_numpy_and_lllround():
    # numpy is the one runtime dependency pyproject.toml declares; scipy is
    # test-only
    allowed = set(sys.stdlib_module_names) | {"numpy", "lllround"}
    sources = sorted(Path(lllround.__file__).parent.glob("*.py"))
    assert {"__init__", "cli", "lp"} <= {path.stem for path in sources}
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, f"{path.name} imports {name}"
