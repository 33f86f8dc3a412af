"""Rounding covering and minimax integer programs with certified bounds.

The package splits into tail-probability kernels (:mod:`lllround.tailbounds`),
instance modelling and generators (:mod:`lllround.model`), a small dense LP
solver (:mod:`lllround.lp`), the covering rounding pipeline with its success
estimator and derandomizer (:mod:`lllround.cip`), minimax rounding on one
path, a point check then Las Vegas retries (:mod:`lllround.mip`),
exhaustive verification oracles (:mod:`lllround.oracle`), and the
command-line front end (:mod:`lllround.cli`).

The package's public names are those its modules list in their `__all__`.
Each module loads on first use (PEP 562): `import lllround` loads none of
them, `lllround.model` loads `model` with its own imports, and a public name
loads the modules of `_MODULES` in order until one exports it.  That order
is a dependency order, so `from lllround import gen_set_cover` loads
`model` alone.  Asking for `__all__` loads all six.  So `lllround gen`
loads `model` alone, and `lllround round` adds `lp` and the rounding
modules its instance needs: `cip` and `tailbounds` for a cover, `mip` and
`tailbounds` for a minimax program.  Only `verify` loads `oracle`, and
`verify --which tail` loads it with `model` and `tailbounds` alone.
"""

import importlib

__version__ = "0.1.0"

_MODULES = ("model", "tailbounds", "lp", "cip", "mip", "oracle")


def __getattr__(name: str):
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name == "__all__":
        value = [public for module in _MODULES for public in __getattr__(module).__all__]
    else:
        for module in map(__getattr__, _MODULES):
            if name in module.__all__:
                value = getattr(module, name)
                break
        else:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULES, *__getattr__("__all__")})
