"""Package re-exports that resolve on first access (PEP 562).

A package ``__init__`` writes what it re-exports once, as a table from
defining submodule to names, and imports nothing at import time::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        ".messages": ("Accept", "Assign"),
        ".protocol": ("AriaAgent",),
    })

The first read of a name imports its submodule and stores the object in
the package's namespace, so every later read is a plain attribute lookup.
A process that imports one submodule — a live node importing the wire —
pays for that submodule's imports and no others.
"""

import importlib
import sys


def lazy_exports(package, table):
    """``(__getattr__, __dir__, __all__)`` for ``package`` over ``table``."""
    home = {name: module for module, names in table.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name):
        if name not in home:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(home[name], package), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(namespace.keys() | home.keys())

    return __getattr__, __dir__, list(home)
