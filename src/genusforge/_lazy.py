"""Public names of a layer package, resolved on first use (PEP 562).

A layer package lists which submodule defines each of its public names.
Importing the package loads none of its submodules; reading a name
imports the submodule that defines it, and binds the name on the package
so the next read is a plain attribute lookup.  A CLI command that runs
only integer code thus never loads the submodules that import numpy.
"""

from __future__ import annotations

import sys
from importlib import import_module


def lazy_names(package: str, table: dict[str, tuple[str, ...]]):
    """`__all__`, `__getattr__` and `__dir__` for `package`, whose table
    maps each submodule to the public names it defines.

    No public name may be a submodule name: importing a submodule binds it
    on the package, where it would hide the name of the same spelling.
    """
    where = {name: module for module, names in table.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str):
        if name not in where:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(f"{package}.{where[name]}"), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | where.keys())

    return list(where), __getattr__, __dir__
