"""Lazy package surfaces (PEP 562).

A package ``__init__`` that re-exports its submodules' public names
imports every one of those submodules the moment anything under the
package is imported.  A sentinel host child then pays for the whole
client surface before it serves its first ``open``.  With
:func:`lazy_exports` the package names what it re-exports and where
each name lives; a submodule is imported the first time one of its
names is looked up on the package, and the value is then cached there.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping

__all__ = ["lazy_exports"]


def lazy_exports(package: str, exports: Mapping[str, tuple[str, ...]]
                 ) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """Return the module ``__getattr__`` and ``__dir__`` of *package*.

    *exports* maps each defining module to the names the package
    re-exports from it.  Unknown names raise :class:`AttributeError`,
    so ``from package import submodule`` still imports the submodule.
    """
    where = {name: module for module, names in exports.items()
             for name in names}

    def __getattr__(name: str) -> Any:
        module = where.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(where))

    return __getattr__, __dir__
