"""Lazy package exports (PEP 562).

A package ``__init__`` lists each public name beside the submodule that
defines it.  Importing the package imports none of them; the first access
of a name imports its submodule and caches the value in the package, so
later lookups are plain attribute reads.  This keeps ``import
repro.core.live`` from loading the simulator through ``repro`` and
``repro.core``.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, Dict, Iterable, List, Tuple


def lazy_exports(
    package: str, table: Dict[str, Iterable[str]], own: Iterable[str] = ()
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``table`` maps a submodule, relative to ``package`` (``".kernel"``),
    to the names it exports; ``own`` lists the names ``package`` defines
    itself.
    """
    origin = {name: module for module, names in table.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    return sorted([*origin, *own]), __getattr__, __dir__
