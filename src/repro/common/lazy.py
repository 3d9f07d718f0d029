"""Package exports resolved on first use.

A package whose ``__init__`` re-exports names from its submodules would
otherwise import every submodule as soon as any one of them is imported
(``import repro.analysis.stats`` runs ``repro/analysis/__init__`` first).
:func:`lazy_exports` builds the module-level ``__all__``, ``__getattr__``
and ``__dir__`` that import a name's submodule only when the name is
first read, and cache the value in the package namespace.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable


def lazy_exports(
    namespace: dict[str, Any], by_module: dict[str, tuple[str, ...]]
) -> tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]:
    """Return ``(__all__, __getattr__, __dir__)`` for a package.

    ``namespace`` is the package's ``globals()``; ``by_module`` maps each
    submodule's short name to the public names it defines.
    """
    package = namespace["__name__"]
    exports = {name: module for module, names in by_module.items()
               for name in names}

    def __getattr__(name: str) -> Any:
        module = exports.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(f"{package}.{module}"), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *exports})

    return list(exports), __getattr__, __dir__
