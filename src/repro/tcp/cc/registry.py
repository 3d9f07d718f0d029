"""The congestion-control plugin registry.

Controllers register themselves with the :func:`register_cc` decorator;
:func:`make_cc` (in :mod:`repro.tcp.cc`) instantiates them by name or
from a :class:`~repro.tcp.cc.spec.CCSpec`.  Third-party controllers can
live in any importable module — decorating the class is enough to make
the name selectable from every CLI (``--cc``), no edits to
``repro/tcp/cc/__init__.py`` required::

    from repro.tcp.cc import CongestionControl, register_cc

    @register_cc("mycc")
    class MyCC(CongestionControl):
        ...

Names are case-insensitive (stored lowercased).  A handful of names are
reserved because the run API uses them as *protocol* selectors, not CC
selectors — registering ``"leotp"`` as a TCP congestion control would
shadow the protocol dispatch in :class:`~repro.workload.pool.FlowPool`
and :class:`~repro.experiments.common.PathSpec`.
"""

from __future__ import annotations

from importlib import import_module
from typing import Callable, TypeVar

#: Name -> factory.  Populated exclusively via :func:`register_cc`; the
#: built-in laws register when :mod:`repro.tcp.cc.builtin` loads (read it
#: as ``repro.tcp.cc.CC_REGISTRY`` to see them all).
CC_REGISTRY: dict[str, Callable] = {}

#: Names the run API interprets as protocols, never as CC algorithms.
RESERVED_CC_NAMES = frozenset({"leotp", "tcp", "split", "split_tcp", "gateway"})

_F = TypeVar("_F", bound=Callable)


def register_cc(name: str) -> Callable[[_F], _F]:
    """Class decorator registering a congestion-control factory.

    Raises ``ValueError`` on a duplicate registration (two plugins
    claiming one name is always a bug — there is deliberately no
    silent-override mode) and on reserved names (see
    :data:`RESERVED_CC_NAMES`).
    """
    key = name.lower()
    if not key or not key.replace("_", "").replace("-", "").isalnum():
        raise ValueError(f"invalid congestion-control name {name!r}")
    if key in RESERVED_CC_NAMES:
        raise ValueError(
            f"congestion-control name {name!r} is reserved for protocol "
            f"dispatch; reserved names: {sorted(RESERVED_CC_NAMES)}"
        )

    def decorate(factory: _F) -> _F:
        if not factory.__module__.startswith(f"{__package__}."):
            # A plugin may not claim a built-in name the laws have not
            # registered yet: load them first.
            import_module(f"{__package__}.builtin")
        if key in CC_REGISTRY:
            raise ValueError(
                f"congestion control {name!r} already registered "
                f"(by {CC_REGISTRY[key]!r})"
            )
        CC_REGISTRY[key] = factory
        return factory

    return decorate
