"""The built-in congestion-control laws, every one registered.

Importing this module imports each law's module, whose ``@register_cc``
line adds it to :data:`~repro.tcp.cc.registry.CC_REGISTRY`.  It is the
one place that loads them: :func:`make_cc`, a read of ``CC_REGISTRY``
through :mod:`repro.tcp.cc`, and a plugin's registration (which must not
claim a built-in name) all come through here, so a run that never builds
a TCP sender never compiles a law.
"""

from __future__ import annotations

from typing import Union

from repro.tcp.cc import (  # noqa: F401  (imported for their registrations)
    adaptive,
    base,
    bbr,
    cubic,
    hybla,
    orbcc,
    pcc,
    vegas,
    westwood,
)
from repro.tcp.cc.base import CongestionControl
from repro.tcp.cc.registry import CC_REGISTRY
from repro.tcp.cc.spec import CCSpec, as_cc_spec


def make_cc(cc: Union[str, CCSpec], mss: int = 1400) -> CongestionControl:
    """Instantiate a congestion-control algorithm by name or spec.

    A bare string is coerced (``"bbr"`` → ``CCSpec("bbr")``); a
    :class:`CCSpec`'s params are forwarded as constructor keywords, so
    ``make_cc(CCSpec("orbcc", {"probe_gain": 2.5}))`` is
    ``OrbCC(mss=..., probe_gain=2.5)``.
    """
    spec = as_cc_spec(cc)
    try:
        factory = CC_REGISTRY[spec.name]
    except KeyError:
        raise ValueError(
            f"unknown congestion control {spec.name!r}; "
            f"choose from {sorted(CC_REGISTRY)}"
        ) from None
    try:
        return factory(mss=mss, **spec.params_dict)
    except TypeError as exc:
        raise ValueError(
            f"bad params for congestion control {spec.name!r}: {exc}"
        ) from None
