"""Congestion-control algorithms for the TCP baseline stack.

These provide the comparison protocols of the paper's evaluation
(Sec. V): Reno/Cubic/Hybla as loss-based references, BBR and a PCC-style
rate prober as the modern rate-based baselines of Figs. 10-13, plus the
LEO-native contenders of the bake-off (OrbCC-style handover-aware rate
control and a simple learned policy).  All share the
:class:`CongestionControl` interface consumed by
:class:`~repro.tcp.connection.TcpSender`.

The set of laws is closed: :data:`CC_REGISTRY` names each one's module
and class, and :func:`make_cc` builds one from a :class:`CCSpec`
carrying per-algorithm params, importing only that law's module.
Every other public name is resolved on first use, so importing this
package (or :class:`CCSpec`) loads no law.
"""

from __future__ import annotations

from importlib import import_module
from typing import TYPE_CHECKING, Union

from repro.common.lazy import lazy_exports
from repro.tcp.cc.spec import as_cc_spec

if TYPE_CHECKING:
    from repro.tcp.cc.base import CongestionControl
    from repro.tcp.cc.spec import CCSpec

#: Congestion-control name -> (module under this package, class name).
CC_REGISTRY = {
    "adaptive": ("adaptive", "AdaptiveCC"),
    "bbr": ("bbr", "BbrCC"),
    "cubic": ("cubic", "CubicCC"),
    "hybla": ("hybla", "HyblaCC"),
    "orbcc": ("orbcc", "OrbCC"),
    "pcc": ("pcc", "PccVivaceCC"),
    "reno": ("base", "RenoCC"),
    "vegas": ("vegas", "VegasCC"),
    "westwood": ("westwood", "WestwoodCC"),
}


def make_cc(spec: Union[str, CCSpec], mss: int = 1400) -> CongestionControl:
    """Instantiate the congestion-control law ``spec`` selects.

    A bare string is coerced (``"bbr"`` → ``CCSpec("bbr")``); a
    :class:`CCSpec`'s params are forwarded as constructor keywords, so
    ``make_cc(CCSpec("orbcc", {"probe_gain": 2.5}))`` is
    ``OrbCC(mss=..., probe_gain=2.5)``.
    """
    spec = as_cc_spec(spec)
    try:
        module, cls = CC_REGISTRY[spec.name]
    except KeyError:
        raise ValueError(
            f"unknown congestion control {spec.name!r}; "
            f"choose from {sorted(CC_REGISTRY)}"
        ) from None
    factory = getattr(import_module(f"{__name__}.{module}"), cls)
    try:
        return factory(mss=mss, **spec.params_dict)
    except TypeError as exc:
        raise ValueError(
            f"bad params for congestion control {spec.name!r}: {exc}"
        ) from None


__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "adaptive": ("AdaptiveCC",),
    "base": ("CongestionControl", "RenoCC"),
    "bbr": ("BbrCC",),
    "cubic": ("CubicCC",),
    "hybla": ("HyblaCC",),
    "orbcc": ("OrbCC",),
    "pcc": ("PccVivaceCC",),
    "spec": ("CCSpec", "as_cc_spec", "parse_cc_params"),
    "vegas": ("VegasCC",),
    "westwood": ("WestwoodCC",),
})
__all__ += ["CC_REGISTRY", "make_cc"]
