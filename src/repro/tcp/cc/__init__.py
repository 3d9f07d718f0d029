"""Congestion-control algorithms for the TCP baseline stack.

These provide the comparison protocols of the paper's evaluation
(Sec. V): Reno/Cubic/Hybla as loss-based references, BBR and a PCC-style
rate prober as the modern rate-based baselines of Figs. 10-13, plus the
LEO-native contenders of the bake-off (OrbCC-style handover-aware rate
control and a simple learned policy).  All share the
:class:`CongestionControl` interface consumed by
:class:`~repro.tcp.connection.TcpSender`.

Selection is registry-driven: classes self-register with the
:func:`register_cc` decorator, :func:`make_cc` instantiates by name or
from a :class:`CCSpec` carrying per-algorithm params.  Third-party
controllers register from their own module — see
:mod:`repro.tcp.cc.registry`.  Every public name is resolved on first
use: importing this package (or :class:`CCSpec`) loads no law, and
``make_cc`` or a read of ``CC_REGISTRY`` loads them all
(:mod:`repro.tcp.cc.builtin`).
"""

from repro.common.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "adaptive": ("AdaptiveCC",),
    "base": ("CongestionControl", "RenoCC"),
    "bbr": ("BbrCC",),
    "builtin": ("CC_REGISTRY", "make_cc"),
    "cubic": ("CubicCC",),
    "hybla": ("HyblaCC",),
    "orbcc": ("OrbCC",),
    "pcc": ("PccVivaceCC",),
    "registry": ("RESERVED_CC_NAMES", "register_cc"),
    "spec": ("CCSpec", "as_cc_spec", "parse_cc_params"),
    "vegas": ("VegasCC",),
    "westwood": ("WestwoodCC",),
})
