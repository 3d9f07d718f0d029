"""Packet-level TCP baselines: engine, congestion control, Split TCP.

Every public name is resolved on first use, so importing one submodule
(``repro.tcp.cc.spec``, as a LEOTP run does for :class:`CCSpec`) loads
neither the connection engine nor a congestion-control law.
"""

from repro.common.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "cc": (
        "BbrCC", "CC_REGISTRY", "CongestionControl", "CubicCC", "HyblaCC",
        "PccVivaceCC", "RenoCC", "VegasCC", "WestwoodCC", "make_cc",
    ),
    "connection": (
        "ByteStream", "FiniteStream", "InfiniteStream", "ProxyStream",
        "TcpReceiver", "TcpSender",
    ),
    "flows": ("TcpPath", "build_e2e_tcp_path"),
    "segment": ("DEFAULT_MSS", "TCP_HEADER_BYTES", "TcpSegment"),
    "snoop": ("SnoopProxy",),
    "split": ("SplitTcpPath", "SplitTcpProxy", "build_split_tcp_path"),
})
