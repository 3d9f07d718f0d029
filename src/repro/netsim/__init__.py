"""Packet-level network substrate: links, nodes, topologies, bandwidth models."""

from repro.netsim.bandwidth import (
    BandwidthProfile,
    HandoverVCurveBandwidth,
    SquareWaveBandwidth,
    starlink_download_bandwidth_samples,
)
from repro.netsim.link import DuplexLink, Link, LinkStats
from repro.netsim.node import Node, Router, SinkNode
from repro.netsim.packet import Packet
from repro.netsim.topology import (
    Dumbbell,
    FirstUpLink,
    HopSpec,
    build_chain,
    build_dumbbell,
    uniform_chain_specs,
)
from repro.netsim.trace import FlowRecorder, TimeSeriesProbe, cdf

__all__ = [
    "BandwidthProfile",
    "Dumbbell",
    "DuplexLink",
    "FirstUpLink",
    "FlowRecorder",
    "HandoverVCurveBandwidth",
    "HopSpec",
    "Link",
    "LinkStats",
    "Node",
    "Packet",
    "Router",
    "SinkNode",
    "SquareWaveBandwidth",
    "TimeSeriesProbe",
    "build_chain",
    "build_dumbbell",
    "cdf",
    "starlink_download_bandwidth_samples",
    "uniform_chain_specs",
]
