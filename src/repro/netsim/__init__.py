"""Packet-level network substrate: links, nodes, topologies, bandwidth models."""

from repro.netsim.bandwidth import (
    BandwidthProfile,
    ConstantBandwidth,
    HandoverVCurveBandwidth,
    SquareWaveBandwidth,
    TraceBandwidth,
    starlink_download_bandwidth_samples,
    starlink_gsl_trace,
)
from repro.netsim.link import DuplexLink, Link, LinkStats
from repro.netsim.node import Node, Router, SinkNode
from repro.netsim.packet import Packet
from repro.netsim.topology import (
    Dumbbell,
    HopSpec,
    SwitchablePath,
    SwitchedLink,
    build_chain,
    build_dumbbell,
    uniform_chain_specs,
)
from repro.netsim.trace import FlowRecorder, TimeSeriesProbe, cdf

__all__ = [
    "BandwidthProfile",
    "ConstantBandwidth",
    "Dumbbell",
    "DuplexLink",
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
    "SwitchablePath",
    "SwitchedLink",
    "TimeSeriesProbe",
    "TraceBandwidth",
    "build_chain",
    "build_dumbbell",
    "cdf",
    "starlink_download_bandwidth_samples",
    "starlink_gsl_trace",
    "uniform_chain_specs",
]
