"""The bridged TCP<->LEOTP deployment versus end-to-end alternatives.

Paper Sec. VII ("Compatible with TCP") proposes running LEOTP only in
the satellite segment, with transparent gateways at the ground
stations.  This experiment quantifies that deployment on the repo's
emulated Starlink segment: a terrestrial TCP server pushes a finite
transfer through the ingress gateway, across a lossy 10 Mbps-bottleneck
LEO segment, out the egress gateway to a terrestrial TCP client — and
the same transfer runs as plain end-to-end TCP and as pure LEOTP over
the identical full chain for comparison.

The LEO segment uses :func:`starlink_hop_specs` (GSL loss 1 %, V-curve
bottleneck), so the gateway's advantage — loss recovered hop-by-hop
inside the LEO segment instead of end-to-end — shows up directly in
client goodput.
"""

from __future__ import annotations

from repro.constellation import starlink_hop_specs
from repro.core import LeotpConfig
from repro.experiments.common import PathSpec, build_path
from repro.experiments.paper import Figure, Run
from repro.gateway import build_gateway_path
from repro.netsim.topology import HopSpec
from repro.simcore import RngRegistry, Simulator
from repro.tcp.cc import CCSpec

#: LEO-segment hops (two GSLs around two ISLs — a short ISL route).
LEO_HOPS = 4

#: Terrestrial segments on both sides: fast, clean, 5 ms.
TERRESTRIAL = HopSpec(rate_bps=100e6, delay_s=0.005)

_PROTOCOLS = ("gateway-cubic", "e2e-cubic", "leotp")


def _total_bytes(run: Run) -> int:
    # Sized to the 10 Mbps LEO bottleneck so the bridged and LEOTP runs
    # finish inside the horizon; e2e TCP may not (that is the result).
    return int(10e6 / 8 * run.duration * 0.3)


def _transfer(run: Run, protocol: str) -> tuple:
    """One finite transfer: (bytes delivered, completed, gateway backlog)."""
    sim = Simulator()
    rng = RngRegistry(run.seed)
    total_bytes = _total_bytes(run)
    leo_hops = starlink_hop_specs(LEO_HOPS, isls_enabled=True, seed=run.seed)
    full_chain = (TERRESTRIAL, *leo_hops, TERRESTRIAL)
    if protocol == "gateway-cubic":
        path = build_gateway_path(
            sim, rng, total_bytes, leo_hops,
            terrestrial_spec=TERRESTRIAL, tcp_cc=CCSpec("cubic"),
        )
        sim.run(until=run.duration)
        return (path.client.bytes_delivered, path.completed,
                path.egress.buffered_bytes)
    if protocol == "e2e-cubic":
        path = build_path(sim, rng, PathSpec(
            protocol="tcp", hops=full_chain, cc="cubic",
            total_bytes=total_bytes,
        ))
        sim.run(until=run.duration)
        delivered = path.receiver.bytes_delivered
        return delivered, path.sender.finished and delivered >= total_bytes, 0
    path = build_path(sim, rng, PathSpec(
        protocol="leotp", hops=full_chain, config=LeotpConfig(),
        total_bytes=total_bytes,
    ))
    sim.run(until=run.duration)
    return path.consumer.bytes_received, path.consumer.finished, 0


run = Figure(
    "Gateway",
    "TCP<->LEOTP gateway bridging vs end-to-end deployments "
    "(lossy emulated-Starlink LEO segment)",
    ("protocol",),
    base_s=20.0, floor_s=8.0,
    grid=[(protocol,) for protocol in _PROTOCOLS],
    cell=_transfer,
    row=lambda run, out, protocol: dict(
        total_mbytes=_total_bytes(run) / 1e6,
        delivered_mbytes=out[0] / 1e6,
        goodput_mbps=out[0] * 8 / run.duration / 1e6,
        completed=out[1],
        gw_buffered_bytes=out[2],
    ),
    sampler_interval_s=0.5,
)
