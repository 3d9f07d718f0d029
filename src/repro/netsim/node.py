"""Nodes: protocol attachment points and simple static routers."""

from __future__ import annotations

from repro.netsim.link import Link
from repro.netsim.packet import Packet
from repro.simcore.simulator import Simulator


class Node:
    """A network node.

    Protocol endpoints subclass :class:`Node` and override
    :meth:`on_receive`.
    """

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self.packets_received = 0
        # Crash emulation (fault injection): a crashed node drops every
        # arriving packet, as a powered-off satellite would.
        self.crashed = False
        self.packets_dropped_crashed = 0

    def receive(self, packet: Packet, link: Link) -> None:
        """Entry point invoked by links on delivery."""
        if self.crashed:
            self.packets_dropped_crashed += 1
            return
        self.packets_received += 1
        self.on_receive(packet, link)

    def crash(self) -> None:
        """Take the node down: every packet is dropped until :meth:`restart`.

        Subclasses holding volatile state (caches, flow tables, send
        buffers) override this to wipe it, modelling a real power-cycle.
        """
        self.crashed = True

    def restart(self) -> None:
        """Bring a crashed node back up (with whatever state survives)."""
        self.crashed = False

    def on_receive(self, packet: Packet, link: Link) -> None:
        """Default packet handler; override in subclasses."""
        raise NotImplementedError(
            f"node {self.name} received a packet but has no handler"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name}>"


class Router(Node):
    """Static-table IP-style router: forwards by packet ``dst``.

    Used for dumbbell topologies where multiple flows share a bottleneck.
    Packets whose destination has no route are counted and dropped.
    """

    def __init__(self, sim: Simulator, name: str) -> None:
        super().__init__(sim, name)
        self._routes: dict[str, Link] = {}
        self.packets_unrouted = 0

    def add_route(self, dst_name: str, out_link: Link) -> None:
        self._routes[dst_name] = out_link

    def remove_route(self, dst_name: str) -> None:
        """Withdraw a route (flow retirement in many-flow workloads)."""
        self._routes.pop(dst_name, None)

    def on_receive(self, packet: Packet, link: Link) -> None:
        out = self._routes.get(packet.dst or "")
        if out is None:
            self.packets_unrouted += 1
            return
        out.send(packet)


class ChainForwarder(Node):
    """A transparent store-and-forward relay for chain topologies.

    Forwards each packet onto the outgoing link associated with the link
    it arrived on — i.e. packets keep travelling in the same direction.
    Used for end-to-end TCP over multi-hop chains and for the non-Midnode
    satellites in LEOTP partial-deployment experiments.
    """

    def __init__(self, sim: Simulator, name: str) -> None:
        super().__init__(sim, name)
        self._forwarding: dict[int, Link] = {}
        self.packets_forwarded = 0

    def add_forwarding(self, in_link: Link, out_link: Link) -> None:
        """Packets arriving on ``in_link`` leave on ``out_link``."""
        self._forwarding[id(in_link)] = out_link

    def on_receive(self, packet: Packet, link: Link) -> None:
        out = self._forwarding.get(id(link))
        if out is not None:
            self.packets_forwarded += 1
            out.send(packet)


def wire_chain_forwarders(nodes, links) -> None:
    """Install straight-through forwarding on every ChainForwarder in a chain.

    ``nodes[i]`` sits between ``links[i-1]`` and ``links[i]``; packets
    flowing right continue right, packets flowing left continue left.
    """
    for i, node in enumerate(nodes):
        if not isinstance(node, ChainForwarder):
            continue
        if i == 0 or i == len(nodes) - 1:
            raise ValueError("chain endpoints cannot be forwarders")
        node.add_forwarding(links[i - 1].ab, links[i].ab)
        node.add_forwarding(links[i].ba, links[i - 1].ba)


class SinkNode(Node):
    """Counts and discards everything it receives (for substrate tests)."""

    def __init__(self, sim: Simulator, name: str = "sink") -> None:
        super().__init__(sim, name)
        self.received: list[Packet] = []
        self.receive_times: list[float] = []

    def on_receive(self, packet: Packet, link: Link) -> None:
        self.received.append(packet)
        self.receive_times.append(self.sim.now)
