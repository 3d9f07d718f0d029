"""Count what one LEOTP transfer *calls*: Python frames per packet-hop.

Host seconds drift with the machine; the number of Python frames a
transfer enters does not — it is a pure function of the code and the
seed.  This tool runs one LEOTP flow over a uniform lossy chain under
``sys.setprofile`` and divides the ``"call"`` events (Python frames; the
C calls are reported too, but their count varies with the interpreter
version) by the packet-hops the links were offered::

    PYTHONPATH=src python tools/frames_per_hop.py            # leotp_bulk's path
    PYTHONPATH=src python tools/frames_per_hop.py --hops 3 --bytes 300000

The default arguments are the benchmark's ``leotp_bulk`` scenario at
seed 0 (5 hops, 20 Mbit/s, 10 ms, plr 0.005, 24 MB).  The per-layer
table books each frame to the module that defines it (``core`` by
module, every other package as one layer).  On the short
:data:`FENCE_FLOW`, ``tests/test_leotp_endtoend`` fences the headline
figure in tier-1 and ``benchmarks/test_bench_kernel`` records it as
``extra_info["py_frames_per_packet_hop"]`` for ``benchmarks/compare.py
--frames-threshold``.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

from repro.experiments.common import PathSpec, build_path
from repro.netsim.topology import uniform_chain_specs
from repro.simcore import RngRegistry, Simulator


#: The sub-second flow the tier-1 fence and the committed bench point share.
FENCE_FLOW = {"hops": 3, "total_bytes": 300_000, "plr": 0.005}


def _layer(filename: str) -> str:
    """``.../repro/core/midnode.py`` -> ``core.midnode``; ``.../repro/netsim/link.py``
    -> ``netsim``; anything outside ``repro`` -> ``other``."""
    _, found, below = filename.replace("\\", "/").rpartition("/repro/")
    if not found:
        return "other"
    package, _, module = below.partition("/")
    if package == "core" and module:
        return "core." + module.removesuffix(".py")
    return package.removesuffix(".py")


def measure(hops: int = 5, total_bytes: int = 24_000_000, plr: float = 0.005,
            rate_bps: float = 20e6, delay_s: float = 0.010, seed: int = 0) -> dict:
    """Run the transfer under the profiler hook; return the exact counts."""
    sim = Simulator()
    path = build_path(sim, RngRegistry(seed), PathSpec(
        protocol="leotp",
        hops=tuple(uniform_chain_specs(hops, rate_bps=rate_bps, delay_s=delay_s,
                                       plr=plr)),
        total_bytes=total_bytes,
    ))
    frames_by_code: Counter = Counter()
    c_calls = 0

    def hook(frame, event, arg):
        nonlocal c_calls
        if event == "call":
            frames_by_code[frame.f_code] += 1
        elif event == "c_call":
            c_calls += 1

    sys.setprofile(hook)
    try:
        # Nothing runs once the flow is complete and the links have drained.
        sim.run(until=4.0 * total_bytes * 8.0 / rate_bps + 5.0)
    finally:
        sys.setprofile(None)
    if not path.consumer.finished:
        raise RuntimeError("the transfer did not complete")
    by_layer: Counter = Counter()
    for code, n in frames_by_code.items():
        by_layer[_layer(code.co_filename)] += n
    packet_hops = sum(
        link.stats.packets_offered for duplex in path.links
        for link in (duplex.ab, duplex.ba)
    )
    py_frames = sum(frames_by_code.values())
    return {
        "py_frames": py_frames,
        "c_calls": c_calls,
        "events": sim.events_executed,
        "packet_hops": packet_hops,
        "py_frames_per_packet_hop": py_frames / packet_hops,
        "by_layer": dict(by_layer.most_common()),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--hops", type=int, default=5)
    parser.add_argument("--bytes", type=int, default=24_000_000, dest="total_bytes")
    parser.add_argument("--plr", type=float, default=0.005)
    parser.add_argument("--rate-bps", type=float, default=20e6)
    parser.add_argument("--delay-s", type=float, default=0.010)
    parser.add_argument("--seed", type=int, default=0)
    out = measure(**vars(parser.parse_args(argv)))
    hops = out["packet_hops"]
    print(f"events {out['events']:,}  packet-hops offered {hops:,}")
    print(f"Python frames {out['py_frames']:,}  C calls {out['c_calls']:,}  "
          f"total {out['py_frames'] + out['c_calls']:,}")
    print(f"Python frames per packet-hop {out['py_frames_per_packet_hop']:.2f}  "
          f"(C calls {out['c_calls'] / hops:.2f})")
    for layer, n in out["by_layer"].items():
        print(f"  {layer:<16} {n:>10,}  {n / hops:6.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
