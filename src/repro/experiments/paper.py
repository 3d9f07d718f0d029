"""The paper's artefacts as one table: Figs. 1-5 and 10-19, Table II and
two ablations of our own.

Each sweep artefact is one :class:`Figure` entry holding only what
differs between figures: its title and caption, its base duration and
floor, its grid of parameter points in row order, the cell one point
runs, a row extractor and an optional notes hook.  :meth:`Figure.__call__`
is the one runner: it scales the duration, applies the repeats
rule and keeps the rows in grid order.  The comment above each entry is
its artefact's setup and claim.

Fig. 13 (a switchable path), Fig. 15 (a three-flow dumbbell) and the
eleven studies beyond the paper build their fabrics in their own
modules, where ``run`` is a :class:`Figure` too, registered in
:data:`ALL_EXPERIMENTS` by module name.  Such a module is imported the
first time its id is looked up, and a cell imports what only it needs
(the Starlink emulation, the OWD model) when it runs.  So every id runs
through :meth:`Figure.__call__`, and a run's options (its congestion
control, shard processes, sink, checkpoint and profile directories)
reach a cell on :class:`Run`.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from importlib import import_module
from typing import Any, NamedTuple, Optional, Union

import numpy as np

from repro.core import LeotpConfig
from repro.experiments.common import (
    ExperimentResult,
    PathSpec,
    run_chain,
    scaled_duration,
)
from repro.netsim.bandwidth import (
    SquareWaveBandwidth,
    starlink_download_bandwidth_samples,
)
from repro.netsim.topology import HopSpec, uniform_chain_specs


class Run(NamedTuple):
    """What a cell, a row extractor and a notes hook see of one run: its
    scale, seed, scaled duration and repeats, then the run's options —
    the :class:`~repro.experiments.runner.RunSpec` fields a study reads
    (``cc`` is a :class:`~repro.tcp.cc.CCSpec` or None)."""

    scale: float
    seed: int
    duration: float
    repeats: int
    cc: Optional[Any] = None
    shard_jobs: int = 1
    sink_dir: Optional[str] = None
    checkpoint_dir: Optional[str] = None
    profile_dir: Optional[str] = None


@dataclass(frozen=True)
class Figure:
    """One experiment: ``cell`` run at every point of ``grid``.

    ``cell(run, *point)`` measures one point and ``row(run, measured,
    *point)`` returns its measured columns; the row is the point's
    leading fields named by ``columns``, then those.  A cell that
    measures several rows at once returns them whole, as a list, from
    ``row``.  ``notes(rows, run, outs)`` returns the note lines, given
    the finished rows and what each point's cell returned.  An
    ``averaged`` cell returns a number, and its row sees the mean over
    ``run.repeats`` seeds.  A ``grid`` that depends on the run (on its
    options, or on a route schedule its points share) is a function of
    the :class:`Run`, as a ``caption`` may be.  ``sampler_interval_s``
    is the metrics cadence of an observed run (None: the global default).
    """

    name: str
    caption: Union[str, Callable[[Run], str]]
    columns: tuple[str, ...]
    grid: Union[Sequence[tuple], Callable[[Run], Sequence[tuple]]]
    cell: Callable[..., Any]
    row: Callable[..., Union[dict, list]]
    base_s: float = 20.0
    floor_s: float = 3.0
    averaged: bool = False
    notes: Optional[Callable[[list, Run, list], list]] = None
    sampler_interval_s: Optional[float] = None

    def __call__(
        self, scale: float = 1.0, seed: int = 0, **options: Any
    ) -> ExperimentResult:
        """Run every point of the grid; the rows come in grid order.
        ``options`` are the :class:`Run` option fields."""
        # Loss-based variants have long sawtooth periods, so single runs
        # are noisy: average a few seeds at full scale, one at benchmark
        # scale.
        repeats = (3 if scale >= 0.3 else 1) if self.averaged else 1
        run = Run(scale, seed, scaled_duration(self.base_s, scale, self.floor_s),
                  repeats, **options)
        caption = self.caption(run) if callable(self.caption) else self.caption
        result = ExperimentResult(self.name, caption)
        outs = []
        for point in self.grid(run) if callable(self.grid) else self.grid:
            reps = [self.cell(run._replace(seed=seed + rep), *point)
                    for rep in range(repeats)]
            out = sum(reps) / repeats if self.averaged else reps[0]
            outs.append(out)
            measured = self.row(run, out, *point)
            if isinstance(measured, list):
                result.rows.extend(measured)
            else:
                result.add(**dict(zip(self.columns, point)), **measured)
        if self.notes is not None:
            result.notes.extend(self.notes(result.rows, run, outs))
        return result


def _chain(run: Run, transport: str, hops: Sequence[HopSpec], **spec):
    """``run_chain`` one flow over ``hops``: LEOTP, or TCP under the
    congestion control ``transport`` names."""
    if transport != "leotp":
        spec = {"protocol": "tcp", "cc": transport, **spec}
    return run_chain(PathSpec(hops=hops, **spec), run.duration, seed=run.seed)


def _pick(metrics, *names: str) -> dict:
    return {name: getattr(metrics, name) for name in names}


def _square_wave_chain(n_hops: int, **hop) -> list[HopSpec]:
    """``n_hops`` 20 Mbps hops whose second is the fluctuating
    bottleneck: 10 Mbps +- 1 Mbps as a square wave with a 2 s period."""
    return [
        HopSpec(rate_bps=10e6, **hop,
                profile=SquareWaveBandwidth(10e6, 1e6, period_s=2.0))
        if i == 1 else HopSpec(rate_bps=20e6, **hop)
        for i in range(n_hops)
    ]


def _starlink(run: Run, pair: str, protocol: str, isls_enabled: bool,
              **options):
    """One flow between ``pair``'s cities over the emulated Starlink."""
    from repro.experiments.starlink import (
        CITY_PAIRS, path_schedule, run_starlink_flow,
    )

    schedule = path_schedule(*CITY_PAIRS[pair], isls_enabled, run.duration)
    return run_starlink_flow(protocol, schedule, run.duration, seed=run.seed,
                             isls_enabled=isls_enabled, **options)


def _starlink_row(*names: str) -> Callable[..., dict]:
    """A Starlink flow's row: its ``names`` metrics, its queueing delay
    over the mean propagation delay, and its hop count."""

    def row(run: Run, out, *point) -> dict:
        metrics, ctx = out
        return dict(
            **_pick(metrics, *names),
            queuing_delay_ms=metrics.owd_mean_ms - ctx["mean_prop_delay_ms"],
            hops=ctx["hop_count"],
        )

    return row


def _n_bandwidth_samples(run: Run) -> int:
    return max(int(20_000 * run.scale), 1_000)


def _bandwidth_rows(run: Run, mbps: np.ndarray) -> list[dict]:
    rows = [
        dict(percentile=q, bandwidth_mbps=float(np.percentile(mbps, q)))
        for q in (1, 10, 25, 50, 75, 90, 99)
    ]
    rows.append(dict(percentile="min", bandwidth_mbps=float(mbps.min())))
    rows.append(dict(percentile="max", bandwidth_mbps=float(mbps.max())))
    return rows


def _owd_model(run: Run, scheme: str, seed_offset: int):
    """Fig. 3's Monte-Carlo: 10 hops, 0.5 % loss and 10 ms per hop."""
    from repro.analysis import simulate_owd_e2e, simulate_owd_hbh

    simulate = simulate_owd_e2e if scheme == "end-to-end" else simulate_owd_hbh
    return simulate(
        max(int(100_000 * run.scale), 5_000), 10, 0.005, 0.010,
        seed=run.seed + seed_offset,
    )


def _queueing_row(run: Run, out, prop_ms: int, cc: str) -> dict:
    metrics, path = out
    queue_drops = sum(
        duplex.ab.stats.packets_dropped_queue for duplex in path.links
    )
    return dict(
        queuing_delay_ms=metrics.owd_mean_ms - prop_ms,
        congestion_loss_per_s=queue_drops / run.duration,
        throughput_mbps=metrics.throughput_mbps,
    )


def _retx_owd(run: Run, plr: float) -> list[dict]:
    """Fig. 10's two flows on one lossy chain; recovery is costed
    against the lower of their median OWDs."""
    hops = uniform_chain_specs(5, rate_bps=20e6, delay_s=0.010, plr=plr)
    flows = (("leotp", _chain(run, "leotp", hops)[0]),
             ("bbr", _chain(run, "bbr", hops)[0]))
    base_owd = min(metrics.owd_p50_ms for _, metrics in flows)
    return [
        dict(
            plr_per_hop=plr,
            protocol=proto,
            retx_owd_mean_ms=metrics.retx_owd_mean_ms,
            normal_owd_p50_ms=metrics.owd_p50_ms,
            recovery_cost_ms=(
                metrics.retx_owd_mean_ms - base_owd
                if metrics.retx_owd_mean_ms is not None else None
            ),
        )
        for proto, metrics in flows
    ]


def _recovery_reduction(rows: list[dict], run: Run, outs: list) -> list[str]:
    """Average recovery-time reduction across loss rates (paper: 59-64 %)."""
    costs = {
        proto: [r["recovery_cost_ms"] for r in rows
                if r["protocol"] == proto and r["recovery_cost_ms"]]
        for proto in ("leotp", "bbr")
    }
    if not (costs["leotp"] and costs["bbr"]):
        return []
    reduction = 1 - float(np.mean(costs["leotp"])) / float(np.mean(costs["bbr"]))
    return [f"mean recovery-cost reduction: {reduction:.0%} (paper: 59-64 %)"]


def _file_bytes(run: Run) -> int:
    return max(int(20e6 * run.scale), 2_000_000)


def _slope_ratio(rows: list[dict], run: Run, outs: list) -> list[str]:
    """Overhead slope comparison (paper: LEOTP slope ~= 20 % of BBR's)."""

    def slope(protocol: str) -> float:
        mine = [r for r in rows if r["protocol"] == protocol]
        xs = [r["plr_per_hop"] for r in mine]
        ys = [r["sent_mb"] for r in mine]
        return float(np.polyfit(xs, ys, 1)[0])

    s_leotp, s_bbr = slope("leotp"), slope("bbr")
    if s_bbr > 0:
        return [f"overhead slope ratio LEOTP/BBR = {s_leotp / s_bbr:.2f} "
                "(paper: ~0.2)"]
    return []


def _degradation(rows: list[dict], run: Run, outs: list) -> list[str]:
    """Degradation summary at the top loss rate."""
    notes = []
    for proto in ("leotp", "bbr", "pcc"):
        mine = [r for r in rows if r["protocol"] == proto]
        base = mine[0]["throughput_mbps"]
        worst = mine[-1]["throughput_mbps"]
        if base > 0:
            notes.append(
                f"{proto}: {100 * (1 - worst / base):.1f} % drop at 1 %/hop "
                "(paper: leotp 1 %, bbr 12 %, pcc 23 %)"
            )
    return notes


def _operations_row(run: Run, out, rate_mbps: int, plr: float) -> dict:
    metrics, path = out
    ops_per_s = path.midnodes[0].stats.total_operations() / run.duration
    return dict(
        ops_per_s=ops_per_s,
        throughput_mbps=metrics.throughput_mbps,
        ops_per_mbit=(
            ops_per_s / metrics.throughput_mbps
            if metrics.throughput_mbps > 0
            else None
        ),
    )


def _vph_row(run: Run, out, n_hops: int, vph: str) -> dict:
    metrics, path = out
    losses = sum(
        d.ab.stats.packets_dropped_loss + d.ba.stats.packets_dropped_loss
        for d in path.links
    )
    retx_requests = (
        sum(m.stats.retx_interests_sent for m in path.midnodes)
        + path.consumer.retransmission_interests
    )
    return dict(
        losses=losses,
        retx_requests=retx_requests,
        requests_per_loss=retx_requests / losses if losses else None,
        throughput_mbps=metrics.throughput_mbps,
        producer_mb=path.producer.wire_bytes_sent / 1e6,
    )


def _static(*notes: str) -> Callable[[list, Run, list], list]:
    return lambda *_: list(notes)


class _Table(Mapping):
    """Read-only ``id -> Figure`` map.  An entry is a :class:`Figure`, or
    the name of the module whose ``run`` it is, imported on lookup so
    that one id loads only what it needs (``networkx`` only for the
    constellation studies)."""

    def __init__(self, entries: dict[str, Union[Figure, str]]) -> None:
        self._entries = entries

    def __getitem__(self, name: str) -> Figure:
        entry = self._entries[name]
        if isinstance(entry, str):
            return import_module(f"{__package__}.{entry}").run
        return entry

    def __contains__(self, name: object) -> bool:
        return name in self._entries  # Mapping's default would import it

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


_STARLINK_PAIRS = ("BJ-HK", "BJ-PR", "BJ-NY")
_STARLINK_PROTOCOLS = [(p,) for p in ("leotp", "bbr", "pcc", "hybla")]
_FLOW = ("throughput_mbps", "owd_mean_ms")

ALL_EXPERIMENTS: Mapping[str, Figure] = _Table({
    # Fig. 1a — the Starlink download-bandwidth distribution.  The paper
    # motivates LEOTP with the measured Starlink bandwidth distribution
    # (2-386 Mbps, right-skewed).  We regenerate the distribution from
    # the synthetic sampler matched to the published statistics and
    # report its percentiles.
    "fig01": Figure(
        "Fig. 1a", "Starlink download bandwidth distribution (Mbps)", (),
        grid=[()],
        cell=lambda run: starlink_download_bandwidth_samples(
            _n_bandwidth_samples(run), np.random.default_rng(run.seed)
        ) / 1e6,
        row=_bandwidth_rows,
        notes=lambda rows, run, outs: [
            f"{_n_bandwidth_samples(run)} samples; paper/IMC'22 range is "
            "2-386 Mbps with a ~100 Mbps body"
        ],
    ),
    # Fig. 2 — TCP throughput degradation in error-prone multi-hop links.
    # Setup (paper Sec. II-A): every hop has 20 Mbps bandwidth, 10 ms hop
    # RTT (5 ms one-way) and 0.5 % loss; the hop count sweeps 1 -> 10.
    # Loss-based Cubic/Hybla collapse below 2 Mbps by 5 hops, while
    # BBR/PCC degrade mildly (-9 % / -33 % at 10 hops in the paper).
    "fig02": Figure(
        "Fig. 2",
        "Throughput (Mbps) vs hop count; 20 Mbps, 10 ms, 0.5 % loss per hop",
        ("hops", "algorithm"),
        grid=[(n_hops, cc) for n_hops in (1, 2, 5, 10)
              for cc in ("cubic", "hybla", "bbr", "pcc")],
        cell=lambda run, n_hops, cc: _chain(run, cc, uniform_chain_specs(
            n_hops, rate_bps=20e6, delay_s=0.005, plr=0.005))[0].throughput_mbps,
        row=lambda run, mbps, *_: dict(throughput_mbps=mbps, seeds=run.repeats),
        averaged=True,
    ),
    # Fig. 3 — theoretical per-packet OWD distribution, e2e vs hop-by-hop.
    # Monte-Carlo over 100 000 packets on a 10-hop path with 0.5 % loss
    # and 10 ms delay per hop.  The paper reports p99/max of 300/700 ms
    # under end-to-end retransmission versus 120/160 ms hop-by-hop.
    "fig03": Figure(
        "Fig. 3", "Per-packet OWD (ms): 10 hops, 0.5 % loss & 10 ms per hop",
        ("scheme",),
        grid=[("end-to-end", 0), ("hop-by-hop", 1)],
        cell=_owd_model,
        row=lambda run, dist, *_: dict(
            mean_ms=dist.mean_s * 1000,
            p99_ms=dist.percentile_s(99) * 1000,
            max_ms=dist.max_s * 1000,
        ),
        notes=_static("paper: e2e p99/max = 300/700 ms; hbh = 120/160 ms"),
    ),
    # Fig. 4 — the throughput-OWD trade-off of Split TCP versus TCP.
    # Setup (paper Sec. II-B): 10-hop network, 20 Mbps / 10 ms RTT / 0.5 %
    # loss per hop.  Splitting raises the throughput of every variant
    # dramatically (each hop has better link quality) but buys it with
    # >600 ms of extra queueing at the proxies.
    "fig04": Figure(
        "Fig. 4",
        "Split TCP vs TCP: throughput (Mbps) and mean OWD (ms), 10 lossy hops",
        ("algorithm", "mode"),
        grid=[(cc, mode, protocol) for cc in ("cubic", "hybla", "bbr", "pcc")
              for mode, protocol in (("e2e", "tcp"), ("split", "split_tcp"))],
        cell=lambda run, cc, mode, protocol: _chain(run, cc, uniform_chain_specs(
            10, rate_bps=20e6, delay_s=0.005, plr=0.005), protocol=protocol),
        row=lambda run, out, *_: _pick(out[0], *_FLOW),
    ),
    # Fig. 5 — queueing delay and congestion loss under bandwidth
    # variation.  Setup (paper Sec. II-A): the bottleneck averages 10 Mbps
    # and fluctuates as a square wave (2 s period, 1 Mbps amplitude);
    # other segments run at 20 Mbps.  The end-to-end propagation delay
    # sweeps 20 -> 100 ms.  With a longer feedback loop, BBR's queueing
    # delay grows until it exceeds the loss-based algorithms'; congestion
    # loss grows for everyone.
    "fig05": Figure(
        "Fig. 5",
        "Queueing delay (ms) and congestion loss (pkt/s) vs propagation delay",
        ("prop_delay_ms", "algorithm"),
        base_s=25.0,
        grid=[(prop_ms, cc) for prop_ms in (20, 40, 60, 80, 100)
              for cc in ("cubic", "hybla", "bbr")],
        cell=lambda run, prop_ms, cc: _chain(run, cc, _square_wave_chain(
            5, delay_s=prop_ms / 1000.0 / 5, queue_bytes=128_000)),
        row=_queueing_row,
    ),
    # Fig. 10 — OWD distribution of retransmitted packets.  Setup (paper
    # Sec. V-B): 5 hops, 20 Mbps bandwidth and 20 ms hopRTT per hop, lossy
    # links.  BBR's retransmitted packets arrive roughly one end-to-end
    # RTT late (~160 ms); LEOTP repairs locally within a hopRTT (~90 ms),
    # cutting average recovery time by 59-64 %.
    "fig10": Figure(
        "Fig. 10",
        "OWD of retransmitted packets (ms): LEOTP vs BBR, 5 hops, 20 ms hopRTT",
        (),
        base_s=30.0,
        grid=[(plr,) for plr in (0.005, 0.01, 0.02)],
        cell=_retx_owd,
        row=lambda run, rows, plr: rows,
        notes=_recovery_reduction,
    ),
    # Fig. 11 — traffic actually sent by the server for a fixed-size
    # file.  Setup (paper Sec. V-B): a 100 MB transfer over a 5-hop lossy
    # chain.  Sender traffic grows linearly with loss for both protocols,
    # but LEOTP's slope is ~20 % of BBR's: only first-hop losses reach
    # back to the server; the rest are repaired from Midnode caches.
    "fig11": Figure(
        "Fig. 11",
        lambda run: f"Server traffic (MB) to deliver a "
                    f"{_file_bytes(run) / 1e6:.0f} MB file, 5 lossy hops",
        ("plr_per_hop", "protocol"),
        base_s=120.0, floor_s=60.0,  # a timeout: scale 0.5 at the least
        grid=[(plr, proto) for plr in (0.0, 0.005, 0.01, 0.02)
              for proto in ("leotp", "bbr")],
        cell=lambda run, plr, proto: _chain(run, proto, uniform_chain_specs(
            5, rate_bps=20e6, delay_s=0.010, plr=plr),
            total_bytes=_file_bytes(run))[1],
        row=lambda run, path, plr, proto: dict(
            sent_mb=path.wire_bytes_sent / 1e6,
            completed=(path.consumer if proto == "leotp" else path.sender).finished,
        ),
        notes=_slope_ratio,
    ),
    # Fig. 12 — throughput against per-hop loss rate.  Setup (paper
    # Sec. V-B): a 5-hop chain at 20 Mbps per hop; per-hop loss sweeps
    # 0 -> 1 %.  Loss-based Cubic/Hybla/Westwood collapse below 5 Mbps by
    # 0.1 %; BBR and PCC lose 12 % and 23 % by 1 %; LEOTP loses ~1 %.
    "fig12": Figure(
        "Fig. 12", "Throughput (Mbps) vs per-hop loss rate, 5-hop chain",
        ("plr_per_hop", "protocol"),
        grid=[(plr, proto) for plr in (0.0, 0.001, 0.0025, 0.005, 0.01)
              for proto in ("leotp", "cubic", "hybla", "westwood", "bbr", "pcc")],
        cell=lambda run, plr, proto: _chain(run, proto, uniform_chain_specs(
            5, rate_bps=20e6, delay_s=0.005, plr=plr))[0].throughput_mbps,
        row=lambda run, mbps, *_: dict(throughput_mbps=mbps),
        averaged=True,
        notes=_degradation,
    ),
    "fig13": "fig13_link_switching",
    # Fig. 14 — throughput-OWD trade-off under bandwidth fluctuation.
    # Setup (paper Sec. V-B): 10 hops with 20 ms hopRTT each (100 ms
    # end-to-end propagation); the second hop is the bottleneck at
    # 10 Mbps +- 1 Mbps square wave (2 s period); other hops run 20 Mbps.
    # TCP variants all queue heavily; end-to-end LEOTP (no Midnodes) has
    # near-optimal latency but poor throughput; full LEOTP achieves both,
    # with the Midnode buffer target (BL_tar) tracing the trade-off curve.
    "fig14": Figure(
        "Fig. 14",
        "Throughput (Mbps) vs mean OWD (ms); fluctuating 10 Mbps bottleneck",
        ("protocol", "variant"),
        base_s=25.0,
        grid=[
            *((cc, "-", cc, {}) for cc in ("cubic", "hybla", "bbr", "pcc")),
            ("leotp-e2e", "-", "leotp", {"coverage": 0.0}),
            *(("leotp", f"BLtar={target}pkt", "leotp",
               {"config": LeotpConfig(buffer_target_bytes=target * 1400)})
              for target in (4, 8, 16, 32)),
        ],
        cell=lambda run, label, variant, transport, spec: _chain(
            run, transport, _square_wave_chain(10, delay_s=100.0 / 1000.0 / 10),
            **spec),
        row=lambda run, out, *_: dict(
            **_pick(out[0], *_FLOW),
            queuing_delay_ms=out[0].owd_mean_ms - 100.0,
        ),
    ),
    "fig15": "fig15_fairness",
    # Fig. 16 — OWD and throughput on the Beijing-Shanghai link, no ISLs.
    # The bent-pipe (current Starlink) network: every hop is a
    # ground-satellite link.  The paper reports LEOTP gaining 4.8 %
    # throughput over BBR and 12.4 % over PCC, with mean queueing delay
    # of 16 ms (0.61x BBR's 26 ms); Hybla underuses the link (loss-bound)
    # and so shows near-optimal delay.
    "fig16": Figure(
        "Fig. 16",
        "Beijing-Shanghai without ISLs: OWD (ms) and throughput (Mbps)",
        ("protocol",),
        base_s=60.0, floor_s=10.0,
        grid=_STARLINK_PROTOCOLS,
        cell=lambda run, protocol: _starlink(
            run, "BJ-SH", protocol, isls_enabled=False),
        row=_starlink_row(*_FLOW, "owd_p99_ms"),
        notes=_static("paper: LEOTP +4.8 % thr vs BBR, +12.4 % vs PCC; "
                      "queueing 16 ms = 0.61x BBR"),
    ),
    # Fig. 17 — OWD and throughput on the Beijing-New York link, with
    # ISLs.  The future ISL mesh: a long transcontinental path (~19 hops
    # in the paper's emulation).  LEOTP gains ~8 % throughput over BBR
    # and ~12 % over PCC while keeping queueing delay near 20 ms where
    # BBR's reaches ~100 ms; its p99 OWD beats even under-utilising Hybla
    # thanks to in-network retransmission.
    "fig17": Figure(
        "Fig. 17",
        "Beijing-New York with ISLs: OWD (ms) and throughput (Mbps)",
        ("protocol",),
        base_s=60.0, floor_s=10.0,
        grid=_STARLINK_PROTOCOLS,
        cell=lambda run, protocol: _starlink(
            run, "BJ-NY", protocol, isls_enabled=True),
        row=_starlink_row(*_FLOW, "owd_p99_ms"),
        notes=_static("paper: LEOTP +8.0 % thr vs BBR, +12.2 % vs PCC; "
                      "queueing 20 vs 100 ms"),
    ),
    # Fig. 18 — how distance affects LEOTP and the baselines (with ISLs).
    # Three city pairs of growing distance (Beijing to Hong Kong / Paris /
    # New York).  The paper's findings: BBR/PCC delay grows quickly with
    # distance while LEOTP stays 15-20 ms above the propagation floor;
    # LEOTP's throughput does not degrade with hop count; and 25 % Midnode
    # coverage already beats BBR/PCC everywhere, with delay only slightly
    # above full coverage.
    "fig18": Figure(
        "Fig. 18",
        "Average OWD (ms) and throughput (Mbps) per city pair, with ISLs",
        ("pair", "protocol"),
        base_s=60.0, floor_s=10.0,
        grid=[(pair, label, coverage) for pair in _STARLINK_PAIRS
              for label, coverage in (
                  ("leotp", 1.0), ("leotp-25%", 0.25), ("bbr", 1.0),
                  ("pcc", 1.0), ("cubic", 1.0), ("hybla", 1.0))],
        cell=lambda run, pair, label, coverage: _starlink(
            run, pair, "leotp" if label.startswith("leotp") else label,
            isls_enabled=True, coverage=coverage),
        row=_starlink_row(*_FLOW),
    ),
    # Fig. 19 — the CPU overhead of a LEOTP Midnode.  The paper measures
    # real CPU utilisation and finds it low, growing slowly with
    # bandwidth above 20 Mbps and insensitive to loss.  Our substrate is
    # a simulator, so we substitute the closest observable quantity
    # (documented in DESIGN.md): the Midnode's per-second protocol
    # *operation count* (packets processed, cache actions,
    # VPH/retransmission events).  The paper's claims map onto this proxy
    # directly: operations grow (sub-)linearly with bandwidth — a Midnode
    # is I/O-bound — and barely move with packet loss.
    "fig19": Figure(
        "Fig. 19", "Midnode operations per second (CPU-utilisation proxy)",
        ("bandwidth_mbps", "plr_per_hop"),
        base_s=15.0,
        grid=[(rate_mbps, plr) for rate_mbps in (5, 10, 20, 40)
              for plr in (0.0, 0.01, 0.02)],
        cell=lambda run, rate_mbps, plr: _chain(run, "leotp", uniform_chain_specs(
            3, rate_bps=rate_mbps * 1e6, delay_s=0.005, plr=plr)),
        row=_operations_row,
        notes=_static(
            "ops/s grows ~linearly with offered bandwidth and is insensitive "
            "to loss (ops/Mbit stays flat), matching the paper's CPU curve "
            "shape"
        ),
    ),
    # Table II — ablation of LEOTP's two key modules on three Starlink
    # links.  Rows (paper Sec. V-C): A — full LEOTP; B — hop-by-hop
    # congestion control, no cache (no in-network retx); C — in-network
    # retransmission, endpoint congestion control; D — endpoints only (no
    # Midnodes).  Expected ordering: hop-by-hop CC dominates throughput
    # (A,B >> C,D); in-network retransmission trims delay and adds
    # throughput (A >= B, C >= D), with the gap growing with distance and
    # loss.
    "table2": Figure(
        "Table II",
        "Ablation: throughput (Mbps) and mean OWD (ms) per configuration",
        ("pair", "config"),
        base_s=60.0, floor_s=10.0,
        grid=[(pair, *row) for pair in _STARLINK_PAIRS for row in (
            ("A", LeotpConfig(), 1.0),
            ("B", LeotpConfig(enable_cache=False), 1.0),
            ("C", LeotpConfig(hop_by_hop_cc=False), 1.0),
            ("D", LeotpConfig(hop_by_hop_cc=False), 0.0),
        )],
        cell=lambda run, pair, row, config, coverage: _starlink(
            run, pair, "leotp", isls_enabled=True, coverage=coverage,
            config=config),
        row=lambda run, out, *_: _pick(out[0], *_FLOW),
    ),
    # Design-choice ablation: what Void Packet Headers actually buy.  Not
    # a paper figure — an ablation of the paper's third contribution ("a
    # novel in-network retransmission mechanism using VPH as
    # notifications, which reduces redundant retransmissions").  We run
    # the same lossy chain with and without VPH and count retransmission
    # requests and duplicate data: without VPH every downstream node
    # independently detects and re-requests the same hole, so the
    # retransmission-Interest count grows with path depth; with VPH it
    # tracks the actual loss count.
    "ablation_vph": Figure(
        "VPH ablation",
        "Retransmission requests per network loss, with/without VPH",
        ("hops", "vph"),
        grid=[(n_hops, vph) for n_hops in (4, 8) for vph in ("on", "off")],
        cell=lambda run, n_hops, vph: _chain(run, "leotp", uniform_chain_specs(
            n_hops, rate_bps=20e6, delay_s=0.008, plr=0.01),
            config=LeotpConfig(enable_vph=vph == "on")),
        row=_vph_row,
    ),
    # Design-choice sensitivity: the constants of the congestion law.
    # The paper fixes several constants without sweeping them: the
    # congestion backoff k = 0.8 ("a value not much less than BDP to
    # achieve faster recovery"), the queue threshold M, the SHR disorder
    # threshold N = 3, and our damping gain on the backpressure
    # correction.  This ablation sweeps each around its default on a
    # lossy fluctuating-bottleneck chain and reports the
    # throughput/latency consequences, so the defaults are justified by
    # measurement rather than assertion.
    "ablation_params": Figure(
        "Parameter ablation",
        "LEOTP constants swept on a lossy, fluctuating 6-hop chain",
        ("parameter",),
        grid=[
            *(("k (cwnd backoff)", "cwnd_backoff_factor", v)
              for v in (0.5, 0.7, 0.8, 0.9)),
            *(("M (queue threshold, pkts)", "queue_threshold_bytes", v * 1400)
              for v in (2, 6, 12, 24)),
            *(("N (SHR disorder threshold)", "shr_disorder_threshold", v)
              for v in (1, 3, 6, 12)),
            *(("backpressure gain", "backpressure_gain", v)
              for v in (0.25, 0.5, 1.0)),
        ],
        cell=lambda run, sweep, field, value: _chain(
            run, "leotp", _square_wave_chain(6, delay_s=0.008, plr=0.005),
            config=LeotpConfig(**{field: value})),
        row=lambda run, out, sweep, field, value: dict(
            value=value // 1400 if field == "queue_threshold_bytes" else value,
            is_default=value == getattr(LeotpConfig(), field),
            **_pick(out[0], *_FLOW, "owd_p99_ms"),
        ),
    ),
    # The studies beyond the paper.
    "ccbench": "ccbench",
    "chaos": "chaos_suite",
    "churn": "churn_study",
    "content_study": "content_study",
    "gateway": "gateway_study",
    "multicast": "multicast_study",
    "related_snoop": "related_snoop",
    "constellation_study": "constellation_study",
    "workload": "workload",
    "workload_sharded": "workload_sharded",
    "workload_sharded_xl": "workload_sharded_xl",
})
