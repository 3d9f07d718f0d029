"""Shared experiment infrastructure: the runner, result tables, scaling.

One way to run one flow: describe the chain as a :class:`PathSpec`,
:func:`build_path` wires it, :func:`run_chain` runs and measures it
(:func:`repro.faults.run_chaos` is its faulted twin and takes the same
spec as ``partial(build_path, spec=...)``).

Every experiment id is a :class:`~repro.experiments.paper.Figure`, called
as ``run(scale=1.0, seed=0, **options) -> ExperimentResult``.
``scale`` shortens simulated durations (benchmarks use small scales so the
whole harness completes quickly); the reported numbers in EXPERIMENTS.md
use ``scale=1.0``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Union

import numpy as np

from repro.core import LeotpConfig, LeotpPath
from repro.core import build_leotp_path as _build_leotp_path
from repro.netsim.topology import HopSpec
from repro.netsim.trace import FlowRecorder
from repro.simcore import RngRegistry, Simulator
from repro.tcp.cc.spec import CCSpec, as_cc_spec
from repro.tcp.segment import DEFAULT_MSS

if TYPE_CHECKING:
    from repro.faults.timeline import Timeline
    from repro.tcp import SplitTcpPath, TcpPath

#: Protocols :func:`build_path` can wire.
PATH_PROTOCOLS = ("leotp", "tcp", "split_tcp")


@dataclass(frozen=True, kw_only=True)
class PathSpec:
    """Declarative description of one transfer path over a chain.

    One spec type covers every protocol the experiments compare, and it
    is the one argument of both :func:`run_chain` and (through
    ``partial(build_path, spec=...)``) :func:`repro.faults.run_chaos`.
    ``hops`` takes any sequence of ``HopSpec`` (stored as a tuple).
    Fields irrelevant to the selected ``protocol`` are ignored by
    :func:`build_path`:

    * ``protocol="leotp"`` uses ``config``/``coverage``;
    * ``protocol="tcp"`` (end-to-end) and ``"split_tcp"`` use
      ``cc``/``mss``; ``cc`` accepts a law name or a
      :class:`~repro.tcp.cc.CCSpec` (stored coerced to a spec);
    * ``stop_time`` is honoured by leotp and tcp (split proxies have no
      per-connection stop).

    All fields are keyword-only: call sites stay readable and reorderable.
    """

    protocol: str = "leotp"
    hops: tuple[HopSpec, ...] = ()
    cc: Union[str, CCSpec] = "cubic"
    config: Optional[LeotpConfig] = None
    coverage: float = 1.0
    total_bytes: Optional[int] = None
    flow_id: Optional[str] = None
    start_time: float = 0.0
    stop_time: Optional[float] = None
    mss: int = DEFAULT_MSS

    def __post_init__(self) -> None:
        # Coerce bare names so the frozen spec always carries a CCSpec
        # (hashable, picklable, param-capable); string call sites and
        # pickled plans keep working unchanged.
        object.__setattr__(self, "cc", as_cc_spec(self.cc))
        # Likewise hops: call sites pass the list uniform_chain_specs
        # returns.
        object.__setattr__(self, "hops", tuple(self.hops))
        if self.protocol not in PATH_PROTOCOLS:
            raise ValueError(
                f"unknown protocol {self.protocol!r}; "
                f"choose from {PATH_PROTOCOLS}"
            )
        if len(self.hops) < 1:
            raise ValueError("need at least one hop")
        total, stop = self.total_bytes, self.stop_time
        if total is not None and not total > 0:
            raise ValueError(f"total_bytes must be positive, got {total!r}")
        if not self.mss > 0:
            raise ValueError(f"mss must be positive, got {self.mss!r}")
        if not 0.0 <= self.coverage <= 1.0:
            raise ValueError(f"coverage must be in [0, 1], got {self.coverage!r}")
        if stop is not None and not stop >= self.start_time:
            raise ValueError(
                f"stop_time {stop!r} is before start_time {self.start_time!r}"
            )


BuiltPath = Union[LeotpPath, "TcpPath", "SplitTcpPath"]


def build_path(sim: Simulator, rng: RngRegistry, spec: PathSpec) -> BuiltPath:
    """Build one transfer path from a declarative :class:`PathSpec`.

    The single facade over :func:`repro.core.build_leotp_path`,
    :func:`repro.tcp.build_e2e_tcp_path`, and
    :func:`repro.tcp.build_split_tcp_path` — experiments describe *what*
    to build and this function dispatches to the protocol's wiring.
    ``partial(build_path, spec=...)`` is the ``build(sim, rng)`` callable
    :func:`repro.faults.run_chaos` takes.

    Every built path answers the same read interface — ``recorder``,
    ``links``, ``nodes``, ``wire_bytes_sent``, ``retransmissions`` — so
    runners, the timeline driver and row extractors never branch on the
    protocol.  For TCP, ``spec.total_bytes`` sizes a ``FiniteStream``
    (``None``: an unbounded source).
    """
    hops = list(spec.hops)
    if spec.protocol == "leotp":
        return _build_leotp_path(
            sim, rng, hops,
            config=spec.config if spec.config is not None else LeotpConfig(),
            total_bytes=spec.total_bytes,
            coverage=spec.coverage,
            flow_id=spec.flow_id if spec.flow_id is not None else "leotp",
            start_time=spec.start_time,
            stop_time=spec.stop_time,
        )
    from repro.tcp import FiniteStream, build_e2e_tcp_path, build_split_tcp_path

    stream = (
        FiniteStream(spec.total_bytes) if spec.total_bytes is not None else None
    )
    if spec.protocol == "tcp":
        return build_e2e_tcp_path(
            sim, rng, hops, spec.cc,
            stream=stream, mss=spec.mss,
            flow_base=spec.flow_id if spec.flow_id is not None else "tcp",
            start_time=spec.start_time,
            stop_time=spec.stop_time,
        )
    return build_split_tcp_path(
        sim, rng, hops, spec.cc,
        stream=stream, mss=spec.mss,
        flow_base=spec.flow_id if spec.flow_id is not None else "split",
    )


@dataclass
class ExperimentResult:
    """Rows of measurements for one figure/table."""

    name: str
    description: str
    rows: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, **row) -> None:
        self.rows.append(row)

    def column(self, key: str) -> list:
        return [row.get(key) for row in self.rows]

    def filtered(self, **match) -> list[dict]:
        return [
            row
            for row in self.rows
            if all(row.get(k) == v for k, v in match.items())
        ]

    def _keys(self) -> list[str]:
        """Every row's keys, in first-seen order."""
        return list(dict.fromkeys(key for row in self.rows for key in row))

    def to_csv(self) -> str:
        """Render the rows as CSV (header = union of row keys, in order)."""
        import csv
        import io

        keys = self._keys()
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=keys)
        writer.writeheader()
        for row in self.rows:
            writer.writerow(row)
        return buf.getvalue()

    def to_dict(self) -> dict:
        """JSON-serialisable form (for archiving runs)."""
        return {
            "name": self.name,
            "description": self.description,
            "rows": self.rows,
            "notes": self.notes,
        }

    def save(self, directory) -> str:
        """Write <slug>.csv and return its path."""
        import os
        import re

        os.makedirs(directory, exist_ok=True)
        slug = re.sub(r"[^a-z0-9]+", "_", self.name.lower()).strip("_")
        path = os.path.join(directory, f"{slug}.csv")
        with open(path, "w") as fh:
            fh.write(self.to_csv())
        return path

    def table(self) -> str:
        """Render the rows as a fixed-width text table."""
        if not self.rows:
            return f"== {self.name} ==\n(no rows)"
        keys = self._keys()
        widths = {
            k: max(len(k), *(len(_fmt(r.get(k))) for r in self.rows))
            for k in keys
        }
        lines = [f"== {self.name} ==", self.description]
        lines.append("  ".join(k.ljust(widths[k]) for k in keys))
        lines.append("  ".join("-" * widths[k] for k in keys))
        for row in self.rows:
            lines.append(
                "  ".join(_fmt(row.get(k)).ljust(widths[k]) for k in keys)
            )
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


@dataclass
class FlowMetrics:
    """Summary of one measured flow."""

    throughput_mbps: float
    owd_mean_ms: float
    owd_p50_ms: float
    owd_p99_ms: float
    owd_max_ms: float
    retx_owd_mean_ms: Optional[float]
    sender_bytes: int
    retransmissions: int


def metrics_from_recorder(
    recorder: FlowRecorder,
    t_start: float,
    t_end: float,
    sender_bytes: int = 0,
    retransmissions: int = 0,
) -> FlowMetrics:
    owds = recorder.owds() * 1000.0
    retx_owds = recorder.owds(retransmitted_only=True) * 1000.0
    return FlowMetrics(
        throughput_mbps=recorder.throughput_bps(t_start, t_end) / 1e6,
        owd_mean_ms=float(owds.mean()) if owds.size else float("nan"),
        owd_p50_ms=float(np.percentile(owds, 50)) if owds.size else float("nan"),
        owd_p99_ms=float(np.percentile(owds, 99)) if owds.size else float("nan"),
        owd_max_ms=float(owds.max()) if owds.size else float("nan"),
        retx_owd_mean_ms=float(retx_owds.mean()) if retx_owds.size else None,
        sender_bytes=sender_bytes,
        retransmissions=retransmissions,
    )


#: Leading share of a ``run_chain`` run its metrics skip.
WARMUP_FRACTION = 0.2


def run_chain(
    spec: PathSpec,
    duration_s: float,
    seed: int = 0,
    timeline: Optional[Timeline] = None,
) -> tuple[FlowMetrics, BuiltPath]:
    """Build the one flow ``spec`` describes, run it, and measure it.

    ``timeline`` is armed on the built path before the clock starts
    (e.g. the route's delay retunes and handover flushes).  Metrics skip
    the first :data:`WARMUP_FRACTION` of the run.
    """
    sim = Simulator()
    rng = RngRegistry(seed)
    path = build_path(sim, rng, spec)
    if timeline is not None:
        # Only a run with a timeline loads the driver.
        from repro.faults.timeline import TimelineDriver

        TimelineDriver(sim, path, timeline, rng)
    sim.run(until=duration_s)
    metrics = metrics_from_recorder(
        path.recorder, duration_s * WARMUP_FRACTION, duration_s,
        sender_bytes=path.wire_bytes_sent,
        retransmissions=path.retransmissions,
    )
    return metrics, path


def scaled_duration(base_s: float, scale: float, minimum_s: float = 3.0) -> float:
    """Scale an experiment duration, never below a useful minimum."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    return max(base_s * scale, minimum_s)
