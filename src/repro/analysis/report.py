"""Render trace/metrics streams into per-run analysis summaries.

This module is the read side of :mod:`repro.obs`: it consumes the record
and sample streams (live lists or reloaded JSONL) and answers the
questions the paper's evaluation asks of internal state —

* **recovery latency** (Fig. 10): OWD of retransmitted vs. first-copy
  deliveries at the Consumer, and the recovery cost between them;
* **recovery timeline**: the interleaving of drops, VPH announcements,
  SHR re-requests, TR expirations, cache hits, fault transitions, and
  invariant violations around a loss episode;
* **per-hop rate ladder** (Figs. 9/14): final and mean cwnd / advertised
  rate / backpressure bound / buffer length per hop controller;
* **cache efficiency** (Fig. 19 / Sec. IV-A): per-Midnode hit ratio and
  bytes served from cache.

:func:`run_summary` bundles all of the above into the human-readable
block that ``python -m repro.experiments <id> --trace`` prints after each
experiment table, and that the chaos harness attaches to its reports.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from typing import Optional, Sequence

#: Event kinds worth showing on a recovery timeline (in addition to any
#: invariant violations and fault transitions, which are always shown).
TIMELINE_EVENTS = (
    "link_drop",
    "buffer_drop",
    "vph_send",
    "vph_recv",
    "shr_request",
    "retx_interest",
    "tr_expire",
    "node_crash",
    "fault",
    "invariant_violation",
    "flow_complete",
)


def event_counts(records: Sequence[dict]) -> Counter:
    """Record count per event kind."""
    return Counter(rec["event"] for rec in records)


def recovery_latency_ms(
    records: Sequence[dict], flow: Optional[str] = None
) -> Optional[dict]:
    """Recovery-latency statistics from Consumer ``data_recv`` records.

    Returns ``None`` when no retransmitted delivery was traced, else a
    dict with mean/median OWD of first-copy deliveries, mean OWD of
    retransmitted (repaired) deliveries, and their difference
    ``recovery_cost_ms`` — the quantity Fig. 10 plots.
    """
    normal: list[float] = []
    retx: list[float] = []
    for rec in records:
        if rec["event"] != "data_recv":
            continue
        if flow is not None and rec.get("flow") != flow:
            continue
        (retx if rec.get("retx") else normal).append(rec["owd_s"] * 1000.0)
    if not retx or not normal:
        return None
    normal_sorted = sorted(normal)
    p50 = normal_sorted[len(normal_sorted) // 2]
    return {
        "normal_owd_mean_ms": sum(normal) / len(normal),
        "normal_owd_p50_ms": p50,
        "retx_owd_mean_ms": sum(retx) / len(retx),
        "recovery_cost_ms": sum(retx) / len(retx) - p50,
        "normal_deliveries": len(normal),
        "retx_deliveries": len(retx),
    }


def recovery_timeline(
    records: Sequence[dict],
    limit: int = 40,
    events: Sequence[str] = TIMELINE_EVENTS,
) -> list[dict]:
    """The notable records, in time order, truncated to ``limit``.

    Deliveries and routine sends are omitted — the timeline is the story
    of what went wrong and how the protocol repaired it.
    """
    wanted = set(events)
    picked = [rec for rec in records if rec["event"] in wanted]
    picked.sort(key=lambda rec: rec["t"])
    return picked[:limit]


def rate_ladder(samples: Sequence[dict], run: Optional[str] = None) -> list[dict]:
    """Final/mean value per sampled series, one row per (node, series).

    With hop-by-hop control the cwnd / rate / rate_bp / BL series of
    successive Midnodes form the paper's "rate ladder": each hop's
    advertised rate bounded by its downstream neighbour plus the buffer
    correction of eq. (9).  Rows keep first-seen series order, which
    follows the path layout.
    """
    order: list[tuple[str, str]] = []
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    for row in samples:
        if row.get("event") != "sample":
            continue
        if run is not None and row.get("run") != run:
            continue
        key = (row["node"], row["series"])
        if key not in values:
            order.append(key)
        values[key].append(row["value"])
    out = []
    for node, series in order:
        vals = values[(node, series)]
        out.append({
            "node": node,
            "series": series,
            "samples": len(vals),
            "mean": sum(vals) / len(vals),
            "last": vals[-1],
        })
    return out


def cache_efficiency(records: Sequence[dict]) -> list[dict]:
    """Per-node cache effectiveness from ``cache_hit``/``cache_miss`` records.

    Rows come back sorted by node name — for the standard chains the
    Midnode names embed their chain position, so the result reads as a
    producer→consumer *hit-ratio ladder*.  Besides the per-lookup
    ``hit_ratio``, each row carries the byte-weighted ratio
    (``byte_hit_ratio``) and, under content workloads
    (:mod:`repro.content`), the cross-flow share: ``cross_bytes`` is how
    many of the node's served bytes were fetched by a *different* flow,
    and ``cross_ratio`` normalises that by the bytes looked up.
    """
    per_node: dict[str, dict] = {}
    for rec in records:
        if rec["event"] not in ("cache_hit", "cache_miss"):
            continue
        row = per_node.setdefault(
            rec["node"],
            {"node": rec["node"], "lookups": 0, "hits": 0,
             "hit_bytes": 0, "miss_bytes": 0, "cross_bytes": 0},
        )
        row["lookups"] += 1
        if rec["event"] == "cache_hit":
            row["hits"] += 1
        row["hit_bytes"] += rec.get("hit_bytes", 0)
        row["miss_bytes"] += rec.get("miss_bytes", 0)
        row["cross_bytes"] += rec.get("cross_bytes", 0)
    out = []
    for node in sorted(per_node):
        row = per_node[node]
        looked_up = row["hit_bytes"] + row["miss_bytes"]
        row["hit_ratio"] = row["hits"] / row["lookups"] if row["lookups"] else 0.0
        row["byte_hit_ratio"] = row["hit_bytes"] / looked_up if looked_up else 0.0
        row["cross_ratio"] = row["cross_bytes"] / looked_up if looked_up else 0.0
        out.append(row)
    return out


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------

def _fmt_value(value: float) -> str:
    if value != value or math.isinf(value):  # NaN/inf guards for renderers
        return str(value)
    if abs(value) >= 1e6:
        return f"{value / 1e6:.2f}M"
    if abs(value) >= 1e3:
        return f"{value / 1e3:.1f}k"
    if value == int(value):
        return str(int(value))
    return f"{value:.4f}"


def _fmt_timeline_entry(rec: dict) -> str:
    t = f"t={rec['t']:9.4f}s"
    extras = []
    if "start" in rec and "end" in rec:
        extras.append(f"[{rec['start']}, {rec['end']})")
    for key in ("flow", "reason", "kind", "retries", "detail"):
        if key in rec:
            extras.append(f"{key}={rec[key]}")
    suffix = "  " + " ".join(str(e) for e in extras) if extras else ""
    return f"  {t}  {rec['event']:<20} {rec['node']}{suffix}"


def workload_summary(rows: Sequence[dict], title: str = "workload") -> str:
    """Human-readable summary of the ``workload`` experiment's rows.

    Renders the scale-aware story: completions vs. aborts, FCT
    percentiles, aggregate goodput, windowed fairness, and the memory
    budget ledger outcome.
    """
    lines = [f"-- workload summary: {title} --"]
    for row in rows:
        lines.append(
            f"{row['protocol']}: {row['completed']}/{row['arrivals']} flows "
            f"completed, {row['aborted']} aborted "
            f"({row['admission_rejects']} at admission), "
            f"peak concurrency {row['peak_conc']}"
        )
        lines.append(
            f"  FCT p50/p90/p99: {row['fct_p50_ms'] / 1e3:.3f} / "
            f"{row['fct_p90_ms'] / 1e3:.3f} / "
            f"{row['fct_p99_ms'] / 1e3:.3f} s, "
            f"mean goodput {_fmt_value(row['goodput_kBs'] * 1e3)} B/s"
        )
        lines.append(
            f"  fairness (windowed Jain): mean {row['jain_mean']:.3f}, "
            f"min {row['jain_min']:.3f}"
        )
        lines.append(
            f"  memory budget: peak "
            f"{_fmt_value(row['budget_peak_MiB'] * (1 << 20))} B, "
            f"{row['budget_breaches']} breaches, "
            f"{row['cache_evictions']} cache evictions"
        )
    return "\n".join(lines)


def content_summary(rows: Sequence[dict], title: str = "content") -> str:
    """Human-readable summary of ``content_study`` rows.

    ``rows`` are the study's result-table rows, tagged by ``section``:
    the placement x eviction ``matrix`` cells, the multicast ``fanout``
    row, and the per-shard ``sharded`` rows.  Renders the sharing story:
    the no-catalog floor, the best placement cell versus the default
    uniform/lru cell, the fan-out amplification, and the sharded cell's
    totals.
    """
    lines = [f"-- content summary: {title} --"]
    matrix = [r for r in rows if r.get("section") == "matrix"]
    cells = [r for r in matrix if r.get("catalog")]
    floor = next((r for r in matrix if not r.get("catalog")), None)
    if floor is not None:
        lines.append(
            f"no catalog: cross-flow hit ratio "
            f"{floor.get('cross_hit_ratio', 0.0):.3f} — the floor the "
            f"catalog exists to beat"
        )
    if cells:
        best = max(cells, key=lambda r: r.get("cross_hit_ratio", 0.0))
        lines.append(
            f"best cell {best.get('placement')}/{best.get('eviction')}: "
            f"cross-flow hit ratio {best.get('cross_hit_ratio', 0.0):.3f}, "
            f"origin load -{best.get('origin_load_reduction', 0.0) * 100:.0f}%, "
            f"FCT p50 {best.get('fct_p50_ms', 0.0):.1f} ms"
        )
        default = next(
            (
                r for r in cells
                if (r.get("placement"), r.get("eviction"))
                == ("uniform", "lru")
            ),
            None,
        )
        if default is not None and default is not best:
            lines.append(
                f"default cell uniform/lru: cross-flow hit ratio "
                f"{default.get('cross_hit_ratio', 0.0):.3f}, origin load "
                f"-{default.get('origin_load_reduction', 0.0) * 100:.0f}% "
                f"(placement cells to compare against)"
            )
    fanout = next((r for r in rows if r.get("section") == "fanout"), None)
    if fanout is not None:
        lines.append(
            f"fanout: {int(fanout.get('completed', 0))}/"
            f"{int(fanout.get('arrivals', 0))} subscribers served with "
            f"{fanout.get('upstream_copies', 0.0):.2f} upstream copies "
            f"({int(fanout.get('interests_aggregated', 0))} Interests "
            f"aggregated, {int(fanout.get('fanout_packets', 0))} fan-out "
            f"packets)"
        )
    shards = [
        r for r in rows
        if r.get("section") == "sharded" and r.get("shard") != "total"
    ]
    if shards:
        ratios = [r.get("cross_hit_ratio", 0.0) for r in shards]
        lines.append(
            f"sharded cell: {len(shards)} shards, cross-flow hit ratio "
            f"{min(ratios):.3f}..{max(ratios):.3f} per shard; rows are "
            f"bit-identical for any --shard-jobs and across resume"
        )
    return "\n".join(lines)


def churn_summary(rows: Sequence[dict], title: str = "churn") -> str:
    """Human-readable summary of geometry-driven churn rows.

    ``rows`` are the per-(pair, protocol) dicts produced by the ``churn``
    experiment: single-flow rows carry per-handover recovery stats from
    :func:`repro.churn.handover_stats`; the ``leotp-pool`` row carries
    workload completion/abort counts.  Groups by city pair and renders
    the recovery story: handovers seen, recovery latency, goodput dip
    depth, and invariant status per protocol.
    """
    lines = [f"-- churn summary: {title} --"]
    pairs: dict[str, list[dict]] = {}
    for row in rows:
        pairs.setdefault(str(row.get("pair", "?")), []).append(row)
    for pair, pair_rows in pairs.items():
        head = pair_rows[0]
        lines.append(
            f"{pair}: {int(head.get('handovers', 0))} handovers over "
            f"{int(head.get('hops', 0))} hops "
            f"({int(head.get('links_removed', 0))} links removed, "
            f"{int(head.get('gs_reattach', 0))} GS re-attachments, "
            f"{int(head.get('route_losses', 0))} route losses)"
        )
        for row in pair_rows:
            proto = row.get("protocol", "?")
            if proto == "leotp-pool":
                lines.append(
                    f"  {proto}: {int(row.get('pool_completed', 0))}/"
                    f"{int(row.get('arrivals', 0))} flows completed, "
                    f"{int(row.get('pool_aborted', 0))} aborted "
                    f"({int(row.get('aborted_no_route', 0))} no_route), "
                    f"{int(row.get('budget_breaches', 0))} budget breaches"
                )
                continue
            inv = row.get("invariants_ok", True)
            measured = int(row.get("handovers_measured", 0))
            unrec = int(row.get("unrecovered", 0))
            line = (
                f"  {proto}: {row.get('goodput_mbps', 0.0):.2f} Mbps, "
                f"recovery mean/max "
                f"{row.get('recovery_mean_ms', 0.0):.0f}/"
                f"{row.get('recovery_max_ms', 0.0):.0f} ms, "
                f"dip depth mean {row.get('dip_depth_mean', 0.0):.2f}"
            )
            if unrec:
                line += f", {unrec}/{measured} handovers unrecovered"
            line += (
                ", invariants OK" if inv
                else f", {int(row.get('invariant_violations', 0))}"
                     " INVARIANT VIOLATIONS"
            )
            lines.append(line)
    return "\n".join(lines)


def ccbench_summary(rows: Sequence[dict], title: str = "ccbench") -> str:
    """Human-readable summary of the CC bake-off matrix.

    ``rows`` are the per-(cadence, load, loss, cc) cells from the
    ``ccbench`` experiment.  Aggregates each controller across the
    matrix (mean per-handover recovery on the monitor flow, aggregate
    goodput, completion rate, tail FCT), then calls out the per-cell
    recovery winner and the OrbCC-vs-BBR head-to-head the bake-off
    exists to answer.
    """
    lines = [f"-- ccbench summary: {title} --"]
    by_cc: dict[str, list[dict]] = defaultdict(list)
    by_cell: dict[tuple, list[dict]] = defaultdict(list)
    for row in rows:
        by_cc[str(row.get("cc", "?"))].append(row)
        cell = (row.get("cadence"), row.get("load"), row.get("loss"))
        by_cell[cell].append(row)

    def _mean(cells: list[dict], key: str) -> float:
        vals = [c.get(key) for c in cells if c.get(key) is not None]
        return sum(vals) / len(vals) if vals else 0.0

    ranked = sorted(
        by_cc.items(), key=lambda kv: _mean(kv[1], "recovery_mean_ms")
    )
    for cc, cells in ranked:
        arrivals = sum(int(c.get("arrivals", 0)) for c in cells)
        completed = sum(int(c.get("completed", 0)) for c in cells)
        lines.append(
            f"  {cc}: recovery mean {_mean(cells, 'recovery_mean_ms'):.0f} ms"
            f" (max {max((c.get('recovery_max_ms', 0.0) or 0.0) for c in cells):.0f}),"
            f" {sum(int(c.get('unrecovered', 0)) for c in cells)} unrecovered,"
            f" goodput {_mean(cells, 'goodput_mbps'):.2f} Mbps,"
            f" {completed}/{arrivals} flows,"
            f" fct p90 {_mean(cells, 'fct_p90_s'):.2f} s,"
            f" Jain {_mean(cells, 'jain_mean'):.3f}"
        )
    wins: Counter = Counter()
    for cell, cell_rows in by_cell.items():
        best = min(
            cell_rows,
            key=lambda r: r.get("recovery_mean_ms") or float("inf"),
        )
        wins[str(best.get("cc", "?"))] += 1
    lines.append(
        "  per-cell recovery wins: "
        + ", ".join(f"{cc}={n}" for cc, n in wins.most_common())
    )
    # The bake-off's headline question: does handover awareness pay?
    orb = [r for r in rows if str(r.get("cc", "")).startswith("orbcc")]
    bbr = [r for r in rows if r.get("cc") == "bbr"]
    if orb and bbr:
        pairs = 0
        orb_wins = 0
        for o in orb:
            cell = (o.get("cadence"), o.get("load"), o.get("loss"))
            match = [
                b for b in bbr
                if (b.get("cadence"), b.get("load"), b.get("loss")) == cell
            ]
            if match and o.get("recovery_mean_ms") is not None:
                pairs += 1
                if o["recovery_mean_ms"] < match[0].get(
                    "recovery_mean_ms", float("inf")
                ):
                    orb_wins += 1
        lines.append(
            f"  orbcc vs bbr (per-handover recovery): orbcc faster in "
            f"{orb_wins}/{pairs} cells"
        )
    return "\n".join(lines)


def run_summary(
    records: Sequence[dict],
    samples: Sequence[dict] = (),
    title: str = "run",
    timeline_limit: int = 25,
) -> str:
    """Human-readable per-run summary (the ``--trace`` CLI output)."""
    lines = [f"-- observability summary: {title} --"]

    counts = event_counts(records)
    if counts:
        ordered = ", ".join(
            f"{event}={n}" for event, n in sorted(counts.items())
        )
        lines.append(f"events ({sum(counts.values())} records): {ordered}")
    else:
        lines.append("events: none recorded")

    latency = recovery_latency_ms(records)
    if latency is not None:
        lines.append(
            "recovery latency: first-copy OWD p50 "
            f"{latency['normal_owd_p50_ms']:.1f} ms, repaired-copy mean "
            f"{latency['retx_owd_mean_ms']:.1f} ms -> recovery cost "
            f"{latency['recovery_cost_ms']:.1f} ms "
            f"({latency['retx_deliveries']} repaired deliveries)"
        )

    cache_rows = cache_efficiency(records)
    if cache_rows:
        lines.append("cache efficiency (per-hop hit-ratio ladder):")
        for row in cache_rows:
            line = (
                f"  {row['node']:<16} {row['lookups']:>6} lookups, "
                f"hit ratio {row['hit_ratio']:.2f} "
                f"(bytes {row['byte_hit_ratio']:.2f}), "
                f"{row['hit_bytes']} B served from cache"
            )
            if row["cross_bytes"]:
                line += (
                    f", {row['cross_bytes']} B cross-flow "
                    f"(ratio {row['cross_ratio']:.2f})"
                )
            lines.append(line)

    ladder = rate_ladder(samples)
    if ladder:
        lines.append("per-hop state (mean / last over sampled run):")
        for row in ladder:
            lines.append(
                f"  {row['series']:<36} mean {_fmt_value(row['mean']):>9}  "
                f"last {_fmt_value(row['last']):>9}  ({row['samples']} samples)"
            )

    timeline = recovery_timeline(records, limit=timeline_limit)
    if timeline:
        lines.append(f"recovery timeline (first {len(timeline)} notable events):")
        lines.extend(_fmt_timeline_entry(rec) for rec in timeline)

    return "\n".join(lines)
