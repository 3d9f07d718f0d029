"""Tests for the experiment harness (utilities plus cheap smoke runs)."""

import importlib
import pathlib
from functools import partial

import pytest

from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.common import (
    ExperimentResult,
    PathSpec,
    build_path,
    metrics_from_recorder,
    run_chain,
    scaled_duration,
)
from repro.experiments.paper import Figure
from repro.faults import (
    LinkDown,
    NodeCrash,
    Timeline,
    TimelineDriver,
    run_chaos,
)
from repro.gateway import build_gateway_path
from repro.netsim.topology import uniform_chain_specs
from repro.netsim.trace import FlowRecorder
from repro.shard import ShardPlan
from repro.simcore import RngRegistry, Simulator
from repro.tcp.cc import CCSpec, parse_cc_params
from repro.workload import WorkloadSpec


class TestExperimentResult:
    def make(self):
        res = ExperimentResult("T", "demo")
        res.add(proto="a", thr=1.0)
        res.add(proto="b", thr=2.0)
        return res

    def test_add_and_column(self):
        res = self.make()
        assert res.column("thr") == [1.0, 2.0]

    def test_filtered(self):
        res = self.make()
        assert res.filtered(proto="b")[0]["thr"] == 2.0

    def test_table_renders_all_rows(self):
        res = self.make()
        text = res.table()
        assert "proto" in text and "2.000" in text

    def test_table_handles_missing_keys(self):
        res = ExperimentResult("T", "demo")
        res.add(a=1)
        res.add(b=2)
        text = res.table()
        assert "-" in text

    def test_empty_table(self):
        assert "(no rows)" in ExperimentResult("T", "d").table()


class TestScaledDuration:
    def test_scaling(self):
        assert scaled_duration(20.0, 0.5) == 10.0

    def test_minimum(self):
        assert scaled_duration(20.0, 0.01) == 3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            scaled_duration(10.0, 0.0)


class TestSweepRunner:
    """``repro.experiments.paper.Figure``, the one runner of the paper's
    sweeps, driven with a stub cell that runs no simulation."""

    def figure(self, calls, **fields):
        def cell(run, x, label):
            calls.append((x, label, run.seed, run.duration))
            return 10.0 * x + run.seed

        return Figure(
            "Fig. X", "stub", ("x", "label"),
            grid=[(2, "b"), (1, "a"), (3, "c")], cell=cell,
            row=lambda run, out, x, label: dict(out=out),
            base_s=30.0, floor_s=5.0,
            notes=lambda rows, run, outs: [
                ",".join(r["label"] for r in rows), repr(outs)],
            **fields,
        )

    def test_rows_follow_the_grid_and_the_notes_see_them(self):
        calls = []
        result = self.figure(calls)(scale=0.5, seed=7)
        assert result.rows == [
            {"x": 2, "label": "b", "out": 27.0},
            {"x": 1, "label": "a", "out": 17.0},
            {"x": 3, "label": "c", "out": 37.0},
        ]
        assert [list(row) for row in result.rows] == [["x", "label", "out"]] * 3
        assert result.notes == ["b,a,c", "[27.0, 17.0, 37.0]"]
        assert (result.name, result.description) == ("Fig. X", "stub")

    def test_duration_is_the_scaled_base_above_its_floor(self):
        for scale in (0.5, 0.1):
            calls = []
            self.figure(calls)(scale=scale, seed=0)
            assert {call[3] for call in calls} == {
                scaled_duration(30.0, scale, 5.0)
            }

    @pytest.mark.parametrize("scale, repeats", [(0.3, 3), (0.29, 1)])
    def test_averaged_cells_run_consecutive_seeds(self, scale, repeats):
        calls = []
        result = self.figure(calls, averaged=True)(scale=scale, seed=4)
        assert [call[:3] for call in calls] == [
            (x, label, 4 + rep)
            for x, label in [(2, "b"), (1, "a"), (3, "c")]
            for rep in range(repeats)
        ]
        for row, x in zip(result.rows, (2, 1, 3)):
            outs = [10.0 * x + 4 + rep for rep in range(repeats)]
            assert row["out"] == sum(outs) / repeats

    def test_plain_cells_run_once_at_any_scale(self):
        calls = []
        self.figure(calls)(scale=1.0, seed=4)
        assert [call[2] for call in calls] == [4, 4, 4]


class TestMetrics:
    def test_metrics_from_recorder(self):
        sim = Simulator()
        rec = FlowRecorder(sim)
        for i in range(10):
            sim.schedule(1.0 + i, rec.on_delivery, 1000, 0.01 * (i + 1), i % 2 == 0)
        sim.run()
        m = metrics_from_recorder(rec, 0.0, 11.0, sender_bytes=123, retransmissions=4)
        assert m.throughput_mbps == pytest.approx(10_000 * 8 / 11.0 / 1e6)
        assert m.owd_mean_ms == pytest.approx(55.0)
        assert m.retx_owd_mean_ms is not None
        assert m.sender_bytes == 123


class TestRunners:
    def test_run_chain_tcp(self):
        hops = uniform_chain_specs(2, rate_bps=10e6)
        metrics, path = run_chain(
            PathSpec(protocol="tcp", hops=hops, cc="reno"), 4.0, seed=1
        )
        assert metrics.throughput_mbps > 1.0
        assert path.sender.wire_bytes_sent > 0

    def test_run_chain_split_tcp(self):
        hops = uniform_chain_specs(2, rate_bps=10e6)
        metrics, path = run_chain(
            PathSpec(protocol="split_tcp", hops=hops, cc="reno"),
            4.0, seed=1,
        )
        assert metrics.throughput_mbps > 1.0

    def test_run_chain_leotp(self):
        metrics, path = run_chain(
            PathSpec(hops=uniform_chain_specs(2, rate_bps=10e6)), 4.0, seed=1
        )
        assert metrics.throughput_mbps > 1.0
        assert path.consumer.bytes_received > 0


_HOPS = uniform_chain_specs(3, rate_bps=10e6)

#: One ``build(sim, rng)`` per built-path type.
_BUILDERS = {
    protocol: partial(build_path, spec=PathSpec(
        protocol=protocol, hops=_HOPS, cc="reno", total_bytes=200_000,
    ))
    for protocol in ("leotp", "tcp", "split_tcp")
}
_BUILDERS["gateway"] = partial(
    build_gateway_path, total_bytes=200_000, leo_hops=_HOPS
)


class TestPathInterface:
    """Every built path answers the read interface the runners, the
    timeline driver and the row extractors rely on."""

    @pytest.mark.parametrize("kind", sorted(_BUILDERS))
    def test_contract(self, kind):
        sim = Simulator()
        path = _BUILDERS[kind](sim, RngRegistry(0))
        sim.run(until=2.0)
        assert path.recorder is not None
        assert path.recorder.total_bytes > 0
        assert len(path.links) == len(_HOPS)
        names = [node.name for node in path.nodes]
        assert len(set(names)) == len(names)
        assert path.wire_bytes_sent >= path.recorder.total_bytes
        assert isinstance(path.retransmissions, int)
        # Arming resolves every target eagerly: unknown names raise here.
        TimelineDriver(sim, path, Timeline(
            LinkDown(3.0, len(_HOPS) - 1, duration_s=0.1)
            + sum((NodeCrash(3.0, name) for name in names), ())
        ))

    def test_split_chain_under_chaos(self):
        result = run_chaos(
            Timeline(LinkDown(1.0, 1, duration_s=0.5)),
            _BUILDERS["split_tcp"], duration_s=4.0, seed=1,
        )
        assert result.protocol == "tcp-reno"
        assert result.violations is None
        assert result.faults_applied == 1
        assert result.recovery.delivered_bytes > 0


def _arm_on_chain(timeline: Timeline) -> None:
    """Arms ``timeline`` on a fresh chain of ``_HOPS``."""
    sim = Simulator()
    TimelineDriver(sim, build_path(sim, RngRegistry(0), PathSpec(hops=_HOPS)),
                   timeline)


@pytest.mark.parametrize("spec, field, value", [
    (ShardPlan, "arrival_rate_per_s", 0.0),
    (ShardPlan, "n_hops", 0),
    (ShardPlan, "hop_rate_bps", -1.0),
    (ShardPlan, "memory_ceiling_bytes", 0),
    (ShardPlan, "hop_delay_s", -0.001),
    (ShardPlan, "drain_s", -1.0),
    (ShardPlan, "fault_every", -1),
    (ShardPlan, "mean_size_bytes", -1),
    (ShardPlan, "max_size_bytes", -1),
    (ShardPlan, "size_sigma", float("nan")),
    (partial(PathSpec, hops=_HOPS), "total_bytes", 0),
    (partial(PathSpec, hops=_HOPS), "mss", 0),
    (partial(PathSpec, hops=_HOPS), "coverage", 1.5),
    (partial(PathSpec, hops=_HOPS), "coverage", -0.1),
    (partial(PathSpec, hops=_HOPS, start_time=2.0), "stop_time", 1.0),
    (WorkloadSpec, "mean_size_bytes", 0),
    (WorkloadSpec, "sigma", -1.0),
    (WorkloadSpec, "trace", ((-1.0, 100),)),
    (WorkloadSpec, "trace", ((1.0, -5),)),
    (parse_cc_params, "cc_param", ["a=1", "a=2"]),
    (CCSpec, "name", ""),
    (partial(CCSpec, "orbcc"), "params", (("hold_s", 0.1), ("hold_s", 0.2))),
    (Timeline, "entries", ((0.0, 0, "bandwidth", 0.5),)),
    (Timeline, "entries", ((-1.0, 0, "up", False),)),
    (_arm_on_chain, "timeline", Timeline(LinkDown(1.0, len(_HOPS)))),
])
def test_a_spec_rejects_a_bad_field_by_name(spec, field, value):
    with pytest.raises(ValueError, match=rf"^{field} "):
        spec(**{field: value})


class TestBenchCoverage:
    def test_every_experiment_is_benched_or_excluded(self, monkeypatch):
        """``benchmarks/test_bench_experiments.py`` rows + its named
        exclusions partition the registry (no orphan, no stale name)."""
        bench_dir = pathlib.Path(__file__).parent.parent / "benchmarks"
        monkeypatch.syspath_prepend(str(bench_dir))
        bench = importlib.import_module("test_bench_experiments")
        assert sorted([*bench.BENCHED, *bench.EXCLUDED]) == sorted(
            ALL_EXPERIMENTS
        )
        assert all(bench.EXCLUDED.values()), "every exclusion states why"


class TestRowsDigest:
    def test_fig02_against_itself(self, monkeypatch, tmp_path, capsys):
        """``tools/rows_digest.py``: a second run equals the first run's
        file (exit 0); a moved digest is named (exit 1); a file taken at
        another seed is refused, not compared (exit 2)."""
        import json

        tools_dir = pathlib.Path(__file__).parent.parent / "tools"
        monkeypatch.syspath_prepend(str(tools_dir))
        tool = importlib.import_module("rows_digest")
        ref = str(tmp_path / "ref.json")
        run = ["fig02", "--scale", "0.05", "--seed", "0"]
        assert tool.main([*run, "--out", ref]) == 0
        with open(ref) as fh:
            report = json.load(fh)
        assert report["scale"] == 0.05 and report["seed"] == 0
        mine = report["digests"]["fig02"]
        assert len(mine) == 16 and int(mine, 16) >= 0
        assert tool.main([*run, "--compare", ref]) == 0
        assert tool.main(["fig02", "--scale", "0.05", "--seed", "1",
                          "--compare", ref]) == 2  # runs nothing
        # A column left out of the digest moves it; the id is named.
        capsys.readouterr()
        assert tool.main([*run, "--compare", ref, "--strip", "algorithm"]) == 2
        report["strip"] = ["algorithm"]
        with open(ref, "w") as fh:
            json.dump(report, fh)
        assert tool.main([*run, "--compare", ref, "--strip", "algorithm"]) == 1
        out, err = capsys.readouterr()
        assert f"!= {mine}" in out and "rows differ: fig02" in err


class TestBenchCompare:
    def test_frames_per_packet_hop_is_gated_like_peak_rss(self, monkeypatch, tmp_path):
        """``benchmarks/compare.py``: growth of the exact call count beyond
        ``--count-threshold`` fails the gate even when the times are
        equal; a side that lacks the figure skips it."""
        import json

        monkeypatch.syspath_prepend(
            str(pathlib.Path(__file__).parent.parent / "benchmarks")
        )
        tool = importlib.import_module("compare")

        def point(name, frames):
            extra = {} if frames is None else {"py_frames_per_packet_hop": frames}
            path = tmp_path / name
            path.write_text(json.dumps({"benchmarks": [
                {"name": "e2e", "stats": {"mean": 1.0}, "extra_info": extra},
            ]}))
            return str(path)

        base = point("base.json", 26.6)
        assert tool.main([base, point("same.json", 27.5)]) == 0
        assert tool.main([base, point("crept.json", 28.1)]) == 1
        assert tool.main([base, point("crept.json", 28.1),
                          "--count-threshold", "0.10"]) == 0
        assert tool.main([point("old.json", None), point("new.json", 40.0)]) == 0

    def test_host_bytes_per_block_is_gated_like_frames(self, monkeypatch, tmp_path):
        """``extra_info.host_bytes_per_block`` is an exact count too: more
        than ``--count-threshold`` growth fails the gate."""
        import json

        monkeypatch.syspath_prepend(
            str(pathlib.Path(__file__).parent.parent / "benchmarks")
        )
        tool = importlib.import_module("compare")

        def point(name, host_bytes):
            path = tmp_path / name
            path.write_text(json.dumps({"benchmarks": [
                {"name": "fill", "stats": {"mean": 1.0},
                 "extra_info": {"host_bytes_per_block": host_bytes}},
            ]}))
            return str(path)

        base = point("base.json", 369)
        assert tool.main([base, point("same.json", 380)]) == 0
        assert tool.main([base, point("grew.json", 400)]) == 1
        assert tool.main([point("old.json", 572), base]) == 0


class TestRegistry:
    def test_all_experiments_registered(self):
        expected = {
            "fig01", "fig02", "fig03", "fig04", "fig05", "fig10", "fig11",
            "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
            "fig19", "table2", "ablation_vph", "ablation_params",
            "related_snoop", "constellation_study", "ccbench", "chaos",
            "churn", "content_study", "gateway", "multicast", "workload",
            "workload_sharded", "workload_sharded_xl",
        }
        assert set(ALL_EXPERIMENTS) == expected

    def test_chaos_smoke(self):
        # Shape only: the acceptance-level assertions (invariants green,
        # >= 80 % goodput recovery) live in test_chaos_recovery.py at
        # full duration; a 3 s run cannot finish a transfer.
        res = ALL_EXPERIMENTS["chaos"](scale=0.2)
        assert len(res.rows) == 8
        assert {row["protocol"] for row in res.rows} == {"leotp", "tcp-bbr"}
        assert {row["scenario"] for row in res.rows} == {
            "blackout", "flap", "crash", "loss_burst",
        }

    def test_fig01_smoke(self):
        res = ALL_EXPERIMENTS["fig01"](scale=0.05)
        assert len(res.rows) == 9

    def test_gateway_smoke(self):
        res = ALL_EXPERIMENTS["gateway"](scale=0.1)
        assert [row["protocol"] for row in res.rows] == [
            "gateway-cubic", "e2e-cubic", "leotp",
        ]
        gw = res.filtered(protocol="gateway-cubic")[0]
        e2e = res.filtered(protocol="e2e-cubic")[0]
        # The deployment claim: bridging beats end-to-end TCP over the
        # lossy LEO segment.
        assert gw["delivered_mbytes"] > e2e["delivered_mbytes"]

    def test_multicast_smoke(self):
        res = ALL_EXPERIMENTS["multicast"](scale=0.1)
        simultaneous = [row for row in res.rows if row["stagger_s"] == 0.0]
        assert [row["n_consumers"] for row in simultaneous] == [2, 4, 8]
        for row in simultaneous:
            assert row["all_finished"]
            # One upstream copy serves everyone: strictly below unicast.
            assert row["upstream_copies"] < row["n_consumers"]
        staggered = [row for row in res.rows if row["stagger_s"] > 0.0][0]
        assert staggered["cache_hits"] > 0

    def test_churn_smoke(self):
        # Shape + invariants only; the acceptance-level run (>= 10
        # handovers, bit-identity under --jobs 2) is the nightly CI job.
        res = ALL_EXPERIMENTS["churn"](scale=0.2)
        assert res.rows, res.notes
        protos = {row["protocol"] for row in res.rows}
        assert protos == {"leotp", "split-bbr", "bbr", "leotp-pool"}
        for row in res.rows:
            assert row["handovers"] >= 1
            if row["protocol"] != "leotp-pool":
                assert row["invariants_ok"]
                assert row["handovers_measured"] >= 1
        # The four rows of a pair ran one schedule: they count the same
        # faults (the pool row used to count log lines: twice as many).
        for pair in {row["pair"] for row in res.rows}:
            rows = res.filtered(pair=pair)
            assert len(rows) == 4
            assert len({row["faults_applied"] for row in rows}) == 1

    def test_fig03_smoke(self):
        res = ALL_EXPERIMENTS["fig03"](scale=0.05)
        e2e = res.filtered(scheme="end-to-end")[0]
        hbh = res.filtered(scheme="hop-by-hop")[0]
        assert hbh["p99_ms"] < e2e["p99_ms"]


class TestExport:
    def make(self):
        res = ExperimentResult("Fig. X", "demo")
        res.add(proto="a", thr=1.5)
        res.add(proto="b", thr=2.0, extra="y")
        return res

    def test_to_csv(self):
        csv_text = self.make().to_csv()
        lines = csv_text.strip().splitlines()
        assert lines[0] == "proto,thr,extra"
        assert lines[1].startswith("a,1.5")

    def test_to_dict_roundtrips_via_json(self):
        import json

        blob = json.dumps(self.make().to_dict())
        back = json.loads(blob)
        assert back["name"] == "Fig. X"
        assert len(back["rows"]) == 2

    def test_save_writes_csv(self, tmp_path):
        path = self.make().save(tmp_path)
        assert path.endswith("fig_x.csv")
        with open(path) as fh:
            assert "proto" in fh.read()


class TestCcbench:
    """Reduced-cost checks of the CC bake-off; the full 2x2x2x6 matrix
    runs in the nightly CI slice."""

    @pytest.fixture(scope="class")
    def restricted(self):
        from repro.tcp.cc import CCSpec

        return ALL_EXPERIMENTS["ccbench"](
            scale=0.5, seed=0, cc=CCSpec("orbcc", {"probe_gain": 2.5})
        )

    def test_axes_and_shape(self, restricted):
        rows = restricted.rows
        assert len(rows) == 8  # 2 cadences x 2 loads x 2 losses, one CC
        assert {r["cadence"] for r in rows} == {"low", "high"}
        assert {r["load"] for r in rows} == {"light", "heavy"}
        assert {r["loss"] for r in rows} == {"clean", "burst"}
        assert {r["cc"] for r in rows} == {"orbcc(probe_gain=2.5)"}

    def test_row_columns(self, restricted):
        row = restricted.rows[0]
        for key in (
            "fct_p50_s", "fct_p90_s", "fct_p99_s", "jain_mean",
            "goodput_mbps", "mon_goodput_mbps", "handovers",
            "recovery_mean_ms", "unrecovered", "faults_applied",
        ):
            assert key in row

    def test_churn_applied(self, restricted):
        assert all(r["faults_applied"] > 0 for r in restricted.rows)
        high = [r for r in restricted.rows if r["cadence"] == "high"]
        low = [r for r in restricted.rows if r["cadence"] == "low"]
        assert high[0]["handovers"] > low[0]["handovers"]

    def test_summary_renders(self, restricted):
        from repro.analysis.report import ccbench_summary

        text = ccbench_summary(restricted.rows)
        assert "recovery mean" in text
        assert "per-cell recovery wins" in text

    def test_bit_identical_serial_vs_jobs2(self):
        from repro.experiments.runner import RunSpec, run_experiments

        spec = RunSpec(scale=0.5, seed=0, cc="reno")
        serial = run_experiments(["ccbench"], spec, jobs=1)
        parallel = run_experiments(["ccbench"], spec, jobs=2)
        assert serial[0].result["rows"] == parallel[0].result["rows"]


class TestCcSpecEntryPoints:
    """Every entry point that selects a CC law takes a CCSpec."""

    def test_runspec_coerces_and_pickles(self):
        import pickle

        from repro.experiments.runner import RunSpec
        from repro.tcp.cc import CCSpec

        spec = RunSpec(cc="orbcc")
        assert spec.cc == CCSpec("orbcc")
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.cc == spec.cc

    def test_path_spec(self):
        from repro.simcore import RngRegistry, Simulator
        from repro.tcp.cc import CCSpec

        spec = PathSpec(
            protocol="tcp",
            hops=tuple(uniform_chain_specs(2, rate_bps=10e6)),
            cc=CCSpec("orbcc", {"hold_s": 0.2}),
        )
        path = build_path(Simulator(), RngRegistry(0), spec)
        assert path.sender.cc.hold_s == 0.2

    def test_build_e2e_and_split(self):
        from repro.simcore import RngRegistry, Simulator
        from repro.tcp import build_e2e_tcp_path, build_split_tcp_path
        from repro.tcp.cc import CCSpec

        hops = uniform_chain_specs(2, rate_bps=10e6)
        spec = CCSpec("cubic")
        e2e = build_e2e_tcp_path(Simulator(), RngRegistry(0), hops, spec)
        assert e2e.sender.cc.name == "cubic"
        split = build_split_tcp_path(Simulator(), RngRegistry(0), hops, spec)
        assert split.sender.cc.name == "cubic"

    def test_flow_pool(self):
        from repro.simcore import RngRegistry, Simulator
        from repro.tcp.cc import CCSpec
        from repro.workload import FlowPool, WorkloadSpec

        sim = Simulator()
        pool = FlowPool(
            sim, RngRegistry(0),
            spec=WorkloadSpec(
                arrival="poisson", rate_per_s=10.0, n_flows=4,
                mean_size_bytes=500_000,
            ),
            hops=uniform_chain_specs(2, rate_bps=10e6),
            protocol=CCSpec("orbcc", {"probe_gain": 2.2}),
            name="ccspec-pool",
        )
        # Stop mid-transfer: completed flows are retired from the live
        # sender map, so probe while at least one is still in flight.
        sim.run(until=0.5)
        assert pool._tcp_senders, "no flows in flight at the probe time"
        sender = next(iter(pool._tcp_senders.values()))
        assert sender.cc.probe_gain == 2.2

    def test_gateway_bridge(self):
        from repro.gateway import build_gateway_path
        from repro.simcore import RngRegistry, Simulator
        from repro.tcp.cc import CCSpec

        path = build_gateway_path(
            Simulator(), RngRegistry(0), 100_000,
            uniform_chain_specs(2, rate_bps=10e6),
            tcp_cc=CCSpec("westwood"),
        )
        assert path.server.cc.name == "westwood"
