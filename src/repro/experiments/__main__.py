"""Run experiments from the command line.

Usage::

    python -m repro.experiments                 # run everything at scale 0.5
    python -m repro.experiments fig12 table2    # run a subset
    python -m repro.experiments --scale 1.0 fig16
    python -m repro.experiments --jobs 8        # process-pool fan-out
    python -m repro.experiments --profile fig12 # cProfile dump per experiment
    python -m repro.experiments workload_sharded --shard-jobs 4
    python -m repro.experiments fig10 --trace   # packet-level trace + summary
    python -m repro.experiments fig10 --trace --metrics-out out.jsonl
    python -m repro.experiments ccbench --cc orbcc --cc-param probe_gain=2.5

``--cc NAME`` overrides/selects the congestion control for the
CC-aware experiments (``workload``, ``churn``, ``ccbench``): ``leotp``
or one of the laws in :data:`repro.tcp.cc.CC_REGISTRY`.  Repeated
``--cc-param k=v`` flags forward constructor params.

``--jobs N`` runs experiments in up to N processes, this one included
(N - 1 forked workers).  Each experiment owns its own Simulator and
RngRegistry, so the printed rows are bit-identical to a serial run —
only the wall-clock changes.  ``--shard-jobs N`` does the same *inside*
a sharded experiment.  Every flag lands in one :class:`RunSpec`, the
only options channel.

``--trace`` enables the :mod:`repro.obs` layer for each experiment: after
the result table it prints a human-readable recovery summary (event
counts, recovery latency, cache efficiency, per-hop rate ladder, and a
timeline of drops/repairs) and writes the packet-level records to
``results/obs/<id>_trace.jsonl`` (override with ``--trace-out``; only
valid for a single experiment).  ``--metrics-out PATH`` additionally
writes the periodic protocol-state samples as JSONL; it implies
observation even without ``--trace``.  Observation is read-only, so the
result tables are bit-identical with or without these flags.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.common import ExperimentResult
from repro.experiments.runner import RunSpec, run_experiments

#: The experiments whose table is followed by a ``repro.analysis`` summary.
_SUMMARIES = {
    "workload": "workload_summary",
    "churn": "churn_summary",
    "content_study": "content_summary",
    "ccbench": "ccbench_summary",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's figures and tables.",
    )
    parser.add_argument(
        "experiments", nargs="*",
        help=f"experiment ids (default: all of {', '.join(ALL_EXPERIMENTS)})",
    )
    parser.add_argument("--scale", type=float, default=0.5,
                        help="duration scale factor (default 0.5)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="run experiments in up to N processes (default 1: serial); "
             "rows are bit-identical to the serial run",
    )
    parser.add_argument(
        "--shard-jobs", type=int, default=1, metavar="N",
        help="processes inside sharded experiments, this one included "
             "(default 1); rows are bit-identical for any value",
    )
    parser.add_argument(
        "--sink-dir", metavar="DIR", default=None,
        help="where workload_sharded_xl streams per-flow rows "
             "(default results/shard_xl)",
    )
    parser.add_argument(
        "--checkpoint-dir", metavar="DIR", default=None,
        help="workload_sharded_xl commits every finished shard's row "
             "here, and resumes from it when it holds this plan's "
             "manifest (unfinished shards run again from their seeds)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="cProfile each experiment, dumping results/profiles/<id>.pstats "
             "(forked shard workers: results/profiles/shards/)",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="enable packet-level tracing + protocol metrics; prints a "
             "recovery summary and writes results/obs/<id>_trace.jsonl",
    )
    parser.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="trace JSONL destination (single experiment only; implies --trace)",
    )
    parser.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write periodic protocol-state samples as JSONL (implies observation)",
    )
    parser.add_argument(
        "--sampler-interval", type=float, default=None, metavar="SECONDS",
        help="metrics sampler cadence for observed runs (default: the "
             "experiment's own, else 0.05)",
    )
    parser.add_argument(
        "--cc", metavar="NAME", default=None,
        help="congestion control for CC-aware experiments (workload, "
             "churn, ccbench): leotp or a law name, e.g. orbcc; "
             "ccbench restricts its CC axis to this one controller",
    )
    parser.add_argument(
        "--cc-param", metavar="K=V", action="append", default=None,
        help="constructor param for --cc (repeatable), e.g. "
             "--cc-param probe_gain=2.5; values parse as "
             "bool/int/float/str",
    )
    args = parser.parse_args(argv)

    names = args.experiments or list(ALL_EXPERIMENTS)
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment(s): {', '.join(unknown)}")
    profile_dir = "results/profiles" if args.profile else None
    observe = args.trace or args.trace_out is not None or args.metrics_out is not None
    if args.trace_out is not None and len(names) > 1:
        parser.error("--trace-out needs exactly one experiment id")

    cc_spec = None
    if args.cc_param and not args.cc:
        parser.error("--cc-param requires --cc")
    if args.cc is not None:
        from repro.tcp.cc import CC_REGISTRY, CCSpec, parse_cc_params

        name = args.cc.lower()
        if name != "leotp" and name not in CC_REGISTRY:
            parser.error(
                f"unknown congestion control {args.cc!r}; known: "
                f"leotp, {', '.join(sorted(CC_REGISTRY))}"
            )
        try:
            cc_spec = CCSpec(name, parse_cc_params(args.cc_param))
        except ValueError as exc:
            parser.error(str(exc))

    try:
        spec = RunSpec(
            scale=args.scale, seed=args.seed, observe=observe,
            profile_dir=profile_dir, sampler_interval_s=args.sampler_interval,
            cc=cc_spec, shard_jobs=args.shard_jobs,
            sink_dir=args.sink_dir, checkpoint_dir=args.checkpoint_dir,
        )
    except ValueError as exc:
        parser.error(str(exc))
    t_start = time.time()
    outcomes = run_experiments(names, spec, jobs=args.jobs)
    all_samples: list[dict] = []
    for outcome in outcomes:
        result = ExperimentResult(**outcome.result)
        print(result.table())
        if outcome.name in _SUMMARIES:
            from repro import analysis

            print(getattr(analysis, _SUMMARIES[outcome.name])(result.rows))
        line = f"(wall {outcome.wall_s:.0f}s, scale {args.scale}"
        if outcome.profile_path:
            line += f", profile {outcome.profile_path}"
        print(line + ")\n")
        if observe:
            from repro.analysis.report import run_summary
            from repro.obs import dump_jsonl

            records = outcome.trace_records or []
            samples = outcome.metric_samples or []
            # Tag rows with their experiment so a merged metrics file
            # stays attributable.
            for row in samples:
                row.setdefault("experiment", outcome.name)
            all_samples.extend(samples)
            print(run_summary(records, samples, title=outcome.name))
            trace_path = args.trace_out
            if trace_path is None:
                os.makedirs("results/obs", exist_ok=True)
                trace_path = os.path.join("results/obs", f"{outcome.name}_trace.jsonl")
            dump_jsonl(records, trace_path)
            print(f"trace: {len(records)} records -> {trace_path}\n")
    if args.metrics_out is not None:
        from repro.obs import dump_jsonl

        dump_jsonl(all_samples, args.metrics_out)
        print(f"metrics: {len(all_samples)} samples -> {args.metrics_out}")
    if len(outcomes) > 1:
        print(
            f"total wall {time.time() - t_start:.0f}s for {len(outcomes)} "
            f"experiments (jobs={args.jobs})"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
