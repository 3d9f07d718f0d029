#!/usr/bin/env python3
"""The repo benchmark: five whole-stack workloads, measured from outside.

    python3 bench/run.py                       # all workloads, 5 reps + trace
    python3 bench/run.py --workload tcp_pool --seed 1 --reps 3 --no-trace
    python3 bench/run.py --aa                  # noise figure: two sets
    python3 bench/run.py --quick               # CI smoke, under a minute
    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
                                               # one driver run (BENCHMARK.json)

Every repetition runs in a fresh child process (``bench/child.py``), one
after the other; only ``shard_jobs2`` spawns workers of its own (two).
Inputs are generated here from ``--seed`` (``bench/workloads.py``); the
program under test receives specs, never a workload name.  All pools are
open loop in *simulated* time: arrivals fire on the generated schedule
whatever the completions do, so the generator is never late (lateness
0 by construction) and FCT counts from the scheduled arrival.

``setup_s``, ``wall_s``, ``peak_rss_mib`` and every ``*.self_s`` are host
measurements of this machine; ``sim_*`` and the protocol counters are
simulated statistics, exact for a seed (``sim_digest``).  ``wall_s`` and
``setup_s`` are in *reference seconds*: host seconds divided by how slow
the host was while they passed, read from a calibration kernel that runs
between slices of the timed region (``bench/calib.py``); the host
seconds themselves are kept in ``result.json`` (``raw_host``).

Metric names, units, directions and bounds are read from
``BENCHMARK.json``; ``bench/README.md`` defines them.  Results go to
``bench/out/result.json`` (and ``bench/out/trace_<workload>.json``).
With one ``--workload`` the last stdout line is the driver's JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

#: A driver run must end within 180 s; no single child may eat all of it.
CHILD_TIMEOUT_S = 150
#: Set-up is short and noisy: sample it at least this often per workload.
MIN_SETUP_SAMPLES = 6
DEFAULT_REPS = 5


class BenchError(RuntimeError):
    """The benchmark could not produce a measurement."""


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------


def run_child(script: str, job: dict | None = None) -> dict:
    """Run ``bench/<script>`` to completion; its last stdout line is JSON.

    The child gets its own session so a timeout can take its worker
    processes down with it; nothing started here outlives the call.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / script)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=env, start_new_session=True,
    )
    try:
        out, err = proc.communicate(
            json.dumps(job) if job is not None else None,
            timeout=CHILD_TIMEOUT_S,
        )
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise BenchError(
            f"{script} exited with {proc.returncode}:\n{err[-2000:]}"
        )
    return json.loads(out.strip().splitlines()[-1])


def repetition(spec: dict, **flags) -> dict:
    """One fresh-process repetition of ``spec`` (see child.py's job keys)."""
    OUT.mkdir(exist_ok=True)
    return run_child("child.py", {
        "spec": spec,
        "t_spawn": time.monotonic(),
        "scratch": str(OUT / f"tmp-{os.getpid()}"),
        **flags,
    })


def failed_checks(result: dict) -> list[str]:
    return sorted(name for name, ok in result["checks"].items() if not ok)


def tally(runs: list[dict]) -> dict:
    """Operations attempted / failed and the checks that failed in ``runs``.

    A repetition that fails a check is suspect as a whole: all its
    operations count as failed.
    """
    return {
        "attempted": sum(r["sim"]["attempted"] for r in runs),
        "failed": sum(
            r["sim"]["attempted"] if failed_checks(r) else r["sim"]["failed"]
            for r in runs
        ),
        "failed_checks": sorted({c for r in runs for c in failed_checks(r)}),
    }


# ----------------------------------------------------------------------
# The two phases of one workload
# ----------------------------------------------------------------------


def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count of one metric's raw values."""
    q1, _, q3 = (
        statistics.quantiles(values, n=4) if len(values) > 1
        else (values[0],) * 3
    )
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "raw": values}


def measure_end_to_end(spec: dict, contract: dict, *, reps: int | None,
                       seconds: float | None, setup_samples: int) -> dict:
    """Untraced repetitions: every end-to-end metric, with its raw values.

    With ``seconds`` the phase is time-boxed: another repetition starts
    only if one as long as the last still fits.
    """
    results = []
    started = time.monotonic()
    while True:
        t0 = time.monotonic()
        results.append(repetition(spec))
        now = time.monotonic()
        if reps is not None:
            if len(results) >= reps:
                break
        elif (now - started) + (now - t0) > seconds:
            break
    setups = list(results)
    while len(setups) < setup_samples:
        setups.append(repetition(spec, setup_only=True))

    raw = {"setup_s": [r["setup_s"] for r in setups]}
    for metric in contract["end_to_end"]:
        name = metric["name"]
        if name != "setup_s":
            raw[name] = [
                r["sim"][name] if name.startswith("sim_") else r[name]
                for r in results
            ]
    out = tally(results)
    if len({r["sim_digest"] for r in results}) > 1:
        out["failed_checks"].append("repetitions_bit_identical")
    out.update(
        metrics={name: summary(vals) for name, vals in raw.items()},
        # Host seconds before calibration (see calib.py), for the record.
        raw_host={"setup_s": [r["raw_setup_s"] for r in setups],
                  "wall_s": [r["raw_wall_s"] for r in results]},
        sim_digest=results[0]["sim_digest"],
        sim=results[0]["sim"],
    )
    return out


def measure_per_layer(name: str, spec: dict, contract: dict,
                      drive: dict) -> dict:
    """One traced run beside its untraced twin: every per-layer metric.

    ``drive`` holds the layer drivers' ``drive.*`` values, which do not
    depend on the workload.

    The twin gives what tracing would distort (CPU time, the overhead
    base) and the digest the traced run must reproduce.  A sharded spec
    is traced with ``jobs=1`` in-process; its untraced serial run doubles
    as the ``shard.speedup`` base and the rows-identical check.
    """
    twin = repetition(spec)
    runs = [twin]
    sharded = spec["kind"] == "sharded"
    serial = twin
    traced_spec = spec
    if sharded:
        traced_spec = {**spec, "jobs": 1}
        serial = repetition(traced_spec)
        runs.append(serial)
    traced = repetition(
        traced_spec, trace=True, trace_out=str(OUT / f"trace_{name}.json")
    )
    runs.append(traced)

    ledger = dict(traced["ledger"])
    traced_wall = ledger.pop("trace.traced_wall_s")
    sim = twin["sim"]
    values = {
        **ledger,
        **traced["counters"],
        **drive,
        "trace.overhead_ratio": traced_wall / serial["raw_wall_s"],
        "host.cpu_s": twin["cpu_s"],
        "core.retx_owd_ms": twin["extra"].get("core.retx_owd_ms", 0.0),
        # p99 needs >= 10 samples beyond it.
        "workload.fct_p99_ms": (
            sim["sim_fct_p99_ms"] if sim["attempted"] >= 1000 else 0.0
        ),
    }
    if sharded:
        values.update(twin["extra"])
        values["shard.serial_wall_s"] = serial["raw_wall_s"]
        values["shard.speedup"] = serial["raw_wall_s"] / twin["raw_wall_s"]
        values["shard.rows_identical"] = int(
            twin["rows_digest"] == serial["rows_digest"]
        )
    names = [m["name"] for m in contract["per_layer"]]
    unknown = sorted(set(values) - set(names))
    if unknown:
        raise BenchError(f"metrics missing from BENCHMARK.json: {unknown}")
    # A metric that does not apply to this workload reads 0.
    metrics = {n: summary([float(values.get(n, 0.0))]) for n in names}

    out = tally(runs)
    if traced["sim_digest"] != twin["sim_digest"]:
        out["failed_checks"].append("traced_digest_matches_untraced")
    if sharded and not values["shard.rows_identical"]:
        out["failed_checks"].append("shard_rows_identical")
    out.update(
        metrics=metrics,
        sim_digest=twin["sim_digest"],
        traced_wall_s=traced_wall,
        untraced_wall_s=serial["raw_wall_s"],
    )
    return out


def measure(name: str, args, contract: dict, *, trace: str,
            drive: dict | None = None) -> dict:
    """Both phases of one workload, as selected by ``trace`` (0, 1, both)."""
    spec = workloads.make_spec(name, args.seed, args.quick)
    out = {"seed": args.seed, "kind": spec["kind"]}
    if trace != "1":
        out["end_to_end"] = measure_end_to_end(
            spec, contract, reps=args.reps, seconds=args.seconds,
            setup_samples=1 if args.quick else MIN_SETUP_SAMPLES,
        )
    if trace != "0":
        out["per_layer"] = measure_per_layer(name, spec, contract, drive)
    return out


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------


def print_table(title: str, units: dict, phase: dict) -> None:
    print(f"\n== {title} ==")
    print(f"{'metric':34s} {'unit':8s} {'median':>14s} {'q1':>14s} "
          f"{'q3':>14s} {'n':>3s}")
    for name, s in phase["metrics"].items():
        print(f"{name:34s} {units[name]:8s} {s['median']:14.6g} "
              f"{s['q1']:14.6g} {s['q3']:14.6g} {s['n']:3d}")
    print(f"sim_digest {phase['sim_digest']}  operations "
          f"{phase['attempted']} attempted, {phase['failed']} failed")
    for check in phase["failed_checks"]:
        print(f"CHECK FAILED: {check}")


def report(name: str, result: dict, units: dict) -> None:
    if "end_to_end" in result:
        print_table(
            f"{name} end to end (seed {result['seed']}; host times: s, MiB; "
            "sim_*: simulated; open loop, generator lateness 0)",
            units, result["end_to_end"],
        )
    if "per_layer" in result:
        phase = result["per_layer"]
        print_table(f"{name} per layer (one traced run)", units, phase)
        print(f"tracing overhead: traced {phase['traced_wall_s']:.3f} s vs "
              f"untraced {phase['untraced_wall_s']:.3f} s")
        unattributed = phase["metrics"]["trace.unattributed_share"]["median"]
        if unattributed > 0.10:
            print(f"WARNING: trace.unattributed_share {unattributed:.3f} > 0.10")


PHASES = ("end_to_end", "per_layer")


def check_failures(results: dict) -> list[str]:
    return [
        f"{name}: {check}"
        for name, result in results.items()
        for phase in PHASES if phase in result
        for check in result[phase]["failed_checks"]
    ]


def driver_line(result: dict, units: dict) -> str:
    """The driver's result object: the last line of stdout."""
    phases = [result[p] for p in PHASES if p in result]
    return json.dumps({
        "correct": not any(p["failed_checks"] for p in phases),
        "attempted": sum(p["attempted"] for p in phases),
        "failed": sum(p["failed"] for p in phases),
        "metrics": {
            name: {"value": s["median"], "unit": units[name]}
            for p in phases for name, s in p["metrics"].items()
        },
    })


def git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"  # a bare checkout is not a git repository


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    gap = (b - a) / a if a else 0.0
    return gap if better == "lower" else -gap


def compare_sets(set_a: dict, set_b: dict, contract: dict) -> list[str]:
    """A/A table; returns the names of the comparisons that failed."""
    failures = []
    print("\n== A/A: two sets of the same tree ==")
    print(f"{'workload':14s} {'metric':18s} {'median A':>12s} "
          f"{'median B':>12s} {'gap':>8s} {'bound':>6s}")
    for name in set_a:
        a, b = set_a[name]["end_to_end"], set_b[name]["end_to_end"]
        if a["sim_digest"] != b["sim_digest"]:
            failures.append(f"{name}: sim_digest differs")
        for metric in contract["end_to_end"]:
            m = metric["name"]
            ma, mb = a["metrics"][m]["median"], b["metrics"][m]["median"]
            gap = worse_by(ma, mb, metric["better"])
            flag = ""
            if m.startswith("sim_") and ma != mb:
                flag = "  SIM DIFFERS"
                failures.append(f"{name}: {m} differs between sets")
            elif abs(gap) > metric["bound"]:
                flag = "  OVER BOUND"
                failures.append(f"{name}: {m} gap {gap:+.3f}")
            print(f"{name:14s} {m:18s} {ma:12.6g} {mb:12.6g} "
                  f"{gap:+8.3f} {metric['bound']:6.2f}{flag}")
    return failures


# ----------------------------------------------------------------------


def parse_args(names: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("--workload", choices=names,
                   help="one workload (default: all five)")
    p.add_argument("--seed", type=int, default=0,
                   help="input seed (default 0; hold a claim on seed 1 too)")
    length = p.add_mutually_exclusive_group()
    length.add_argument("--reps", type=int,
                        help=f"untraced repetitions (default {DEFAULT_REPS})")
    length.add_argument("--seconds", type=float,
                        help="time-box the untraced repetitions instead")
    p.add_argument("--trace", choices=("0", "1", "both"), default="both",
                   help="0: end-to-end only; 1: per-layer only (one traced run)")
    p.add_argument("--no-trace", dest="trace", action="store_const",
                   const="0", help="same as --trace 0")
    p.add_argument("--trace-only", dest="trace", action="store_const",
                   const="1", help="same as --trace 1")
    p.add_argument("--aa", action="store_true",
                   help="run two untraced sets back to back and compare them")
    p.add_argument("--quick", action="store_true",
                   help="1 rep of ~10x smaller workloads, all checks + tracer")
    args = p.parse_args()
    if args.reps is None and args.seconds is None:
        args.reps = 1 if args.quick else DEFAULT_REPS
    return args


def main() -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in contract["workloads"]]
    units = {m["name"]: m["unit"]
             for m in contract["end_to_end"] + contract["per_layer"]}
    args = parse_args(names)
    selected = [args.workload] if args.workload else names

    started = time.monotonic()
    nproc = os.cpu_count()
    load_start = os.getloadavg()[0]
    failures: list[str] = []
    results = {}
    aa = None
    if args.aa:
        sets = [
            {n: measure(n, args, contract, trace="0") for n in selected}
            for _ in range(2)
        ]
        results = sets[0]
        aa = {"set_b": sets[1],
              "failures": compare_sets(sets[0], sets[1], contract)}
        failures += aa["failures"] + check_failures(sets[1])
    else:
        drive = run_child("drivers.py") if args.trace != "0" else None
        for name in selected:
            results[name] = measure(
                name, args, contract, trace=args.trace, drive=drive,
            )
    for name, result in results.items():
        report(name, result, units)
    failures += check_failures(results)
    load_end = os.getloadavg()[0]
    manifest = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
        "loadavg_1min": {"start": load_start, "end": load_end,
                         "busy_host": max(load_start, load_end) > nproc},
        "seed": args.seed,
        "reps": args.reps,
        "seconds": args.seconds,
        "quick": args.quick,
        "generator_lateness_s": 0.0,
        "duration_s": time.monotonic() - started,
        "failures": failures,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / "result.json").write_text(json.dumps(
        {"manifest": manifest, "workloads": results, "aa": aa}, indent=1,
    ))
    print(f"\nbenchmark took {manifest['duration_s']:.1f} s; 1-min load "
          f"{load_start:.2f} -> {load_end:.2f} on {nproc} cores"
          + ("  (BUSY HOST: timings suspect)"
             if manifest["loadavg_1min"]["busy_host"] else ""))
    for failure in failures:
        print(f"FAILED: {failure}")
    if args.workload:
        print(driver_line(results[args.workload], units))
    return 1 if failures else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(1)
