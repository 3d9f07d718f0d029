"""Import fences: what a pool or shard run loads before it simulates.

Every process of a run pays its imports in start-up time and resident
memory, so the layers a plain run never calls — reporting,
the chaos harness, process pools, the profiler — are loaded where they
are used, not by the packages a run imports.  Each check runs in a fresh
interpreter, since this one has imported everything by now.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import repro

#: Modules no import of a run's entry packages may load.
MUST_NOT_LOAD = (
    "repro.analysis.formulas",
    "repro.analysis.owd_model",
    "repro.analysis.report",
    "repro.faults.harness",
    "repro.faults.invariants",
    "repro.faults.metrics",
    "repro.faults.schedule",
    "multiprocessing",
    "concurrent.futures",
    "cProfile",
)

#: The TCP engine and every congestion-control law: a LEOTP run loads none.
TCP_MACHINERY = (
    "repro.tcp.connection",
    *(f"repro.tcp.cc.{law}" for law in (
        "adaptive", "base", "bbr", "cubic", "hybla", "orbcc", "pcc",
        "vegas", "westwood",
    )),
)

#: A short pool run; it prints the modules the pool's construction loaded.
_POOL_RUN = (
    "from repro.netsim.topology import uniform_chain_specs; "
    "from repro.simcore import RngRegistry, Simulator; "
    "from repro.workload import FlowPool, WorkloadSpec; "
    "sim = Simulator(); "
    "spec = WorkloadSpec(arrival='poisson', rate_per_s=50.0, n_flows=5, "
    "mean_size_bytes=4000, max_size_bytes=8000); "
    "before = set(sys.modules); "
    "pool = FlowPool(sim, RngRegistry(0), spec=spec, "
    "hops=uniform_chain_specs(2, rate_bps=20e6, delay_s=0.004), "
    "protocol={protocol!r}); "
    "built = sorted(set(sys.modules) - before); "
    "sim.run(until=1.0); pool.finalize(); "
    "assert pool.completed == 5, pool.completed; "
    "print(json.dumps(built))"
)


def _run(statement: str) -> list:
    """The JSON lines ``statement`` prints in a fresh interpreter, parsed."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    out = subprocess.run(
        [sys.executable, "-c", f"import json, sys; {statement}"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    return [json.loads(line) for line in out.stdout.splitlines()]


def _loaded_by(statement: str) -> set[str]:
    return set(_run(f"{statement}; print(json.dumps(list(sys.modules)))")[-1])


@pytest.mark.parametrize("package", [
    "repro.workload", "repro.shard", "repro.experiments.common",
])
def test_run_packages_leave_unused_layers_unloaded(package):
    loaded = _loaded_by(f"import {package}")
    assert package in loaded
    assert sorted(loaded.intersection(MUST_NOT_LOAD)) == []
    assert sorted(loaded.intersection(TCP_MACHINERY)) == []


def test_looking_up_a_chain_figure_loads_no_constellation():
    """The paper table loads an entry's dependencies when it runs: Fig. 2
    needs neither ``networkx`` nor the constellation model."""
    loaded = _loaded_by(
        "from repro.experiments import ALL_EXPERIMENTS; "
        "ALL_EXPERIMENTS['fig02']"
    )
    assert "repro.experiments.paper" in loaded
    assert {"networkx", "repro.constellation"}.isdisjoint(loaded)


def test_a_leotp_pool_run_loads_no_tcp_machinery():
    """A LEOTP flow pool builds, runs and finishes without ever loading
    the TCP engine or a congestion-control law."""
    _, loaded = _run(
        _POOL_RUN.format(protocol="leotp")
        + "; print(json.dumps(list(sys.modules)))"
    )
    assert sorted(set(loaded).intersection(TCP_MACHINERY)) == []


def test_a_tcp_pool_loads_its_machinery_when_built():
    """A TCP pool loads the engine and its own law while it is
    constructed, not at its first spawn inside the run's timed region,
    and no other law: ``base`` is the interface every law extends."""
    (built,) = _run(_POOL_RUN.format(protocol="bbr"))
    assert sorted(set(built).intersection(TCP_MACHINERY)) == [
        "repro.tcp.cc.base", "repro.tcp.cc.bbr", "repro.tcp.connection",
    ]


def test_package_names_still_import_on_first_use():
    """``from repro.analysis import …`` and ``from repro.faults import …``
    still reach every public name, loading only its own submodule."""
    loaded = _loaded_by(
        "from repro.analysis import jain_fairness; "
        "from repro.faults import LinkDown"
    )
    assert {"repro.analysis.stats", "repro.faults.schedule"} <= loaded
    assert "repro.faults.harness" not in loaded
    import repro.analysis
    import repro.faults

    for package in (repro.analysis, repro.faults):
        for name in package.__all__:
            assert getattr(package, name).__module__.startswith(
                package.__name__ + "."
            )
        assert set(package.__all__) <= set(dir(package))
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            package.nope
