"""Import fences: what a pool or shard run loads before it simulates.

Every process of a run pays its imports in start-up time and resident
memory, so the layers a plain run never calls — reporting and plotting,
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
    "repro.analysis.plots",
    "repro.analysis.report",
    "repro.faults.harness",
    "repro.faults.invariants",
    "repro.faults.metrics",
    "repro.faults.schedule",
    "multiprocessing",
    "concurrent.futures",
    "cProfile",
)


def _loaded_by(statement: str) -> set[str]:
    src = os.path.dirname(os.path.dirname(repro.__file__))
    out = subprocess.run(
        [sys.executable, "-c",
         f"import json, sys; {statement}; print(json.dumps(list(sys.modules)))"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    return set(json.loads(out.stdout))


@pytest.mark.parametrize("package", [
    "repro.workload", "repro.shard", "repro.experiments.common",
])
def test_run_packages_leave_unused_layers_unloaded(package):
    loaded = _loaded_by(f"import {package}")
    assert package in loaded
    assert sorted(loaded.intersection(MUST_NOT_LOAD)) == []


def test_package_names_still_import_on_first_use():
    """``from repro.analysis import …`` and ``from repro.faults import …``
    still reach every public name, loading only its own submodule."""
    loaded = _loaded_by(
        "from repro.analysis import jain_fairness; "
        "from repro.faults import LinkDown"
    )
    assert {"repro.analysis.stats", "repro.faults.schedule"} <= loaded
    assert "repro.analysis.plots" not in loaded
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
