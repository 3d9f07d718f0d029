"""Experiment harness: the paper's figures and tables, and the studies
beyond them.

``ALL_EXPERIMENTS`` maps every experiment id to a
:class:`~repro.experiments.paper.Figure`, called as
``run(scale=1.0, seed=0, **options) -> ExperimentResult``; it lives in
:mod:`repro.experiments.paper`, where each paper artefact is one entry
of a table run by one runner.  ``python -m repro.experiments ID``
prints an experiment's table.  Names here load on first use, so
``import repro.experiments`` imports no experiment, and looking up one
id imports only what that id needs.
"""

from repro.common.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "common": (
        "ExperimentResult", "FlowMetrics", "PathSpec", "build_path",
        "run_chain", "scaled_duration",
    ),
    "paper": ("ALL_EXPERIMENTS",),
    "runner": ("RunSpec",),
})
