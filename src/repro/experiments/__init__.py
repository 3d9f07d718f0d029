"""Experiment harness: one module per figure/table of the paper.

Every module exposes ``run(scale=1.0, seed=0) -> ExperimentResult``; run a
module directly (``python -m repro.experiments.fig12_plr_throughput``) to
print its table.  ``ALL_EXPERIMENTS`` maps experiment ids to their run
callables for programmatic sweeps; a module is imported when its id is
first looked up.
"""

from collections.abc import Callable, Iterator, Mapping
from importlib import import_module

from repro.experiments.common import (
    ExperimentResult,
    FlowMetrics,
    PathSpec,
    build_path,
    run_chain,
    scaled_duration,
)
from repro.experiments.runner import RunSpec


class _ExperimentRegistry(Mapping):
    """Read-only ``id -> run callable`` map that imports on lookup.

    Holding module *names* keeps ``import repro.experiments`` (paid by
    every CLI call, ``--jobs`` worker and benchmark child) from importing
    all the experiment modules and their dependencies (``networkx`` via
    the constellation studies) to run one of them.
    """

    def __init__(self, modules: dict[str, str]) -> None:
        self._modules = modules

    def __getitem__(self, name: str) -> Callable:
        module = self._modules[name]
        return import_module(f"{__name__}.{module}").run

    def __contains__(self, name: object) -> bool:
        return name in self._modules  # Mapping's default would import it

    def __iter__(self) -> Iterator[str]:
        return iter(self._modules)

    def __len__(self) -> int:
        return len(self._modules)


ALL_EXPERIMENTS: Mapping[str, Callable] = _ExperimentRegistry({
    "fig01": "fig01_bandwidth",
    "fig02": "fig02_plr_hops",
    "fig03": "fig03_owd_model",
    "fig04": "fig04_split_tradeoff",
    "fig05": "fig05_fluctuation",
    "fig10": "fig10_retx_owd",
    "fig11": "fig11_retx_traffic",
    "fig12": "fig12_plr_throughput",
    "fig13": "fig13_link_switching",
    "fig14": "fig14_fluctuation_tradeoff",
    "fig15": "fig15_fairness",
    "fig16": "fig16_starlink_no_isl",
    "fig17": "fig17_starlink_isl",
    "fig18": "fig18_city_pairs",
    "fig19": "fig19_cpu_overhead",
    "table2": "table2_ablation",
    "ablation_vph": "ablation_vph",
    "ablation_params": "ablation_parameters",
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

__all__ = [
    "ALL_EXPERIMENTS",
    "ExperimentResult",
    "FlowMetrics",
    "PathSpec",
    "RunSpec",
    "build_path",
    "run_chain",
    "scaled_duration",
]
