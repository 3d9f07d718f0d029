"""Analytical models (paper Sec. II-B), statistics, and run reporting."""

from repro.common.lazy import lazy_exports

# Each public name and the submodule that defines it.  A name is imported
# on first use, so importing one submodule (``repro.analysis.stats``)
# does not load its siblings.
__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "formulas": (
        "end_to_end_plr", "hbh_owd_ratio", "hbh_throughput_gain",
        "mean_owd_e2e", "mean_owd_hbh", "throughput_e2e", "throughput_hbh",
    ),
    "owd_model": (
        "OwdDistribution", "simulate_owd_e2e", "simulate_owd_hbh",
    ),
    "plots": (
        "have_matplotlib", "plot_goodput_cdf", "plot_rate_ladder",
        "plot_recovery_timeline",
    ),
    "report": (
        "cache_efficiency", "ccbench_summary", "churn_summary",
        "content_summary", "event_counts", "rate_ladder",
        "recovery_latency_ms", "recovery_timeline", "run_summary",
        "workload_summary",
    ),
    "stats": (
        "fct_percentiles", "goodput_cdf", "jain_fairness", "percentile",
        "summarize",
    ),
})
