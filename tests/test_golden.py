"""Golden-band regression fence for the headline figures.

``benchmarks/golden.json`` pins the current tree's deterministic fig02
and fig10 summary rows inside per-figure tolerance bands (the
``band_pct`` field; fig10 is tightened to ±6 % now that its numbers
are attributed — see below).  Experiments are seeded and
single-threaded, so an in-band-but-moved value means a benign numeric
refactor and an out-of-band value means the *model* changed — which is
either a bug or a deliberate change that must regenerate the bands::

    PYTHONPATH=src python tests/test_golden.py   # rewrites golden.json

Note the bands encode *tree* behaviour, not the paper's targets.  The
fig10 LEOTP bands were re-taken once, downward, when a Responder's
re-serve damping window became its own echoed hopRTT (DESIGN.md §6):
under the old fixed 0.15 s window, widened by the sending buffer's
drain time, a Midnode's cache re-serve was suppressed and the hole
waited for the Consumer's timeout, so LEOTP's recovery cost read
191-244 ms at scale 0.12; it now reads 46-78 ms (guard off: 54-85
ms).  EXPERIMENTS.md's Fig. 10 row holds the bisect.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.experiments import ALL_EXPERIMENTS

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "..", "benchmarks", "golden.json"
)

with open(GOLDEN_PATH) as fh:
    GOLDEN = json.load(fh)


@pytest.mark.parametrize("figure", sorted(GOLDEN["figures"]))
def test_figure_rows_inside_golden_bands(figure):
    spec = GOLDEN["figures"][figure]
    result = ALL_EXPERIMENTS[figure](
        scale=GOLDEN["scale"], seed=GOLDEN["seed"]
    )
    seen = {}
    for row in result.rows:
        label = "/".join(str(row[k]) for k in spec["key"])
        seen[label] = row[spec["metric"]]

    assert set(seen) == set(spec["bands"]), (
        f"{figure}: row set changed — regenerate benchmarks/golden.json "
        f"if deliberate"
    )
    out_of_band = {
        label: (value, spec["bands"][label])
        for label, value in seen.items()
        if not spec["bands"][label][0] <= value <= spec["bands"][label][1]
    }
    assert not out_of_band, (
        f"{figure} {spec['metric']} drifted outside golden bands "
        f"(value, [lo, hi]): {out_of_band}"
    )


def _regenerate() -> None:
    """Rebuild every band as current-value ± its ``band_pct`` (same
    scale/seed/keys; ``band_pct`` defaults to 10)."""
    for figure, spec in GOLDEN["figures"].items():
        result = ALL_EXPERIMENTS[figure](
            scale=GOLDEN["scale"], seed=GOLDEN["seed"]
        )
        frac = spec.get("band_pct", 10) / 100.0
        spec["bands"] = {
            "/".join(str(row[k]) for k in spec["key"]): [
                round(row[spec["metric"]] * (1 - frac), 3),
                round(row[spec["metric"]] * (1 + frac), 3),
            ]
            for row in result.rows
        }
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(GOLDEN, fh, indent=2)
        fh.write("\n")
    print(f"regenerated {GOLDEN_PATH}")


if __name__ == "__main__":
    _regenerate()
