"""Largest-remainder apportionment of an integer total."""

from __future__ import annotations


def apportion(total: int, weights: list[int]) -> list[int]:
    """Split integer ``total`` by integer ``weights``, conserving exactly.

    Largest-remainder method: each share gets ``total * w // wsum``, and
    the undistributed remainder goes one unit at a time to the largest
    fractional remainders (ties broken by index, so the result is a pure
    function of the inputs).  Zero or negative total yields all zeros;
    an all-zero weight vector falls back to equal weights.
    """
    n = len(weights)
    if n == 0:
        return []
    if total <= 0:
        return [0] * n
    if any(w < 0 for w in weights):
        raise ValueError("weights must be non-negative")
    wsum = sum(weights)
    if wsum == 0:
        weights = [1] * n
        wsum = n
    base = [total * w // wsum for w in weights]
    remainders = [(total * w) % wsum for w in weights]
    leftover = total - sum(base)
    # Stable ranking: largest remainder first, index breaks ties.
    order = sorted(range(n), key=lambda i: (-remainders[i], i))
    for i in order[:leftover]:
        base[i] += 1
    return base
