"""Order statistics for the ledger: every timing is median + quartiles + n."""

from __future__ import annotations

import statistics
from typing import Dict, Sequence


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median, first and third quartile and the sample count.

    Quartiles follow ``statistics.quantiles(values, n=4)`` — the same
    rule the acceptance check applies across runs — and collapse onto
    the single value when only one sample exists.
    """
    values = [float(v) for v in values]
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def paired_ratio(numerators: Sequence[float],
                 denominators: Sequence[float]) -> Dict[str, float]:
    """Median of per-pair ratios, with the yardstick's median as base.

    The two sequences come from calls interleaved in one loop
    (A, yardstick, A, yardstick, ...), so slow drift of the host hits
    both sides of every pair alike and cancels in the ratio.
    """
    if len(numerators) != len(denominators):
        raise ValueError("paired samples must have equal length")
    out = quartiles([a / b for a, b in zip(numerators, denominators)])
    out["base"] = statistics.median(denominators)
    return out
