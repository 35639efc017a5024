"""Deterministic evaluation helpers.

Parallel maps always hand results back in input order, and scalar
accumulations use compensated summation, so a computation produces the same
bytes whether it ran on one thread or many.
"""

from __future__ import annotations


def ordered_map(fn, items, threads: int = 1) -> list:
    """Map fn over items, preserving input order in the result list."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    # imported here: only a pool needs it, and it costs every command ~8 ms
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def kahan_sum(values) -> float:
    """Compensated sequential sum; order-stable by construction."""
    total = 0.0
    carry = 0.0
    for v in values:
        y = float(v) - carry
        t = total + y
        carry = (t - total) - y
        total = t
    return total


def wide_slices(count: int, step: int) -> list[slice]:
    """Slices of range(count), step items each (at least two), with a
    one-item remainder folded into the last slice, so only count 1 gives a
    one-item slice.  numpy sends a one-column product to gemv, with other
    bits than the gemm of a wider block, so a kernel that runs over these
    slices keeps the bits it has on the whole batch."""
    step = max(2, step)
    cuts = [*range(0, max(1, count - 1), step), count]
    return [slice(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
