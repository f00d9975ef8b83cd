"""Small shared helpers."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable


def thread_map(fn: Callable[[int], None], count: int, workers: int) -> None:
    """Run ``fn(i)`` for ``i in range(count)``, optionally on a thread pool.

    Each call writes to its own output slot, so results are identical for
    any worker count. Threads overlap only where a kernel releases the GIL:
    numpy's FFTs do, scipy's ``ndimage.map_coordinates`` (every spline
    evaluation) does not. On a 2-vCPU VM two threads ran cubic evaluations
    at 65,536 points only 1.04-1.11x faster than one, and ``rfftn``
    1.8-2.3x faster.
    """
    if workers <= 1 or count <= 1:
        for i in range(count):
            fn(i)
        return
    with ThreadPoolExecutor(max_workers=min(workers, count)) as pool:
        list(pool.map(fn, range(count)))
