"""Host-speed reference: timings in milliseconds of a fixed reference host.

On a shared machine the same CPU-bound Python work runs up to a quarter
faster or slower from one half-minute to the next, and every op of a run
moves with it.  To keep that drift out of the figures, the benchmark runs a
fixed pure-Python reference chunk, which exercises no code of the package,
after every op (outside the op's timed region) and rescales each op's time by
how fast the host ran the chunk around that op:

    normalized = raw * NOMINAL_SECONDS / median(nearby chunk times)

A change to the package moves the op times and leaves the chunk alone, so
it shows in the normalized figures; a host that slows everything down moves
both and cancels out.  :data:`NOMINAL_SECONDS` is the chunk's time on the
reference host (2 vCPU x86-64 at 2.0 GHz, CPython 3.11), so normalized
figures read as milliseconds on that host.
"""

from __future__ import annotations

import statistics
import time

#: Reference-chunk seconds on the reference host (see the module docstring).
NOMINAL_SECONDS = 0.0014
#: Chunk samples on each side of an op that set its scale.
WINDOW = 8


def reference_chunk() -> float:
    """Run the fixed reference work once; returns its seconds.

    The mix (dict and list building, tuple keys, integer arithmetic, method
    and function calls) resembles the interpreter work of the workloads.
    """
    started = time.perf_counter()
    table: dict[tuple[int, int], int] = {}
    items: list[int] = []
    for i in range(2400):
        key = (i % 17, i // 17)
        table[key] = table.get(key, 0) + i * 3 % 11
        items.append(_mix(i, key[0]))
    items.append(sum(table.values()))
    items.sort()
    return time.perf_counter() - started


def _mix(a: int, b: int) -> int:
    return (a * 31 + b) % 97


class SpeedTrack:
    """Chunk times sampled between ops; :meth:`scale` rescales op ``i``."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        self.samples.append(reference_chunk())

    def scale(self, index: int) -> float:
        """``NOMINAL_SECONDS`` over the median chunk time around sample
        ``index`` (the chunk run right after op ``index``)."""
        low = max(0, index - WINDOW)
        window = self.samples[low : index + WINDOW + 1]
        return NOMINAL_SECONDS / statistics.median(window)

    def overall(self) -> float:
        """The scale over every sample of the run."""
        return NOMINAL_SECONDS / statistics.median(self.samples)
