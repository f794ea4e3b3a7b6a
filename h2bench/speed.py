"""Cancel machine-speed drift out of wall times.

On a small shared host the speed of the CPU drifts by up to 1.5x over
seconds to minutes, so raw wall times of the same code differ between runs
far more than any change worth measuring. Each timed sample is therefore
taken next to a reference of fixed work whose time tracks the drift, and
reported at a nominal speed:

    sample * nominal / median(reference times around the sample)

References: ``kernel`` (fixed pure-Python work: frozen dataclasses, float
rounding, an indented ``json.dumps`` of about 230 KB) for in-process
samples, and the wall time of ``python -c pass`` for child processes and
set-up. The nominal values are those references on a quiet 2-core x86-64
host with Python 3.11, so a rescaled time reads as wall time on that host.
The raw wall times are kept next to the rescaled ones in each run's record.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from dataclasses import dataclass

KERNEL_NOMINAL_MS = 15.0
BARE_NOMINAL_MS = 50.0
WINDOW = 9  # references per local speed estimate


@dataclass(frozen=True)
class _Row:
    key: str
    x: float
    y: float

    def __post_init__(self) -> None:
        if self.x < 0.0 or self.y < 0.0:
            raise ValueError(self.key)


def kernel() -> float:
    """Run the reference work once; its wall time in milliseconds."""
    gc.collect()
    t0 = time.perf_counter()
    rows = [_Row(f"R{i}", (i * 0.37) % 7.1, i * 0.013) for i in range(4000)]
    json.dumps([{"k": r.key, "x": round(r.x, 4), "y": round(r.y, 4)}
                for r in rows], indent=2, sort_keys=True)
    return (time.perf_counter() - t0) * 1e3


def rescale(samples: list[float], refs: list[float], nominal: float) -> list[float]:
    """samples[i] at nominal speed, refs[i] being the reference taken with it."""
    half = WINDOW // 2
    return [x * nominal / statistics.median(refs[max(0, i - half):i + half + 1])
            for i, x in enumerate(samples)]
