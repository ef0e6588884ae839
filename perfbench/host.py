"""Host metadata recorded with every run.

The calibration score times a fixed pure-Python loop (dict, list,
integer and string work, the operations the simulator spends its time
on), so a slower or faster machine shows in the score and can be told
apart from a regression in the program.
"""

from __future__ import annotations

import os
import platform
import time
from typing import Dict

#: timed calibration loops; the score is the fastest
CALIBRATION_REPEATS = 3


def _calibration_loop() -> int:
    table: Dict[int, int] = {}
    items = []
    total = 0
    for index in range(200_000):
        key = (index * 2654435761) & 0xFFFF
        table[key] = table.get(key, 0) + index
        items.append(key)
        if index % 7 == 0:
            total += len(str(index))
    items.sort()
    return total + len(table) + items[len(items) // 2]


def calibration_score() -> float:
    """Calibration loops per second, best of ``CALIBRATION_REPEATS``."""
    best = float("inf")
    for _ in range(CALIBRATION_REPEATS):
        started = time.perf_counter()
        _calibration_loop()
        best = min(best, time.perf_counter() - started)
    return 1.0 / best


def host_metadata() -> Dict[str, object]:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "calibration_loops_per_s": calibration_score(),
    }
