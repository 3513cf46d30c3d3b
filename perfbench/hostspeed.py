"""Host speed index: a fixed calibration loop, timed between samples.

On a shared host the CPU speed one process gets swings by a third or more,
in phases that last minutes. CPU time swings with wall time, so the cause is
the host, not scheduling. Identical work took 0.6 s in one 25-second window
and 1.05 s in another. A run's own figures cannot average that away, so each
run also times this loop and reports times scaled to a reference host speed:
a time at reference speed is the measured time divided by
``mean(loop time) / REFERENCE_S``. The loop does not touch d2dgames, so no
change to the program can move it. Its mix follows the program: integer
arithmetic, dict inserts with tuple keys, small numpy calls and CSV-style
float formatting. On the reference host, this mix tracked the swings of both
the content and the pricing-power samples better than any part of it alone.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Wall seconds of one loop on the reference host (2-core Intel Xeon VM,
# Python 3.11, numpy 2.4) in a fast phase.
REFERENCE_S = 0.030
# A run measures the loop at least this often, between samples.
EVERY_S = 0.5

_MATRIX = np.random.default_rng(0).random((64, 64))
_FLOATS = [float(x) for x in np.random.default_rng(1).random(10_000)]


def _loop() -> int:
    x = 0
    for i in range(50_000):
        x += i * i % 7
    table = {}
    for i in range(10_000):
        table[(("ue", i & 31), ("cue", i >> 5), i & 7)] = float(i)
    acc = sum(table.values())
    for _ in range(150):
        acc += float((_MATRIX @ _MATRIX[0])[0]) + float(np.log2(1.0 + _MATRIX[1])[0])
    rows = [",".join((repr(v), repr(v * acc), str(i))) for i, v in enumerate(_FLOATS)]
    return x + len("\n".join(rows))


def measure() -> tuple[float, float]:
    """Wall and CPU seconds of one calibration loop."""
    w0, c0 = time.perf_counter(), time.process_time()
    _loop()
    return time.perf_counter() - w0, time.process_time() - c0


class Index:
    """Calibration timings of one run; ``wall``/``cpu`` are slowdowns vs the reference."""

    def __init__(self):
        self.times: list[tuple[float, float]] = []
        self._due = 0.0

    def measure(self) -> None:
        self.times.append(measure())
        self._due = time.perf_counter() + EVERY_S

    def measure_if_due(self) -> None:
        """Measure when ``EVERY_S`` seconds have passed since the last measurement."""
        if time.perf_counter() >= self._due:
            self.measure()

    @property
    def wall(self) -> float:
        return statistics.fmean(w for w, _ in self.times) / REFERENCE_S

    @property
    def cpu(self) -> float:
        return statistics.fmean(c for _, c in self.times) / REFERENCE_S
