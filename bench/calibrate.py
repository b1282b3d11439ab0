"""Host-speed calibration for the benchmark's timings.

On a shared host the same single-threaded Python code runs at different
speeds from one minute to the next: whatever else shares the physical core
slows it by up to half, in phases that last from seconds to minutes, longer
than a run. Averaging over a run cannot remove that, so the benchmark
measures the host's speed while the program runs and reports its times in
reference seconds.

While a ``Calibrator`` measures, a real-time interval timer interrupts the
program every ``INTERVAL_S`` and the signal handler times one fixed slice of
pure-Python work. The slices run on the same core, interleaved with the
program, so their mean time tracks how fast the host ran the program over
the same interval. The slice is frozenset algebra, the kind of work the
package does most: of the slices tried (integer arithmetic, big-integer
shifts, dict lookups in a large table, attribute reads, mixed container
code, JSON, recursion) it followed the program's speed most closely on the
``audit`` and ``market`` workloads. It uses nothing from the package, so a
change to the package cannot move it. A measurement reports

- ``seconds``: wall time minus the time spent in slices, i.e. the program's
  own wall time;
- ``slowdown``: the slices' mean time over ``REFERENCE_SLICE_S``;
- ``reference_seconds``: ``seconds / slowdown``, the time the program would
  have taken at the reference speed.

A measurement too short to catch ``MIN_SLICES`` slices takes the missing ones
right after it. A disabled calibrator (the traced runs) takes no slices and
reports wall time with a slowdown of 1.
"""

from __future__ import annotations

import random
import signal
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

INTERVAL_S = 0.05
MIN_SLICES = 5
# One slice's time on an unloaded core (the 1st percentile of 3 000 slices):
# Intel Xeon (Sapphire Rapids) KVM guest, CPython 3.11. Only ratios between
# runs on one host mean anything.
REFERENCE_SLICE_S = 0.0009

_rng = random.Random(0)
_SETS = tuple(frozenset(_rng.sample(range(200), 12)) for _ in range(200))


def _slice() -> int:
    acc = frozenset()
    for s in _SETS:
        acc = (acc | s) - _SETS[len(acc) % len(_SETS)]
    return len(acc)


@dataclass
class Measurement:
    """Program wall seconds, and the slices taken while they were measured."""

    seconds: float = 0.0
    slices: int = 0
    slice_seconds: float = 0.0

    @property
    def slowdown(self) -> float:
        if not self.slices:
            return 1.0
        return self.slice_seconds / self.slices / REFERENCE_SLICE_S

    @property
    def reference_seconds(self) -> float:
        return self.seconds / self.slowdown

    def __add__(self, other: "Measurement") -> "Measurement":
        return Measurement(
            self.seconds + other.seconds,
            self.slices + other.slices,
            self.slice_seconds + other.slice_seconds,
        )

    def as_dict(self) -> dict:
        return {"seconds": self.seconds, "slices": self.slices, "slice_seconds": self.slice_seconds}


def total(measurements) -> Measurement:
    """The measurements pooled: summed seconds, slowdown over all slices."""
    pooled = Measurement()
    for m in measurements:
        pooled = pooled + m
    return pooled


class Calibrator:
    """Measures wall time with interleaved calibration slices; measurements
    may nest, and the timer runs while any of them is open."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.slices = 0
        self.slice_seconds = 0.0
        self._depth = 0
        self._previous_handler = None

    def _take_slice(self, *_signal_args) -> None:
        start = perf_counter()
        _slice()
        self.slice_seconds += perf_counter() - start
        self.slices += 1

    def _start_timer(self) -> None:
        self._previous_handler = signal.signal(signal.SIGALRM, self._take_slice)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def _stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    @contextmanager
    def measure(self):
        """``with calibrator.measure() as m:`` fills ``m`` when the block ends."""
        m = Measurement()
        if not self.enabled:
            start = perf_counter()
            try:
                yield m
            finally:
                m.seconds = perf_counter() - start
            return
        if self._depth == 0:
            self._start_timer()
        self._depth += 1
        slices, slice_seconds, start = self.slices, self.slice_seconds, perf_counter()
        try:
            yield m
        finally:
            wall = perf_counter() - start
            m.seconds = wall - (self.slice_seconds - slice_seconds)
            self._depth -= 1
            if self._depth == 0:
                self._stop_timer()
            while self.slices - slices < MIN_SLICES:
                self._take_slice()
            m.slices = self.slices - slices
            m.slice_seconds = self.slice_seconds - slice_seconds
