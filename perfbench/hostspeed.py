"""Host-speed calibration, so that a run's times do not follow the machine's load.

The benchmark runs on a few cores of a shared virtual machine whose speed
moves by up to about 1.8x, in phases of seconds to tens of minutes, as other
tenants' load comes and goes; a phase moves CPU-bound loops together, if not
all by the same factor.  So while a pass runs, a one-shot interval timer interrupts it every
``INTERVAL_S`` of wall time and its handler times a fixed calibration slice:
interpreter work, small numpy calls and a small linear solve, the mix that
most of chemowave's time goes to.  The handler runs between bytecodes of the
main thread, so it never splits a numpy call and changes nothing in the
program; the slices' own time is taken out of the pass.

``PassClock.reference_s`` turns the measured seconds into reference seconds:
each piece of work between two slices is scaled by ``REFERENCE_SLICE_S``
over the median time of the ``SPEED_WINDOW`` slices nearest to it, i.e. it is
the time the piece would have taken on a host where one slice takes exactly
``REFERENCE_SLICE_S``.  The median keeps one slice hit by a burst of load
from moving its neighbours.  The raw seconds are kept beside it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.5            # wall time of measured work between two slices
SLICE_REPS = 1000           # rounds of work in one slice
REFERENCE_SLICE_S = 0.04    # a slice's time on the reference host, by definition
SPEED_WINDOW = 6            # slices whose median gives the host speed for one piece

_SMALL = np.linspace(0.1, 1.0, 64)
_MATRIX = np.outer(_SMALL[:16], _SMALL[:16]) + np.eye(16)


def calibration_slice() -> float:
    """One fixed piece of CPU work; returns its wall time in seconds."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(SLICE_REPS):
        y = np.sort(np.sin(_SMALL * (1.0 + 1e-3 * i)))
        acc += float(np.sum(y / (_SMALL + 0.5)))
        acc += float(np.linalg.solve(_MATRIX, _SMALL[:16])[0])
        for j in range(60):
            acc += j * 1e-12
    if not np.isfinite(acc):
        raise FloatingPointError("calibration slice produced a non-finite value")
    return time.perf_counter() - t0


class PassClock:
    """Times one pass of measured work, interleaved with calibration slices.

    Use as a context manager around the pass.  ``pieces_s[i]`` is the work
    between ``slices_s[i]`` and ``slices_s[i + 1]``; there is a slice at the
    start and one at the end.
    """

    def __init__(self, interval_s: float = INTERVAL_S) -> None:
        self.interval_s = interval_s
        self.pieces_s: list[float] = []
        self.slices_s: list[float] = []
        self._mark = 0.0
        self._running = False
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        if not self._running:  # an alarm that was already due when the pass ended
            return
        self.pieces_s.append(time.perf_counter() - self._mark)
        self.slices_s.append(calibration_slice())
        self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.interval_s)

    def __enter__(self) -> "PassClock":
        self.slices_s.append(calibration_slice())
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._running = True
        self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.pieces_s.append(time.perf_counter() - self._mark)
        signal.signal(signal.SIGALRM, self._previous)
        self.slices_s.append(calibration_slice())

    def raw_s(self) -> float:
        return sum(self.pieces_s)

    def reference_s(self) -> float:
        total = 0.0
        for i, piece in enumerate(self.pieces_s):
            # slices i and i + 1 bound piece i; the window is centred on them
            lo = max(0, min(i - SPEED_WINDOW // 2 + 1, len(self.slices_s) - SPEED_WINDOW))
            total += piece * REFERENCE_SLICE_S / statistics.median(self.slices_s[lo : lo + SPEED_WINDOW])
        return total
