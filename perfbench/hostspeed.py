"""Host-speed correction for the benchmark's times.

On a shared host the CPU's own speed drifts: the same fixed work takes up to
1.9x longer for stretches of a few seconds to a minute, while the process's
CPU time keeps pace with its wall time (nothing is preempted, the core is
slower). Taken raw, the fastest repetition of a 25-s run varied by 15-35%
between runs of unchanged code, more than any bound worth setting.

So every timed segment (operations run back to back for at least 0.1 s, see
worker.py) is bracketed by probes: a fixed 9-ms mix of the kind of work
nmflow does (single 4x4 Hermitian eigenvalue calls, a small einsum, a
batched eigvalsh over 256 matrices, a pure-Python loop), built from numpy
alone so that no change to nmflow moves it. A segment's time is scaled by
REFERENCE_S / (mean of the probes just before and just after it): the result
is its time on the host running at the speed where the probe takes
REFERENCE_S. The probe times are kept, so the scaling can be audited.

A 0.5-s cold start is too short and too unlike the probe for a per-start
correction (that made setup_s noisier), so run.py scales the median cold
start by the median of all the run's probes, which follows the host's
slower drift.
"""

from __future__ import annotations

import time

import numpy as np

# The probe's time on a quiet 2-core host (Python 3.11.7, numpy 2.4.6), so
# that scaled times read as seconds on that host when it is quiet.
REFERENCE_S = 0.009

# Captured at import, before any tracer patches numpy.linalg, so that probes
# never count towards the traced layers.
_eigvalsh = np.linalg.eigvalsh


class HostSpeed:
    """Probes the host between timed calls and scales their times."""

    def __init__(self):
        rng = np.random.default_rng(20190329)
        small = rng.normal(size=(16, 4, 4)) + 1j * rng.normal(size=(16, 4, 4))
        self._small = small + small.conj().transpose(0, 2, 1)
        batch = rng.normal(size=(256, 4, 4)) + 1j * rng.normal(size=(256, 4, 4))
        self._batch = batch + batch.conj().transpose(0, 2, 1)
        self._kernel = rng.normal(size=(2, 2, 2, 2)) + 0j
        self.probes: list[float] = []
        self._last = self.probe()

    def probe(self) -> float:
        start = time.perf_counter()
        acc = 0.0
        for _ in range(12):
            for m in self._small:
                acc += _eigvalsh(m)[0]
                np.einsum("abce,icjkel->iajkbl", self._kernel, m.reshape(1, 2, 2, 1, 2, 2))
                acc += float(np.trace(m).real)
            acc += float(_eigvalsh(self._batch).sum())
            x = 0
            for i in range(400):
                x += i * i
        return time.perf_counter() - start

    def scale(self, seconds: float) -> float:
        """Probe now and scale `seconds`, just measured, to the reference speed
        using this probe and the one before it."""
        after = self.probe()
        self.probes.append(after)
        scaled = seconds * REFERENCE_S / (0.5 * (self._last + after))
        self._last = after
        return scaled
