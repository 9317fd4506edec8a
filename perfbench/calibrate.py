"""Host-speed sampling during a measured run.

On a shared host the CPU a run lands on is slowed by its neighbours by
up to a half and more, in spells that flip within seconds and last up to
minutes.  The program's time moves with it, and so does a fixed
interpreter-bound loop's.  :class:`Sampler` times such a loop every
:data:`PERIOD_S` seconds of the run, from a ``SIGALRM`` handler in the
run's own thread, so the samples see exactly the moments and the CPU the
program sees.  ``child.py`` divides the run's times by the host's mean
slowdown over the whole run (mean sample / :data:`REFERENCE_S`), which
gives seconds of the reference host.  (Not phase by phase: the set-up
is partly file and kernel work, which contention slows less, and its
few samples would over-correct it.)  It also takes the samples' own
time out of the run's times, so they cost the figures nothing but the
signal delivery.

The loop uses only the standard library and nothing of the program, so
a change to the program cannot move it; and the handler touches no
state of the program, so the run's results are bit-identical with or
without it.
"""

from __future__ import annotations

import signal
import time
from typing import List

#: seconds between samples
PERIOD_S = 0.025
#: iterations of the sampled loop (about 0.3 ms)
LOOP_N = 2_000
#: the loop's median time on the host the benchmark was tuned on (2-vCPU
#: x86_64 Xeon VM, Python 3.11), so scaled times stay near raw seconds
REFERENCE_S = 0.00035


def _loop(n: int) -> int:
    total = 0
    counts = {}
    for i in range(n):
        total += i * i % 7
        key = i % 97
        counts[key] = counts.get(key, 0) + 1
    return total + len(counts)


class Sampler:
    """Times :func:`_loop` on every ``SIGALRM`` between :meth:`start` and
    :meth:`stop`; ``spent`` is the samples' total time."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        started = time.perf_counter()
        _loop(LOOP_N)
        took = time.perf_counter() - started
        self.samples.append(took)
        self.spent += took

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def slowdown(self) -> float:
        """The host's mean slowdown against the reference host."""
        return sum(self.samples) / len(self.samples) / REFERENCE_S
