"""Machine-speed reference: how fast this machine runs a fixed task right now.

The benchmark's host is a shared VM whose speed swings by up to 2x, in
stretches of seconds to minutes, with no steal time to show for it. So
every timed call is paired with a probe that times a fixed reference task
at the same moment, and the call's time is scaled by ``NOMINAL_S[kind] /
probe``: the time the call would take at the reference speed. The
reference tasks are the benchmark's own code and third-party imports, so
a change to the program cannot move them.

* ``probe()`` runs in the benchmark's process, before and after each
  in-process call and, through ``Sampler``, every tenth of a second during
  it: dictionary work and small matrix products, like the program's own
  hot paths.
* ``fresh_probe(env)`` starts a fresh interpreter that imports numpy, just
  before each fresh-process call. Process start, dynamic loading and
  page faults slow down differently from in-process work, and only a
  fresh process tracks them.
"""

import signal
import subprocess
import sys
from time import perf_counter

# Time of each reference task at the reference speed: a 2-vCPU Intel Xeon
# VM (Python 3.11, numpy 2.4 with OpenBLAS 0.3.31) in its fast stretches.
NOMINAL_S = {"mixed": 4.0e-4, "fresh": 0.14}
FRESH_TASK = (sys.executable, "-c", "import numpy")
_REPEATS = 7
_SAMPLE_EVERY_S = 0.1
_ARRAYS: list = []


def _task() -> None:
    import numpy as np

    if not _ARRAYS:
        rng = np.random.default_rng(0)
        _ARRAYS[:] = [rng.standard_normal((10, 64)), rng.standard_normal((64, 64))]
    a, w = _ARRAYS
    counts: dict[int, int] = {}
    for i in range(2000):
        key = i & 127
        counts[key] = counts.get(key, 0) + i
    for _ in range(30):
        np.tanh(a @ w).sum()


def probe(repeats: int = _REPEATS) -> float:
    """Seconds the in-process reference task takes now: the median of ``repeats`` runs."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        _task()
        times.append(perf_counter() - start)
    return sorted(times)[repeats // 2]


class Sampler:
    """Probes the speed every tenth of a second while a call runs.

    A SIGALRM handler runs the probe in the main thread between the call's
    own bytecodes; ``spent`` is the time the handler took, which the caller
    subtracts from the call's time. Inactive, it records nothing.
    """

    def __init__(self, active: bool = True) -> None:
        self.active = active
        self.samples: list[float] = []
        self.spent = 0.0

    def _handler(self, signum, frame) -> None:
        start = perf_counter()
        self.samples.append(probe(3))
        self.spent += perf_counter() - start

    def __enter__(self) -> "Sampler":
        if self.active:
            self._previous = signal.signal(signal.SIGALRM, self._handler)
            signal.setitimer(signal.ITIMER_REAL, _SAMPLE_EVERY_S, _SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)


def fresh_probe(env: dict, timeout: float) -> float:
    """Wall seconds of a fresh interpreter that imports numpy."""
    start = perf_counter()
    subprocess.run(FRESH_TASK, env=env, check=True, capture_output=True, timeout=timeout)
    return perf_counter() - start


def at_reference(seconds: float, probe_s: float, kind: str) -> float:
    """``seconds`` measured while the reference task took ``probe_s``,
    stated at the reference speed."""
    return seconds * NOMINAL_S[kind] / probe_s
