"""Host-speed probe: a tiny fixed kernel that a sample runs every few milliseconds.

On a shared host the time one process needs changes by a factor of up to
about 1.7 from one second to the next, for two reasons the program has no
part in:

- steal: the hypervisor runs something else on the vCPU. The guest kernel
  counts it per CPU in ``/proc/stat``; ``run.py`` pins the samples to one
  CPU, so the steal of that CPU over a phase is the steal the phase suffered
  (``steal_s``).
- speed: while it runs, the vCPU runs slower or faster, depending on what
  the other tenants of the same physical core do. Each vCPU changes on its
  own, so neither a calibration run between samples nor one on the other
  core tracks it. The probe therefore runs inside the sample, from a
  ``SIGALRM`` handler every ``INTERVAL_S``: it times a fixed kernel in CPU
  time (so steal does not count twice), on the same core, at the same
  moments as the program.

The kernel uses nothing of screwclock, so no change to the program can move
it. It mixes interpreted Python with small objects and float formatting
(always) and numpy calls on tiny arrays (once numpy is imported), the kinds
of work the workloads do. A sample reports each timed phase (set-up,
commands) as ``(seconds - steal - probe time) * REFERENCE_S / t``, where
``t`` is the harmonic mean of the phase's probe times: the phase's time at
the reference host speed, without steal.
"""

from __future__ import annotations

import os
import signal
import sys
import time

INTERVAL_S = 0.02
# A phase shorter than this many timer ticks is probed again right after it
# ends, outside its timed interval, so that every phase has enough probe times.
MIN_PROBES = 5

# Probe CPU time, in seconds, on the 2-core x86-64 host the benchmark was
# tuned on, in its faster state. Constants: changing one rescales every
# reported time of its phase. Set-up runs the pure-Python part only.
REFERENCE_S = {"setup": 0.00017, "commands": 0.00043}

_TICKS_PER_S = os.sysconf("SC_CLK_TCK")


def steal_s() -> float:
    """Seconds stolen from the one CPU this process is pinned to, since boot.

    0.0 where the kernel does not report steal (no hypervisor, or an
    unpinned process).
    """
    cpus = os.sched_getaffinity(0)
    if len(cpus) != 1:
        return 0.0
    label = f"cpu{next(iter(cpus))}"
    try:
        with open("/proc/stat") as stat:
            for line in stat:
                fields = line.split()
                if fields[0] == label:
                    return int(fields[8]) / _TICKS_PER_S if len(fields) > 8 else 0.0
    except OSError:
        pass
    return 0.0


def _python_part() -> int:
    x = 0
    for i in range(800):
        x += i * i % 7
    rows = [(i, f"{i * 1.000001:.9g}") for i in range(120)]
    return x + len(",".join(row[1] for row in rows))


class _NumpyPart:
    def __init__(self, np):
        self._np = np
        self._head = np.array([[0.6, 0.8], [1.0, 0.0], [0.0, 1.0], [0.8, 0.6]])
        self._clock = np.ones((4, 8, 2))

    def __call__(self) -> float:
        np, total = self._np, 0.0
        for i in range(12):
            w_up = np.abs(self._head[:, 1])
            aligned = w_up <= 1e-12
            self._clock[aligned, i % 8, 1] *= -1.0
            total += float(np.sum(w_up))
        return total


class Probe:
    """Times the kernel from a signal handler between ``start`` and ``stop``."""

    def __init__(self):
        self.times: dict[str, list[float]] = {"setup": [], "commands": []}
        self._extra: dict[str, list[float]] = {"setup": [], "commands": []}
        self._phase = "setup"
        self._numpy_part = None

    def _kernel(self) -> float:
        t0 = time.thread_time()
        _python_part()
        if self._numpy_part is not None:
            self._numpy_part()
        return time.thread_time() - t0

    def _tick(self, signum, frame):
        self.times[self._phase].append(self._kernel())

    def _top_up(self):
        extra = self._extra[self._phase]
        while len(self.times[self._phase]) + len(extra) < MIN_PROBES:
            extra.append(self._kernel())

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def enter_commands(self):
        """Switch to the command phase; numpy must be imported by now."""
        self._top_up()
        self._numpy_part = _NumpyPart(sys.modules["numpy"])
        self._phase = "commands"

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._top_up()

    def typical(self, phase: str) -> float:
        """Harmonic mean of the probe times of ``phase``.

        The ticks come at even wall-clock intervals and the work done per
        second is proportional to 1 / (probe time), so this is the probe time
        at the phase's time-averaged speed. A median would miss how long the
        host spent in its slower state once that is under half of the phase.
        """
        times = self.times[phase] + self._extra[phase]
        return len(times) / sum(1.0 / t for t in times)

    def scale(self, phase: str, seconds: float, steal: float = 0.0) -> float:
        """``seconds`` of ``phase`` without ``steal`` and probe time, at the reference speed."""
        busy = seconds - steal - sum(self.times[phase])
        return busy * REFERENCE_S[phase] / self.typical(phase)
