"""CPU clocks that leave out the time the hypervisor gives to other machines.

The benchmark runs on a share of a shared host. While another machine runs
on this one's CPU, wall time goes on but no work is done here; Linux counts
that time as steal and charges it to no process. So the timings the
benchmark bounds are CPU seconds: on one core with one closed-loop client,
they are the wall time the operation takes when nothing else wants the CPU.
Wall times are kept next to them in the run record.

- ``proc_cpu``: this process, all threads, to the nanosecond; for
  operations that run in-process (queries, commit cycles).
- ``machine_cpu``: every process of this machine, those that ended too; for
  operations that run Ray tasks or actors, whose worker processes come and
  go. It includes whatever else runs on the machine (about 2% of a core on
  an idle benchmark host).
"""

from __future__ import annotations

import os
import time

import numpy as np

# root cgroup CPU use in ns (v1) or us (v2); both leave out steal
CGROUP_USAGE = (
    ("/sys/fs/cgroup/cpuacct/cpuacct.usage", 1e-9),
    ("/sys/fs/cgroup/cpu.stat", 1e-6),
)
TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def proc_cpu() -> float:
    return time.process_time()


def _cgroup_cpu() -> float | None:
    for path, unit in CGROUP_USAGE:
        try:
            with open(path) as f:
                text = f.read()
        except OSError:
            continue
        if path.endswith("cpu.stat"):  # "usage_usec N" is its first line
            text = text.split()[1]
        return int(text) * unit
    return None


def _stat_cpu() -> float:
    """Busy time of all CPUs from /proc/stat, in clock ticks."""
    with open("/proc/stat") as f:
        v = [int(x) for x in f.readline().split()[1:8]]
    user, nice, system, _idle, _iowait, irq, softirq = v
    return (user + nice + system + irq + softirq) * TICK_S


def machine_cpu() -> float:
    """CPU seconds all processes of this machine have used so far."""
    cpu = _cgroup_cpu()
    return _stat_cpu() if cpu is None else cpu


# a fixed piece of work that shares no code with the engine: dict counting
# over short strings, then a sort, a scan and a binary search of integers
_WORDS = [f"w{(i * 7919) % 997}" for i in range(4000)]
_INTS = np.random.default_rng(0).integers(0, 1 << 20, 16384)


def calibration() -> int:
    """About a millisecond of CPU on an idle core. Timed many times in a
    run, a low percentile of its times tells how fast the host let this
    process run at its best in that run."""
    counts: dict[str, int] = {}
    for w in _WORDS:
        counts[w] = counts.get(w, 0) + 1
    a = np.sort(_INTS)
    return len(counts) + int(np.cumsum(a)[-1] & 1) + int(np.searchsorted(a, _INTS[:2048]).sum() & 1)


class Watch:
    """Wall and CPU time of a block: ``with Watch(machine_cpu) as w: ...``,
    then ``w.wall`` and ``w.cpu``; ``w.lap()`` reads both mid-block."""

    def __init__(self, clock=machine_cpu):
        self.clock = clock
        self.wall = self.cpu = 0.0

    def lap(self) -> tuple[float, float]:
        cpu = self.clock() - self.cpu0
        return time.perf_counter() - self.wall0, cpu

    def __enter__(self) -> "Watch":
        self.cpu0 = self.clock()
        self.wall0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall, self.cpu = self.lap()
