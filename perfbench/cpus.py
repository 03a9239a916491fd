"""Pick the quietest CPU of a shared host.

On the kind of shared host the benchmark runs on, each virtual CPU is
slowed independently, for milliseconds to seconds at a time, by other
tenants.  A short probe loop on each CPU finds the one running fastest
right now; work started there is more likely to run undisturbed.
"""

from __future__ import annotations

import os
import time

CHILD_PROBE_LOOPS = 100_000  # about 5 ms of bytecode per CPU probed
BLOCK_PROBE_LOOPS = 20_000   # about 1 ms: cheap enough to run before every stream block
# The CPUs to choose from.  A child may already be pinned to one of them
# when it starts, so the parent passes the whole set down.
ENV = "PERFBENCH_CPUS"
CPUS = sorted(int(c) for c in os.environ[ENV].split(",")) if os.environ.get(ENV) \
    else sorted(os.sched_getaffinity(0))


def quiet_cpu(loops: int = CHILD_PROBE_LOOPS) -> int | None:
    """The CPU, of CPUS, on which ``loops`` empty iterations ran fastest;
    None if there is only one.  Leaves this process free to run on all of
    them again."""
    if len(CPUS) < 2:
        return None
    best = None
    for c in CPUS:
        os.sched_setaffinity(0, {c})
        start = time.perf_counter()
        for _ in range(loops):
            pass
        took = time.perf_counter() - start
        if best is None or took < best[0]:
            best = (took, c)
    os.sched_setaffinity(0, CPUS)
    return best[1]


def pin(pid: int, cpu: int | None) -> None:
    """Keep process ``pid`` (0: this one) on ``cpu``; None leaves it free."""
    if cpu is not None:
        try:
            os.sched_setaffinity(pid, {cpu})
        except OSError:  # the child has already exited
            pass
