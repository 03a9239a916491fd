"""Warm library stream: one client calling ``map`` then ``lift`` in a closed
loop, in a fresh interpreter.

    printf '2\n3\n' | PYTHONPATH=src python3 perfbench/stream.py --n 5 --seed 1

Set-up imports the library and runs one chart and one off-chart
round-trip, so every lazy table is built; the worker then prints
``ready``.  With ``--setup-only`` it stops there.  Otherwise each
line on standard input is a number of seconds to run the seeded inputs
for, answered with ``ok``; at end of input it prints one JSON line of
results.  ``--trace RUN_ID`` records a span around every library call.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import sys
import time
from types import SimpleNamespace

import sampler
from cpus import BLOCK_PROBE_LOOPS, pin, quiet_cpu
from tracing import Tracer

POOL = 1536  # inputs generated before timing, then cycled; 15 valid ones lie beyond p99
BLOCK = 32  # inputs timed together for throughput; see Blocks
PIN_EVERY = 4  # blocks run between moves to the quietest CPU
INVALID_SHARE = 0.02
MAX_FAILURES_SHOWN = 5


def load_library(tr: Tracer | None):
    idx = tr.begin("setup.import") if tr else None
    from lgrpauli.pauli import (CommutationError, NotMaximalError, PauliPoint,
                                generator_from_operators)
    from lgrpauli.pluecker import embed
    from lgrpauli.projection import NotInImageError, ProjPoint, lift, project, to_observable
    if tr:
        tr.end(idx)
    return SimpleNamespace(
        CommutationError=CommutationError, NotMaximalError=NotMaximalError,
        NotInImageError=NotInImageError, PauliPoint=PauliPoint, ProjPoint=ProjPoint,
        generator_from_operators=generator_from_operators, embed=embed,
        project=project, to_observable=to_observable, lift=lift)


def map_op(lib, labels, tr: Tracer | None):
    """labels -> (canonical generator, projected point, observable label)."""
    if tr is None:
        g = lib.generator_from_operators([lib.PauliPoint.from_label(s) for s in labels])
        p = lib.project(lib.embed(g))
        return g, p, lib.to_observable(p).label()
    g = tr.call("pauli.from_operators", lambda: lib.generator_from_operators(
        [lib.PauliPoint.from_label(s) for s in labels]))
    v = tr.call("pluecker.embed", lib.embed, g)
    p = tr.call("projection.project", lib.project, v)
    return g, p, tr.call("projection.to_observable", lambda: lib.to_observable(p).label())


def lift_op(lib, p, tr: Tracer | None):
    if tr is None:
        return lib.lift(p)
    return tr.call("projection.lift_chart" if p.bits & 1 else "projection.lift_offchart",
                   lib.lift, p)


def quantile(sorted_values, q: float):
    """Nearest-rank quantile of a sorted list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Stream:
    """Runs stream inputs and keeps latencies, counts and failures."""

    def __init__(self, lib, n: int, tr: Tracer | None):
        self.lib, self.n, self.tr = lib, n, tr
        self.map_ns: list[int] = []
        self.lift_ns: list[int] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.chart_lifts = 0
        self.rejections = 0

    def run(self, it: sampler.Item) -> None:
        self.attempted += 1
        try:
            problem = self._valid(it) if it.kind == sampler.VALID else self._invalid(it)
        except Exception as e:  # noqa: BLE001 - any exception is a failed op
            problem = f"unexpected {type(e).__name__}: {e}"
        if problem:
            self.failures.append(f"{it.kind} {it.labels or hex(it.point)}: {problem}")

    def _valid(self, it: sampler.Item) -> str | None:
        lib, tr = self.lib, self.tr
        op = tr.begin("stream.op") if tr else None
        try:
            t0 = time.perf_counter_ns()
            g, p, obs = map_op(lib, it.labels, tr)
            t1 = time.perf_counter_ns()
            back = lift_op(lib, p, tr)
            t2 = time.perf_counter_ns()
        finally:
            if tr:
                tr.end(op)
        self.map_ns.append(t1 - t0)
        self.lift_ns.append(t2 - t1)
        self.chart_lifts += p.bits & 1
        if p.bits != it.bits or obs != it.obs:
            return f"map gave {p.bits:#x} {obs}, expected {it.bits:#x} {it.obs}"
        if back != g:
            return "lift did not return the canonical generator"
        return None

    def _invalid(self, it: sampler.Item) -> str | None:
        lib, tr = self.lib, self.tr
        if it.kind == sampler.OFF_IMAGE:
            expected = lib.NotInImageError
            call = lambda: lift_op(lib, lib.ProjPoint(self.n, it.point), tr)  # noqa: E731
        else:
            expected = lib.CommutationError if it.kind == sampler.NONCOMMUTING else lib.NotMaximalError
            call = lambda: map_op(lib, it.labels, tr)  # noqa: E731
        op = tr.begin("stream.op") if tr else None
        try:
            call()
        except expected:
            self.rejections += 1
            return None
        finally:
            if tr:
                tr.end(op)
        return f"accepted; expected {expected.__name__}"


def setup(lib, n: int, seed: int, tr: Tracer | None) -> Stream:
    """First chart and off-chart round-trips: builds every lazy table the
    stream will use."""
    rng = random.Random(seed)
    warm = Stream(lib, n, tr)
    for chart in (True, False):
        rows, bits = sampler.sample_point(rng, n, chart)
        warm.run(sampler.Item(sampler.VALID, labels=tuple(sampler.label(n, r) for r in rows),
                              bits=bits, obs=sampler.observable(n, bits)))
    return warm


class Blocks:
    """Runs the inputs in blocks of BLOCK, cycling, in time slices.

    The host's speed changes for milliseconds to seconds at a time as
    other tenants come and go.  Each input's latency is therefore its
    fastest run, and throughput comes from each block's fastest repeat:
    host noise drops out, while the spread of cost across inputs stays.
    Slices spread the repeats over the whole run, and every PIN_EVERY
    blocks the stream moves to the CPU that is quietest at that moment,
    which makes a quiet run of every input likely.  Short blocks make a
    quiet run of a whole block likely too."""

    def __init__(self, st: Stream, items):
        self.st, self.items = st, items
        self.n_blocks = math.ceil(len(items) / BLOCK)
        self.map_ns: dict[int, int] = {}
        self.lift_ns: dict[int, int] = {}
        self.block_s: dict[int, float] = {}
        self.runs = 0

    def _block(self) -> None:
        b = self.runs % self.n_blocks
        st = self.st
        start = time.perf_counter()
        for i in range(b * BLOCK, min((b + 1) * BLOCK, len(self.items))):
            done = len(st.map_ns)
            st.run(self.items[i])
            if len(st.map_ns) > done:
                self.map_ns[i] = min(st.map_ns[-1], self.map_ns.get(i, st.map_ns[-1]))
                self.lift_ns[i] = min(st.lift_ns[-1], self.lift_ns.get(i, st.lift_ns[-1]))
        wall = time.perf_counter() - start
        self.block_s[b] = min(wall, self.block_s.get(b, wall))
        st.map_ns.clear()
        st.lift_ns.clear()
        self.runs += 1

    def run(self, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        blocks = 0
        while time.perf_counter() < deadline:
            if blocks % PIN_EVERY == 0:
                pin(0, quiet_cpu(BLOCK_PROBE_LOOPS))
            self._block()
            blocks += 1

    def summary(self) -> dict:
        while len(self.block_s) < self.n_blocks:
            self._block()
        st = self.st
        m, li = sorted(self.map_ns.values()), sorted(self.lift_ns.values())
        return {
            "attempted": st.attempted,
            "failed": len(st.failures),
            "failures": st.failures[:MAX_FAILURES_SHOWN],
            "rejections": st.rejections,
            "pairs": len(m),
            "repeats": self.runs / self.n_blocks,
            "map_us_p50": quantile(m, 0.5) / 1e3,
            "map_us_p99": quantile(m, 0.99) / 1e3,
            "lift_us_p50": quantile(li, 0.5) / 1e3,
            "lift_us_p99": quantile(li, 0.99) / 1e3,
            "roundtrip_per_s": len(m) / sum(self.block_s.values()),
        }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true", help="exit once ready")
    ap.add_argument("--trace", metavar="RUN_ID")
    args = ap.parse_args(argv)

    tr = Tracer(args.trace) if args.trace else None
    root = tr.begin("setup") if tr else None
    lib = load_library(tr)
    warm = setup(lib, args.n, args.seed, tr)
    if tr:
        tr.end(root)
    print("ready", flush=True)
    if args.setup_only:
        return 1 if warm.failures else 0

    items = sampler.make_items(args.seed, args.n, POOL, INVALID_SHARE)
    blocks = Blocks(Stream(lib, args.n, tr), items)
    for line in sys.stdin:
        blocks.run(float(line))
        print("ok", flush=True)
    out = blocks.summary()
    out["attempted"] += warm.attempted
    out["failed"] += len(warm.failures)
    out["failures"] = (warm.failures + out["failures"])[:MAX_FAILURES_SHOWN]
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tr:
        out["spans"] = tr.export("s")
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
