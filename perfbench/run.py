"""lgrpauli benchmark: one command that runs a workload, checks every
output, and prints each metric by name with its unit and sample count.

    python3 perfbench/run.py --workload stream-n5 --seed 1 --seconds 12 --trace 0

Run it from the repository root.  It uses the library from ``src/`` in
child interpreters, one at a time, with one client in a closed loop.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Workloads:

* ``stream-n5``: warm ``map`` then ``lift`` round-trips at N = 5 on
  seeded maximal commuting sets, uniform over all 75,735; 2 % of the
  inputs are invalid and must be rejected with their documented error.
  Set-up (import, first chart and first off-chart round-trip) builds the
  lift table.
* ``census-n4``: cold one-shot CLI commands at N = 4, each in a fresh
  interpreter: verify, orbits, tables, relations, constraints, cayley,
  counts, rank and an off-chart lift.

Cold ``counts``, ``constraints`` and ``map`` at N = 5 (``census_n5``) are
timed only in the trace run: a single ``counts --n 5`` takes 13 to 19 s
on a 2-vCPU host, one process for all of it, so its wall time follows
the host's load; taking the fastest of two or three runs still left
runs of different seeds 11 to 20 % apart (quartile distance over median).

Every workload reports every end-to-end metric: each runs a warm library
stream (``stream.py``) and passes over a cold CLI command list, in
different shares of ``--seconds``.  Each run also reports the exit code
of the ``verify --n 5`` known-failure probe, untimed and unchecked.

The host is shared: each virtual CPU slows down independently, for
milliseconds to seconds at a time.  So every child starts on the CPU
where a short probe ran fastest (``cpus.py``), the stream runs in slices
spread between the other children and moves itself to the quietest CPU
every few blocks, each stream input's latency is its fastest of many
runs, and ``census_s`` sums each command's fastest run.  ``setup_s`` is
the median of several fresh set-ups.

``--trace 1`` runs the workload untraced and traced (the difference is
the tracing overhead), then the layer trace (``layers.py``) and each
census command once; it reports the per-layer metrics and writes every
span to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import sampler
import tracing
from cpus import ENV as CPUS_ENV, CPUS, pin, quiet_cpu
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
CHILD_TIMEOUT_S = 150
IMPORT_CLI = "import lgrpauli.cli; print('ready', flush=True)"
LAYERS = ("pauli", "pluecker", "projection", "quadrics", "orbits", "cli")
CLI_IMPORTS_TRACED = 5


# ---------------------------------------------------------------- children

@dataclass
class Child:
    code: int
    out: str
    err: str
    wall_s: float
    ready_s: float | None
    maxrss_kb: int


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env[CPUS_ENV] = ",".join(map(str, CPUS))
    return env


class Proc:
    """A child ``python3 *args`` with piped output, started on the quietest
    CPU and killed if it outlives CHILD_TIMEOUT_S.  ``interactive`` also
    pipes its standard input."""

    def __init__(self, args: list[str], interactive: bool = False):
        cpu = quiet_cpu()  # probe first, so the probe does not slow the child
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, *args], cwd=ROOT, env=_env(),
            stdin=subprocess.PIPE if interactive else subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        pin(self.proc.pid, cpu)
        self.killer = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        self.killer.start()
        self.err: list[bytes] = []
        self.reader = threading.Thread(target=lambda: self.err.append(self.proc.stderr.read()))
        self.reader.start()
        self.ready_s: float | None = None

    def wait_ready(self) -> None:
        """Read the child's first line; it must be ``ready``."""
        if self.proc.stdout.readline().strip() == b"ready":
            self.ready_s = time.perf_counter() - self.start

    def send(self, line: str) -> bool:
        """Write one line and wait for the answer ``ok``."""
        try:
            self.proc.stdin.write(line.encode() + b"\n")
            self.proc.stdin.flush()
        except OSError:
            return False
        return self.proc.stdout.readline().strip() == b"ok"

    def finish(self) -> Child:
        if self.proc.stdin:
            self.proc.stdin.close()
        out = self.proc.stdout.read()
        self.reader.join()
        # wait4 rather than Popen.wait: it also returns the child's peak RSS.
        _, status, usage = os.wait4(self.proc.pid, 0)
        wall = time.perf_counter() - self.start
        self.killer.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        self.proc.stderr.close()
        return Child(self.proc.returncode, out.decode(), self.err[0].decode(), wall,
                     self.ready_s, usage.ru_maxrss)


def run_child(args: list[str], ready: bool = False) -> Child:
    """Run ``python3 *args`` to completion; with ``ready``, also time it
    until it prints ``ready``."""
    p = Proc(args)
    if ready:
        p.wait_ready()
    return p.finish()


# ---------------------------------------------------------------- CLI lists

@dataclass
class Command:
    """One cold CLI invocation and the check on its output.  ``check``
    returns a problem description, or None when the output is right."""

    name: str
    argv: list[str]
    check: Callable[[Child, dict], str | None]


def _rows(child: Child) -> list[dict]:
    return json.loads(child.out)


def _verify_results(text: str) -> list[bool]:
    """Pass flags of ``verify`` output: JSON records with a ``pass`` field,
    or text lines ending in PASS/FAIL."""
    try:
        return [bool(r["pass"]) for r in json.loads(text)]
    except ValueError:
        return [line.rstrip().endswith(": PASS") for line in text.splitlines() if line.strip()]


def check_verify(min_checks: int):
    def check(c: Child, _ctx) -> str | None:
        res = _verify_results(c.out)
        if len(res) < min_checks or not all(res):
            return f"{res.count(True)} of {len(res)} checks pass, expected all of >= {min_checks}"
        return None
    return check


def check_fields(**expected):
    def check(c: Child, _ctx) -> str | None:
        row = _rows(c)[0]
        bad = {k: row.get(k) for k, v in expected.items() if row.get(k) != v}
        return f"got {bad}, expected {expected}" if bad else None
    return check


def check_row_count(expected: int):
    def check(c: Child, _ctx) -> str | None:
        got = len(_rows(c))
        return None if got == expected else f"{got} rows, expected {expected}"
    return check


def check_orbits(c: Child, ctx: dict) -> str | None:
    rows = _rows(c)
    ctx["orbits"] = {r["orbit_id"]: r for r in rows}
    inside = [r for r in rows if r["in_image"]]
    got = (len(rows), len(inside), sum(r["size"] for r in rows), sum(r["size"] for r in inside))
    want = (29, 6, (1 << 16) - 1, 2295)
    return None if got == want else f"(orbits, image orbits, points, image points) = {got}, expected {want}"


def check_tables(c: Child, _ctx) -> str | None:
    sizes = sorted(r["size"] for r in _rows(c))
    want = [81, 108, 162, 324, 648, 972]
    return None if sizes == want else f"class sizes {sizes}, expected {want}"


def check_rank(c: Child, ctx: dict) -> str | None:
    row = _rows(c)[0]
    orbit = ctx.get("orbits", {}).get(row.get("orbit_id"))
    if not row.get("in_image") or orbit is None:
        return f"image point reported as {row}"
    if (row["t_rank"], row["e_rank"]) != (orbit["t_rank"], orbit["e_rank"]):
        return f"ranks {row} disagree with orbit {orbit}"
    return None


def check_lift(rows: tuple[int, ...]):
    def check(c: Child, _ctx) -> str | None:
        basis = [sampler.from_label(s) for s in _rows(c)[0]["basis"]]
        return None if sampler.span(basis) == sampler.span(rows) else f"basis {basis} spans another subspace"
    return check


def check_observable(expected: str):
    def check(c: Child, _ctx) -> str | None:
        got = _rows(c)[0]["observable"]
        return None if got == expected else f"observable {got}, expected {expected}"
    return check


def _cmd(name: str, n: int, check, *extra: str) -> Command:
    return Command(f"{name}_n{n}", [name, "--n", str(n), *extra, "--format", "json"], check)


def _map_command(rng: random.Random, n: int) -> Command:
    rows, bits = sampler.sample_point(rng, n)
    ops = ",".join(sampler.label(n, r) for r in rows)
    return _cmd("map", n, check_observable(sampler.observable(n, bits)), "--ops", ops)


def census_n4(seed: int) -> list[Command]:
    rng = random.Random(seed)
    _, rank_bits = sampler.sample_point(rng, 4)
    lift_rows, lift_bits = sampler.sample_point(rng, 4, chart=False)
    return [
        _cmd("verify", 4, check_verify(15)),
        _cmd("orbits", 4, check_orbits),
        _cmd("tables", 4, check_tables),
        _cmd("relations", 4, check_row_count(721)),
        _cmd("constraints", 4, check_row_count(28)),
        _cmd("cayley", 4, check_fields(orbit_size=9)),
        _cmd("counts", 4, check_fields(generators=2295, image=2295, orbits=29, image_orbits=6)),
        _cmd("rank", 4, check_rank, "--point", sampler.display_string(4, rank_bits)),
        _cmd("lift", 4, check_lift(lift_rows), "--point", sampler.display_string(4, lift_bits)),
    ]


def census_n5(seed: int) -> list[Command]:
    """Cold N = 5 commands, timed once each in the trace run only (see the
    module docstring)."""
    return [
        _cmd("counts", 5, check_fields(generators=75735, image=75735, points=1023)),
        _cmd("constraints", 5, check_row_count(120)),
        _map_command(random.Random(seed), 5),
    ]


def stream_n5_cli(seed: int) -> list[Command]:
    return [_map_command(random.Random(seed), 5)]


# ---------------------------------------------------------------- workloads

@dataclass(frozen=True)
class Workload:
    n: int
    stream_share: float  # the warm stream runs for this share of --seconds
    passes: int          # passes over the CLI command list
    setups: int          # set-ups per run; setup_s is their median
    stream_setup: bool   # set-up is the stream's (tables built), else `import lgrpauli.cli`
    commands: Callable[[int], list[Command]]


# A stream-n5 set-up takes about 15 s on a 2-CPU x86_64 host; two per run
# keep the run under a minute.
WORKLOADS = {
    "stream-n5": Workload(5, 1.0, 20, 2, True, stream_n5_cli),
    "census-n4": Workload(4, 0.5, 5, 11, False, census_n4),
}
# The part of `verify --n 5` that fails at the seed; run once per run and
# reported, never timed or checked, so a fix does not read as a regression.
PROBE = ["-m", "lgrpauli.cli", "verify", "--n", "5", "--suite", "variety"]

E2E_UNITS = {
    "setup_s": "s", "map_us_p50": "us", "map_us_p99": "us", "lift_us_p50": "us",
    "lift_us_p99": "us", "roundtrip_per_s": "1/s", "census_s": "s", "peak_rss_mb": "MB",
}


@dataclass
class Result:
    metrics: dict[str, float] = field(default_factory=dict)
    samples: dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)  # messages, possibly fewer than failed
    spans: list[list] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.failures.append(what)

    def absorb(self, other: "Result") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures += other.failures
        self.notes += other.notes


def run_command(cmd: Command, ctx: dict, res: Result, tr: Tracer | None,
                rss: list[int], walls: dict[str, list[float]]) -> None:
    """Run one CLI command cold, check its output and record its wall time."""
    idx = tr.begin(f"cli.{cmd.name}") if tr else None
    c = run_child(["-m", "lgrpauli.cli", *cmd.argv])
    if tr:
        tr.end(idx, RuntimeError() if c.code else None)
    res.attempted += 1
    walls.setdefault(cmd.name, []).append(c.wall_s)
    rss.append(c.maxrss_kb)
    if c.code != 0:
        res.fail(f"{cmd.name}: exit {c.code}: {c.err.strip()[:200]}")
        return
    try:
        problem = cmd.check(c, ctx)
    except (ValueError, KeyError, IndexError, TypeError) as e:
        problem = f"unreadable output ({type(e).__name__}: {e})"
    if problem:
        res.fail(f"{cmd.name}: {problem}")


def run_workload(name: str, seed: int, seconds: float, setups: int, passes: int,
                 tr: Tracer | None) -> Result:
    """One run: the set-up samples and the CLI passes, each child on its
    own, and a stream worker that lives for the whole run and gets its
    time in equal slices, one at the start and one after every other
    child.  The set-up children are spread evenly between the CLI
    commands, so their median covers the whole run, not one moment of it."""
    w = WORKLOADS[name]
    res = Result()
    rss: list[int] = []
    setup_times: list[float] = []
    stream_args = ["perfbench/stream.py", "--n", str(w.n), "--seed", str(seed)]
    if tr:
        stream_args += ["--trace", tr.run_id]

    setup_children = setups - 1 if w.stream_setup else setups
    commands = w.commands(seed)
    # (pass, command) steps, with None for a set-up child
    steps: list[tuple[int, Command] | None] = [(p, cmd) for p in range(passes) for cmd in commands]
    n_steps = len(steps)
    for k in reversed(range(setup_children)):
        steps.insert(k * n_steps // setup_children, None)
    n_slices = 1 + len(steps)
    slices = [seconds * w.stream_share / n_slices] * n_slices

    worker_start = tracing.now_ns()
    worker = Proc(stream_args, interactive=True)
    worker.wait_ready()
    if w.stream_setup and worker.ready_s is not None:
        setup_times.append(worker.ready_s)

    def stream_slice() -> None:
        if slices and not worker.send(str(slices.pop())):
            slices.clear()

    def setup_child() -> None:
        idx = tr.begin("setup.child") if tr else None
        c = (run_child(stream_args + ["--setup-only"], ready=True) if w.stream_setup
             else run_child(["-c", IMPORT_CLI], ready=True))
        if tr:
            tr.end(idx)
        res.attempted += 1
        rss.append(c.maxrss_kb)
        if c.code != 0 or c.ready_s is None:
            res.fail(f"set-up exit {c.code}: {c.err.strip()[:200]}")
        else:
            setup_times.append(c.ready_s)

    # census_s sums each command's fastest run, as the stream keeps each
    # input's fastest run.  A pass's commands share one context (rank
    # checks against the orbit table of its pass).
    walls: dict[str, list[float]] = {}
    ctxs: dict[int, dict] = {}
    stream_slice()
    for step in steps:
        if step is None:
            setup_child()
        else:
            p, cmd = step
            run_command(cmd, ctxs.setdefault(p, {}), res, tr, rss, walls)
        stream_slice()
    while slices:
        stream_slice()

    c = worker.finish()
    rss.append(c.maxrss_kb)
    try:
        s = json.loads(c.out.strip().splitlines()[-1])
    except (ValueError, IndexError):
        s = None
    if c.code != 0 or c.ready_s is None or s is None:
        res.attempted += 1
        res.fail(f"stream exit {c.code}: {c.err.strip()[-300:]}")
    else:
        res.attempted += s["attempted"]
        res.failed += s["failed"]
        res.failures += s["failures"]
        for k in ("map_us_p50", "map_us_p99", "lift_us_p50", "lift_us_p99", "roundtrip_per_s"):
            res.metrics[k] = s[k]
            res.samples[k] = s["pairs"]
        res.notes.append(f"stream: {s['attempted']} ops, each input block run {s['repeats']:.1f} "
                         f"times; {s['rejections']} invalid inputs rejected; fastest repeats "
                         f"keep {s['pairs']} round-trips")
        if tr:
            idx = tr.record("stream.worker", worker_start, tracing.now_ns())
            res.spans += _link(s["spans"], "d", idx)

    if setup_times:
        res.metrics["setup_s"] = statistics.median(setup_times)
        res.samples["setup_s"] = len(setup_times)
    res.metrics["census_s"] = sum(map(min, walls.values()))
    res.samples["census_s"] = passes
    res.metrics["peak_rss_mb"] = max(rss) / 1024
    res.samples["peak_rss_mb"] = len(rss)

    if tr is None:
        c = run_child(PROBE)
        res.notes.append(f"known-failure probe `verify --n 5 --suite variety`: exit {c.code} "
                         f"({(c.err.strip().splitlines() or [''])[0]})")
    return res


def _link(spans: list[list], prefix: str, parent_idx: int) -> list[list]:
    """Hang a worker's top-level spans under the span of ours that ran it."""
    parent = f"{prefix}{parent_idx}"
    return [[sid, p if p is not None else parent, name, start, end]
            for sid, p, name, start, end in spans]


# ---------------------------------------------------------------- trace run

def layer_trace(seed: int, tr: Tracer, res: Result) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer metrics, with their sample counts, from the layer trace
    and one pass of each census.  ``tr`` must be used for nothing else, so
    its spans are only these."""
    m: dict[str, float] = {}
    samples: dict[str, int] = {}
    idx = tr.begin("layers.worker")
    c = run_child(["perfbench/layers.py", "--seed", str(seed), "--trace", tr.run_id])
    tr.end(idx)
    try:
        d = json.loads(c.out.strip().splitlines()[-1])
    except (ValueError, IndexError):
        d = None
    if c.code != 0 or d is None:
        res.attempted += 1
        res.fail(f"layer trace exit {c.code}: {c.err.strip()[-300:]}")
        return m, samples
    res.attempted += d["attempted"]
    res.failed += len(d["failures"])
    res.failures += d["failures"]
    spans = _link(d["spans"], "c", idx)
    res.spans += spans
    counts = d["counts"]
    errors = d["errors"]

    cli_idx = tr.begin("cli")
    imports = []
    for _ in range(CLI_IMPORTS_TRACED):
        i = tr.begin("cli.import")
        ch = run_child(["-c", IMPORT_CLI], ready=True)
        tr.end(i)
        imports.append(ch.ready_s or 0.0)
    walls: dict[str, list[float]] = {}
    for commands in (census_n4(seed), census_n5(seed)):
        ctx: dict = {}
        for cmd in commands:
            run_command(cmd, ctx, res, tr, [], walls)
    tr.end(cli_idx)

    by = tracing.self_times_by_name(spans + tr.export("c"))
    res.spans += tr.export("c")

    def us(key: str, name: str) -> None:
        m[key] = tracing.median_us(by[name])
        samples[key] = len(by[name])

    def sec(name: str) -> float:
        return tracing.total_s(by[name])

    us("pauli.from_operators_us", "pauli.from_operators")
    for n in (4, 5):
        m[f"pauli.enumerate_generators_s.n{n}"] = sec(f"pauli.enumerate_generators.n{n}")
        m[f"pauli.generators.n{n}"] = counts[f"pauli.enumerate_generators.n{n}"]
        m[f"projection.image_s.n{n}"] = sec(f"projection.image.n{n}")
    us("pluecker.embed_us", "pluecker.embed")
    m["pluecker.relations_s"] = sec("pluecker.relations")
    m["pluecker.relations"] = counts["pluecker.relations"]
    us("projection.project_us", "projection.project")
    us("projection.to_observable_us", "projection.to_observable")
    us("projection.lift_chart_us", "projection.lift_chart")
    us("projection.lift_offchart_us", "projection.lift_offchart")
    m["projection.lift_chart_share"] = counts["projection.lift_chart_share"]
    m["projection.lift_calls"] = counts["projection.lift_calls"]
    m["projection.lift_table_build_s"] = sec("projection.lift_table_build")
    m["quadrics.verify_variety_s"] = sec("quadrics.verify_variety")
    m["quadrics.evaluations"] = counts["quadrics.evaluations"]
    m["quadrics.quadric_orbit_s"] = sec("quadrics.quadric_orbit")
    m["orbits.orbit_partition_s"] = sec("orbits.orbit_partition")
    m["orbits.orbits"] = counts["orbits.orbit_partition"]
    us("orbits.e_rank_us", "orbits.e_rank")
    m["orbits.e_rank_calls"] = counts["orbits.e_rank_calls"]
    m["cli.import_s"] = statistics.median(imports)
    samples["cli.import_s"] = len(imports)
    for cmd in census_n4(seed) + census_n5(seed):
        m[f"cli.{cmd.name}_s"] = sec(f"cli.{cmd.name}")
    for layer in LAYERS:
        m[f"{layer}.errors"] = errors.get(layer, 0) + tr.errors.get(layer, 0)
    return m, samples


# ---------------------------------------------------------------- report

def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src" / "lgrpauli").rglob("*.py")))


def machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "machine": platform.machine()}


def report(metrics: dict, units: dict, samples: dict) -> None:
    for k, v in metrics.items():
        print(f"  {k:40s} {v:>16.6f} {units[k]:6s} n={samples.get(k, 1)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "lgrpauli" / "cli.py").is_file():
        print(f"no lgrpauli sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    info = {**machine(), "src_lines": src_lines()}
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("info " + " ".join(f"{k}={v}" for k, v in info.items()))
    w = WORKLOADS[args.workload]

    if not args.trace:
        res = run_workload(args.workload, args.seed, args.seconds, w.setups, w.passes, None)
        metrics, units, samples = res.metrics, E2E_UNITS, res.samples
    else:
        tr = Tracer(f"{args.workload}-{args.seed}-{os.getpid()}")
        # One set-up and one CLI pass each keep the trace run short; the
        # overhead compares like with like.
        plain = run_workload(args.workload, args.seed, args.seconds, 1, 1, None)
        res = run_workload(args.workload, args.seed, args.seconds, 1, 1, tr)
        res.absorb(plain)
        metrics, samples = layer_trace(args.seed, Tracer(tr.run_id), res)
        units = {k: _layer_unit(k) for k in metrics}
        for k, v in plain.metrics.items():
            if k in res.metrics:
                metrics[f"overhead.{k}"] = res.metrics[k] - v
                units[f"overhead.{k}"] = E2E_UNITS[k]
        metrics["src_lines"] = info["src_lines"]
        units["src_lines"] = "count"
        _write_trace(args, tr, res, info, metrics, plain.metrics)

    for note in res.notes:
        print("note " + note)
    for f in res.failures[:20]:
        print("FAIL " + f)
    print(f"error_rate {res.failed / max(res.attempted, 1):.6f} "
          f"({res.failed} failed of {res.attempted} attempted)")
    report(metrics, units, samples)
    print(json.dumps({
        "correct": res.failed == 0,
        "attempted": max(res.attempted, 1),
        "failed": res.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith("_share"):
        return "ratio"
    return "count"


def _write_trace(args, tr: Tracer, res: Result, info: dict, metrics: dict, untraced: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    spans = res.spans + tr.export("d")
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json.gz"
    with gzip.open(path, "wt", encoding="utf-8") as f:
        json.dump({
            "run_id": tr.run_id, "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "info": info, "untraced": untraced,
            "metrics": metrics,
            "fields": ["id", "parent", "name", "start_ns", "end_ns", "run_id"],
            "spans": [s + [tr.run_id] for s in spans],
        }, f, separators=(",", ":"))
    print(f"trace {len(spans)} spans written to {path.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
