"""Layer trace: every public layer call in dependency order, in a fresh
interpreter, each inside a span.

    PYTHONPATH=src python3 perfbench/layers.py --seed 1 --trace RUN_ID

Enumeration runs before ``image`` and ``lift``, and ``image`` before
``orbit_partition``, so although every table sits behind ``lru_cache``
each cold span holds only its own layer's work.  Prints one JSON line with
the spans, per-layer counts and any failed checks.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

import sampler
import stream
from tracing import Tracer

STREAM_OPS = 4000  # traced N = 5 round-trips, enough for stable medians

# Known sizes the trace checks: generator and image counts, relations at
# N = 4, orbits at N = 4 and the Cayley quadric's orbit.
EXPECTED = {
    "pauli.enumerate_generators.n4": 2295, "pauli.enumerate_generators.n5": 75735,
    "projection.image.n4": 2295, "projection.image.n5": 75735,
    "pluecker.relations": 721, "orbits.orbit_partition": 29, "quadrics.quadric_orbit": 9,
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", metavar="RUN_ID", required=True)
    args = ap.parse_args(argv)
    tr = Tracer(args.trace)

    idx = tr.begin("setup.import")
    from lgrpauli import orbits, pauli, pluecker, projection, quadrics
    tr.end(idx)

    counts: dict[str, float] = {}
    failures: list[str] = []

    def measure(name: str, fn, *fn_args):
        out = tr.call(name, fn, *fn_args)
        counts[name] = len(out)
        return out

    tr.call("pluecker.constraints.n4", pluecker.lagrangian_constraints, 4)
    measure("pauli.enumerate_generators.n4", pauli.enumerate_generators, 4)
    image4 = measure("projection.image.n4", projection.image, 4)
    measure("pluecker.relations", pluecker.pluecker_relations, 4)
    report = tr.call("quadrics.verify_variety", quadrics.verify_variety, 4)
    if not report.matches:
        failures.append(f"verify_variety(4): zero set {report.zero_set_size} != image")
    counts["quadrics.evaluations"] = ((1 << 16) - 1) * report.quadric_count
    measure("quadrics.quadric_orbit", quadrics.quadric_orbit, quadrics.cayley_quadric(4), 4)
    measure("orbits.orbit_partition", orbits.orbit_partition, 4)
    for p in image4:
        tr.call("orbits.e_rank", orbits.e_rank, p)
    counts["orbits.e_rank_calls"] = len(image4)

    tr.call("pluecker.constraints.n5", pluecker.lagrangian_constraints, 5)
    measure("pauli.enumerate_generators.n5", pauli.enumerate_generators, 5)
    measure("projection.image.n5", projection.image, 5)
    # The first off-chart lift after enumeration is warm builds the lift table.
    _rows, bits = sampler.sample_point(random.Random(args.seed), 5, chart=False)
    tr.call("projection.lift_table_build", projection.lift, projection.ProjPoint(5, bits))

    st = stream.Stream(stream.load_library(None), 5, tr)
    items = sampler.make_items(args.seed, 5, STREAM_OPS, stream.INVALID_SHARE)
    for it in items:
        st.run(it)
    counts["projection.lift_calls"] = len(st.lift_ns)
    counts["projection.lift_chart_share"] = st.chart_lifts / len(st.lift_ns)
    failures += st.failures
    failures += [f"{k} = {counts[k]}, expected {v}" for k, v in EXPECTED.items() if counts[k] != v]

    print(json.dumps({
        "spans": tr.export("l"),
        "errors": tr.errors,
        "counts": counts,
        "attempted": st.attempted + len(EXPECTED) + 1,
        "failures": failures,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
