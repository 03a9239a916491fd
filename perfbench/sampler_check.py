"""Self-check of the benchmark's input sampler and its expected values.

    PYTHONPATH=src python3 perfbench/sampler_check.py

Checks that the sampler reaches every generator at N = 2 (and N = 3) with
near-equal frequency, reports its chart-point share at N = 5 with the base
count, and compares its independently computed points, observables and
invalid inputs with the library at N = 4.  Exits 1 on any failure.
"""

from __future__ import annotations

import random
import sys
from collections import Counter

import sampler

_GENERATOR_COUNTS = {2: 15, 3: 135, 4: 2295, 5: 75735}


def chi2_critical(df: int, z: float = 3.09) -> float:
    """Upper chi-square quantile (Wilson-Hilferty); z = 3.09 is p = 0.001."""
    h = 2 / (9 * df)
    return df * (1 - h + z * h ** 0.5) ** 3


def check_uniform(n: int, per_generator: int, seed: int) -> bool:
    total = _GENERATOR_COUNTS[n]
    rng = random.Random(seed)
    draws = total * per_generator
    counts = Counter(sampler.span(sampler.sample_lagrangian(rng, n)) for _ in range(draws))
    chi2 = sum((c - per_generator) ** 2 / per_generator for c in counts.values())
    chi2 += (total - len(counts)) * per_generator
    ok = len(counts) == total and chi2 < chi2_critical(total - 1)
    print(f"N={n}: {len(counts)}/{total} generators reached in {draws} draws, "
          f"min {min(counts.values())} max {max(counts.values())} "
          f"chi2 {chi2:.1f} (df {total - 1}, limit {chi2_critical(total - 1):.1f}): {'PASS' if ok else 'FAIL'}")
    return ok


def check_chart_share(draws: int, seed: int) -> bool:
    n = 5
    rng = random.Random(seed)
    chart = 0
    for _ in range(draws):
        chart += sampler.on_chart(n, sampler.sample_lagrangian(rng, n))
    share = chart / draws
    exact = 2 ** (n * (n + 1) // 2) / _GENERATOR_COUNTS[n]
    sd = (exact * (1 - exact) / draws) ** 0.5
    ok = abs(share - exact) < 5 * sd
    print(f"N=5: chart-point share {share:.4f} ({chart} of {draws} draws); "
          f"exact 32768/75735 = {exact:.4f}: {'PASS' if ok else 'FAIL'}")
    return ok


def check_against_library(seed: int) -> bool:
    try:
        from lgrpauli.pauli import (CommutationError, NotMaximalError, PauliPoint,
                                    generator_from_operators)
        from lgrpauli.pluecker import embed
        from lgrpauli.projection import NotInImageError, ProjPoint, image, lift, project
    except ImportError:
        print("library not importable (set PYTHONPATH=src): SKIP")
        return True
    n = 4
    img = {p.bits for p in image(n)}
    bad = 0
    kinds = Counter()
    for it in sampler.make_items(seed, n, 600, invalid_share=0.3):
        kinds[it.kind] += 1
        if it.kind == sampler.OFF_IMAGE:
            try:
                lift(ProjPoint(n, it.point))
                bad += 1
            except NotInImageError:
                bad += it.point in img
            continue
        ops = [PauliPoint.from_label(s) for s in it.labels]
        if it.kind == sampler.VALID:
            p = project(embed(generator_from_operators(ops)))
            bad += (p.bits != it.bits or p.bit_string() != sampler.display_string(n, it.bits)
                    or sampler.observable(n, it.bits) != it.obs)
            continue
        expected = CommutationError if it.kind == sampler.NONCOMMUTING else NotMaximalError
        try:
            generator_from_operators(ops)
            bad += 1
        except expected:
            pass
    ok = bad == 0 and len(kinds) == 4
    print(f"N=4: {sum(kinds.values())} items {dict(sorted(kinds.items()))} agree with "
          f"the library ({bad} mismatches): {'PASS' if ok else 'FAIL'}")
    return ok


def main() -> int:
    results = [
        check_uniform(2, 1000, seed=1),
        check_uniform(3, 300, seed=2),
        check_chart_share(20000, seed=3),
        check_against_library(seed=4),
    ]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
