#!/usr/bin/env python3
"""Build splice families over a few seeds and print their invariant ledgers.

Usage: python scripts/family_demo.py [steps]

Walks the two standard seeds (Hopf band and trefoil) plus a random
5-strand seed, splicing the bundled slice-companion annulus `steps`
times, and prints each step's invariants from its closure record and
the distinction rows of the family's certificate ledger.
"""

from __future__ import annotations

import random
import sys
from time import perf_counter

from sqpbands import BandWord, bundled_alpha, family, family_ledger, is_unlink_surface


def show_family(name: str, seed: BandWord, steps: int) -> None:
    print(f"== {name}: {seed.to_text()} in B_{seed.strands}")
    t0 = perf_counter()
    results = family(seed, steps)
    print(f"   built with full oracle verification in {perf_counter() - t0:.1f}s")
    for step in results:
        closure = step.closure
        count = closure.permutation.cycle_count()
        line = (
            f"   i={step.iteration}: B_{step.word.strands}, "
            f"{len(step.word.letters)} letters, {count} component(s), "
            f"sigma={closure.signature}, delta={closure.alexander.format()}"
        )
        if count > 1:
            comp_polys = [c.alexander.format() for c in closure.component_records]
            line += f", lk={closure.linking[0][1]}, component deltas {comp_polys}"
        print(line)
    for where, cert in family_ledger(results, bundled_alpha(), with_jones=True):
        if "non-isotopy" in cert.name:
            print(f"   {where}: {cert.name} {cert.status} ({cert.detail})")
    print()


def main() -> None:
    steps = int(sys.argv[1]) if len(sys.argv) > 1 else 2
    show_family("hopf band (two components)", BandWord(2, ((1, 2), (1, 2))), steps)
    show_family("right trefoil (knot)", BandWord(2, ((1, 2),) * 3), steps)
    rng = random.Random(11)
    while True:
        letters = tuple(tuple(sorted(rng.sample(range(1, 6), 2))) for _ in range(7))
        seed = BandWord(5, letters)
        if not is_unlink_surface(seed):
            break
    show_family("random 5-strand seed", seed, steps)


if __name__ == "__main__":
    main()
