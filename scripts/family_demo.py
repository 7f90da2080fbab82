#!/usr/bin/env python3
"""Build splice families over a few seeds and print their invariant ledgers.

Usage: python scripts/family_demo.py [steps]

Walks the two standard seeds (Hopf band and trefoil) plus a random
5-strand seed, splicing the bundled slice-companion annulus `steps`
times, and prints per-step strand counts, Alexander data, and the
distinction evidence the invariants can certify.
"""

from __future__ import annotations

import random
import sys
from time import perf_counter

from sqpbands import (
    BandWord,
    alexander_of_word,
    extract_component,
    family,
    is_unlink_surface,
    jones_tl,
    linking_matrix,
    signature_of_word,
    underlying_permutation,
)
from sqpbands.invariants import BudgetExceeded


def show_family(name: str, seed: BandWord, steps: int) -> None:
    print(f"== {name}: {seed.to_text()} in B_{seed.strands}")
    t0 = perf_counter()
    results = family(seed, steps)
    print(f"   built with full oracle verification in {perf_counter() - t0:.1f}s")
    jones_prev = None
    for step in results:
        artin = step.word.expand_to_artin()
        perm = underlying_permutation(artin)
        delta = alexander_of_word(artin)
        sigma = signature_of_word(artin)
        line = (
            f"   i={step.iteration}: B_{step.word.strands}, "
            f"{len(step.word.letters)} letters, {perm.cycle_count()} component(s), "
            f"sigma={sigma}, delta={delta.format()}"
        )
        if perm.cycle_count() > 1:
            lk = linking_matrix(artin)
            comp_polys = [
                alexander_of_word(extract_component(artin, c)).format()
                for c in range(perm.cycle_count())
            ]
            line += f", lk={lk[0][1]}, component deltas {comp_polys}"
        jones = jones_tl(artin)
        if not isinstance(jones, BudgetExceeded):
            if jones_prev is not None:
                verdict = "differs" if jones != jones_prev else "agrees"
                line += f", Jones {verdict} from previous step"
            jones_prev = jones
        else:
            jones_prev = None
            line += f", Jones skipped ({jones.strands} strands)"
        print(line)
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
