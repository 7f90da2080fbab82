#!/usr/bin/env python3
"""Regenerate the corpus sidecars from the independent oracles.

Alexander values come from the reduced Burau determinant, Jones values
from the brute-force Kauffman state sum, component counts and linking
numbers from combinatorial counts, signatures from a literature table of
the named links. The Seifert/TL pipelines are deliberately not used, so
replaying the corpus cross-checks them.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from sqpbands.invariants import (
    burau_alexander_oracle,
    extract_component,
    kauffman_bracket_bruteforce,
    linking_matrix,
)
from sqpbands.surface import trace_boundary
from sqpbands.words import parse_band_word, underlying_permutation

CORPUS = [
    # name, strands, word text
    ("unknot_b1", 1, ""),
    ("unlink2", 2, ""),
    ("sigma1", 2, "b(1,2)"),
    ("hopf", 2, "b(1,2) b(1,2)"),
    ("trefoil", 2, "b(1,2) b(1,2) b(1,2)"),
    ("torus25", 2, "b(1,2) b(1,2) b(1,2) b(1,2) b(1,2)"),
    ("band13", 3, "b(1,3)"),
    ("conn_sum", 3, "b(1,2) b(1,2) b(1,2) b(2,3) b(2,3) b(2,3)"),
    ("spread4", 4, "b(1,4) b(2,3) b(1,2) b(3,4)"),
    ("alpha", 8, "b(1,6) b(3,8) b(2,5) b(1,4) b(3,7) b(2,6) b(5,8) b(4,7)"),
]

# Signatures of the named closures with our positive-crossing convention
# (right-handed trefoil = -2); None means: no independent literature value,
# leave the field out of the sidecar.
SIGNATURES = {
    "unknot_b1": 0,
    "unlink2": 0,
    "sigma1": 0,
    "hopf": -1,
    "trefoil": -2,
    "torus25": -4,
    "band13": 0,
    "conn_sum": -4,  # additivity under connected sum: -2 + -2
    "spread4": None,
    "alpha": None,
}


def main() -> None:
    out_dir = Path(__file__).resolve().parent.parent / "src/sqpbands/data/corpus"
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = ["# name strands word"]
    for name, strands, text in CORPUS:
        word = parse_band_word(text, strands)
        artin = word.expand_to_artin()
        perm = underlying_permutation(word)
        delta = burau_alexander_oracle(artin)
        surface = trace_boundary(word)
        expected = {
            "components": perm.cycle_count(),
            "chi": surface.chi,
            "betti": surface.betti,
            "linking": [list(r) for r in linking_matrix(artin)],
            "alexander": delta.to_pairs(),
            "determinant": abs(delta.evaluate_int(-1)),
            "component_alexander": [
                burau_alexander_oracle(extract_component(artin, c)).to_pairs()
                for c in range(perm.cycle_count())
            ],
        }
        if SIGNATURES.get(name) is not None:
            expected["signature"] = SIGNATURES[name]
        if len(artin) <= 8:
            expected["jones"] = kauffman_bracket_bruteforce(artin).to_pairs()
        (out_dir / f"{name}.expected.json").write_text(
            json.dumps(expected, indent=1) + "\n"
        )
        lines.append(f"{name} {strands} {text}".rstrip())
        print(f"{name}: delta={delta.format()} comps={perm.cycle_count()}")
    (out_dir / "corpus.bands").write_text("\n".join(lines) + "\n")
    print(f"wrote {len(CORPUS)} entries to {out_dir}", file=sys.stderr)


if __name__ == "__main__":
    main()
