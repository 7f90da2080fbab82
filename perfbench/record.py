#!/usr/bin/env python3
"""Write the committed output records of the default seed.

    python3 perfbench/record.py [WORKLOAD ...]

For each workload, runs the first inputs of the default seed through the
command line, checks every output with the oracles of run.py, and stores
digest(argv) -> digest(mathematical fields) in expected/<workload>.json.
run.py compares every op whose input is recorded. Rewrite a record only
in a change whose purpose is a different correct output.
"""

from __future__ import annotations

import json
import sys

import run

# Several times the ops a default-seed run attempts at 30 s, so that a
# faster program still meets recorded inputs.
RECORDED_OPS = {"family-case2": 32, "family-case1": 64, "report-jones": 1500}


def main(names: list[str]) -> int:
    for name in names or list(run.WORKLOADS):
        workload = run.WORKLOADS[name]
        ops = {}
        argvs = run.generated_argvs(workload, run.DEFAULT_SEED)
        for argv, _ in zip(argvs, range(RECORDED_OPS[name])):
            rc, out, _ = run.call_cli(argv)
            problems = run.check_op(workload, argv, rc, out, {})
            if problems:
                print(f"{name}: {argv!r}: {'; '.join(problems)}", file=sys.stderr)
                return 1
            ops[run.argv_digest(argv)] = run.output_digest(json.loads(out))
        run.RECORD_DIR.mkdir(exist_ok=True)
        path = run.RECORD_DIR / f"{name}.json"
        path.write_text(json.dumps({"seed": run.DEFAULT_SEED, "ops": ops}, indent=0) + "\n")
        print(f"{name}: {len(ops)} ops recorded in {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
