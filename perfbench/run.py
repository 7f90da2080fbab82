#!/usr/bin/env python3
"""Benchmark of the sqpbands command line, one workload per interpreter.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the repository root. The package is imported from ./src, never
from an installed copy; without ./src/sqpbands the run exits with code 1.

A closed loop with one client, one process and one thread: each op is one
in-process call of `sqpbands.cli.main(argv)`, and the next op starts when
the previous one has returned. The seed fixes the generated words; no word
repeats within a run. Ops run until their summed time reaches --seconds.
Each op's output is checked after its timer stops. With --trace 1 the
same loop runs with the per-layer tracer of tracer.py installed.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json
with --trace 0, its per-layer metrics with --trace 1. Why each workload
exists and which layer should move which metric: README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import re
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

if not (SRC / "sqpbands" / "__init__.py").is_file():
    sys.exit(f"perfbench: no package sources at {SRC / 'sqpbands'}; run from a checkout")
sys.path.insert(0, str(SRC))

import sqpbands  # noqa: E402
from sqpbands import (  # noqa: E402
    ArtinWord,
    BandWord,
    LaurentPolynomial,
    burau_alexander_oracle,
    classify_and_select,
    cli,
    is_unlink_surface,
    kauffman_bracket_bruteforce,
    underlying_permutation,
)

from tracer import Tracer  # noqa: E402

if not Path(sqpbands.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"perfbench: imported sqpbands from {sqpbands.__file__}, not from {SRC}")

DEFAULT_SEED = 1
SETUP_REPEATS = 15
# The state-sum oracle enumerates 2^letters smoothings: 12 letters take ~0.2 s.
STATE_SUM_MAX_LETTERS = 12
# No op starts after this much wall time, so a run always ends well
# inside the 180 s a single run may take.
MAX_RUN_WALL_S = 120.0
OUT_DIR = HERE / "out"
RECORD_DIR = HERE / "expected"

SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import sqpbands.cli
sqpbands.cli.bundled_alpha()
t1 = time.perf_counter()
print(t1 - t0)
"""


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

TREFOIL = BandWord(2, ((1, 2),) * 3)
HOPF = BandWord(2, ((1, 2),) * 2)


def _random_band_word(rng: random.Random, strands: int, length: int) -> BandWord:
    return BandWord(
        strands, tuple(tuple(sorted(rng.sample(range(1, strands + 1), 2))) for _ in range(length))
    )


def _family_seeds(case: str, components: int, first: BandWord):
    def words(rng: random.Random) -> Iterator[BandWord]:
        yield first
        while True:
            word = _random_band_word(rng, rng.randint(2, 4), rng.randint(2, 6))
            if is_unlink_surface(word) or underlying_permutation(word).cycle_count() != components:
                continue
            if classify_and_select(word).case == case:
                yield word

    return words


def _jones_words(rng: random.Random) -> Iterator[BandWord]:
    while True:
        word = _random_band_word(rng, rng.randint(6, 8), rng.randint(6, 12))
        if not is_unlink_surface(word):
            yield word


def _family_argv(word: BandWord) -> list[str]:
    return ["family", word.to_text(), "--strands", str(word.strands), "--count", "2", "--json"]


def _invariants_argv(word: BandWord) -> list[str]:
    return ["invariants", word.to_text(), "--strands", str(word.strands), "--json"]


@dataclass(frozen=True)
class Workload:
    name: str
    words: Callable[[random.Random], Iterator[BandWord]]
    argv: Callable[[BandWord], list[str]]
    jones: bool  # every report must carry a Jones polynomial
    steps: int  # reports per op


WORKLOADS = {
    w.name: w
    for w in (
        # Case-2 knot seeds (the trefoil first): winding-zero splices whose
        # step-2 closure gives ~130x130 Seifert determinants.
        Workload("family-case2", _family_seeds("Case2", 1, TREFOIL), _family_argv, False, 3),
        # Case-1 two-component seeds (the Hopf band first): per-component
        # determinants of many sizes, light splice oracles.
        Workload("family-case1", _family_seeds("Case1", 2, HOPF), _family_argv, False, 3),
        # Short reports on 6-8 strands: Jones TL transfer, no big determinant.
        Workload("report-jones", _jones_words, _invariants_argv, True, 1),
    )
}


def _flip(strands: int, letters: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
    return tuple((strands + 1 - j, strands + 1 - i) for i, j in letters)


def _conjugacy_key(word: BandWord) -> tuple[tuple[int, int], ...]:
    """Least of the word's cyclic rotations and their flips: one key per closure."""
    rotations = [word.letters[r:] + word.letters[:r] for r in range(len(word.letters))]
    return min(rotations + [_flip(word.strands, r) for r in rotations])


def generated_argvs(workload: Workload, seed: int) -> Iterator[list[str]]:
    """The op inputs of one run.

    The words come from a generator seeded with the workload's name alone,
    so every run measures the same closures in the same order. The seed
    decides for each word whether it is flipped by b(i,j) -> b(n+1-j,
    n+1-i), which is conjugation by the half twist: the link and nearly
    the cost of each op do not depend on the seed, while the inputs do.
    (Rotating the letters is a conjugation too, but it changes the band
    that `family` selects, and with it the cost.) A word that a rotation
    or flip turns into an earlier word is skipped, so no closure repeats
    in a run.
    """
    words = workload.words(random.Random(workload.name))
    rng = random.Random(f"{workload.name}/{seed}")
    seen = set()
    for word in words:
        key = _conjugacy_key(word)
        if key not in seen:
            seen.add(key)
            letters = _flip(word.strands, word.letters) if rng.randrange(2) else word.letters
            yield workload.argv(BandWord(word.strands, letters))


# ---------------------------------------------------------------------------
# Output checks (outside the timed region)
# ---------------------------------------------------------------------------

_BAND = re.compile(r"b\((\d+),(\d+)\)")

# Envelope keys compared with the committed record. Metadata (versions,
# timing), formatted duplicates (*_str), prose details, the Artin rendering
# and keys added later are left out.
_RECORD_KEYS = {
    "subcommand", "inputs", "reports", "family", "certificates", "error", "exit_code",
    "word", "strands", "count", "annulus", "budget", "artin", "with_jones",
    "band_relocation", "selection", "case", "band", "component", "boundary_knot",
    "iteration", "name", "status", "step", "report", "components", "chi", "betti",
    "linking_matrix", "alexander", "signature", "determinant", "component_alexander",
    "component_slice_flags", "jones", "jones_budget_exceeded", "genus_profile",
}  # fmt: skip
_RECORD_WHOLE = {"band_relocation"}


def _project(value):
    if isinstance(value, dict):
        return {
            k: (v if k in _RECORD_WHOLE else _project(v))
            for k, v in value.items()
            if k in _RECORD_KEYS
        }
    if isinstance(value, list):
        return [_project(v) for v in value]
    return value


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def output_digest(envelope: dict) -> str:
    return _digest(_project(envelope))


def argv_digest(argv: list[str]) -> str:
    return _digest(argv)


def _expand(text: str, strands: int) -> ArtinWord:
    """b(i,j) -> s_i .. s_{j-1} s_{j-2}^-1 .. s_i^-1, written out independently."""
    letters: list[tuple[int, int]] = []
    for i, j in ((int(a), int(b)) for a, b in _BAND.findall(text)):
        letters.extend((k, 1) for k in range(i, j))
        letters.extend((k, -1) for k in range(j - 2, i - 1, -1))
    return ArtinWord(strands, tuple(letters))


def _cycles(word: ArtinWord) -> list[set[int]]:
    """Strands of each closure component, ordered by least strand."""
    positions = list(range(1, word.strands + 1))
    for k, _ in word.letters:
        positions[k - 1], positions[k] = positions[k], positions[k - 1]
    carried_to = {strand: pos for pos, strand in enumerate(positions, start=1)}
    cycles: list[set[int]] = []
    for start in range(1, word.strands + 1):
        if any(start in c for c in cycles):
            continue
        cycle, x = set(), start
        while x not in cycle:
            cycle.add(x)
            x = carried_to[x]
        cycles.append(cycle)
    return cycles


def _components(word: ArtinWord, cycles: list[set[int]]) -> list[ArtinWord]:
    """Sub-braid of each closure component."""
    subs = []
    for keep in cycles:
        positions = list(range(1, word.strands + 1))
        letters = []
        for k, e in word.letters:
            a, b = positions[k - 1], positions[k]
            if a in keep and b in keep:
                letters.append((sum(1 for s in positions[: k - 1] if s in keep) + 1, e))
            positions[k - 1], positions[k] = b, a
        subs.append(ArtinWord(len(keep), tuple(letters)))
    return subs


def _total_linking(word: ArtinWord, cycles: list[set[int]]) -> int:
    """Sum of the pairwise linking numbers: half the signed inter-component crossings."""
    component = {s: i for i, cycle in enumerate(cycles) for s in cycle}
    positions = list(range(1, word.strands + 1))
    total = 0
    for k, e in word.letters:
        a, b = positions[k - 1], positions[k]
        if component[a] != component[b]:
            total += e
        positions[k - 1], positions[k] = b, a
    return total // 2


def _check_jones(artin: ArtinWord, pairs: list, cycles: list[set[int]], det: int) -> list[str]:
    """Jones against V(1), V'(1), |V(-1)| and, on small words, the state sum.

    With c components and total linking number lk: V(1) = (-2)^(c-1),
    V'(1) = (3/2) (-2)^(c-1) lk, and |V(-1)| = det.
    """
    problems = []
    jones = LaurentPolynomial.from_pairs(pairs)
    sign = (-2) ** (len(cycles) - 1)
    if sum(jones.coeffs.values()) != sign:
        problems.append("Jones V(1) != (-2)^(components-1)")
    # Exponents are quarter powers of t, so 4 V'(1) is the sum of e * c_e.
    if sum(e * c for e, c in jones.coeffs.items()) != 6 * sign * _total_linking(artin, cycles):
        problems.append("Jones V'(1) does not match the linking number")
    # At t = -1, t^(1/2) = i, so q^e = i^(e/2).
    if any(e % 2 for e in jones.coeffs):
        problems.append("Jones has an odd quarter-power exponent")
    powers_of_i = ((1, 0), (0, 1), (-1, 0), (0, -1))
    re_part = sum(c * powers_of_i[(e // 2) % 4][0] for e, c in jones.coeffs.items())
    im_part = sum(c * powers_of_i[(e // 2) % 4][1] for e, c in jones.coeffs.items())
    if re_part * re_part + im_part * im_part != det * det:
        problems.append("Jones |V(-1)| differs from the Burau determinant")
    if len(artin.letters) <= STATE_SUM_MAX_LETTERS and kauffman_bracket_bruteforce(artin) != jones:
        problems.append("Jones differs from the brute-force state sum")
    return problems


def _check_report(report: dict, needs_jones: bool) -> list[str]:
    artin = _expand(report["word"], report["strands"])
    problems = []
    delta = burau_alexander_oracle(artin)
    if not delta.is_unit_equivalent(LaurentPolynomial.from_pairs(report["alexander"])):
        problems.append(f"Alexander of {report['word']!r} differs from the Burau oracle")
    cycles = _cycles(artin)
    subs = _components(artin, cycles)
    if len(subs) != len(report["component_alexander"]):
        problems.append(f"{len(report['component_alexander'])} component polynomials for {len(subs)} components")
    for i, (sub, pairs) in enumerate(zip(subs, report["component_alexander"])):
        if not burau_alexander_oracle(sub).is_unit_equivalent(LaurentPolynomial.from_pairs(pairs)):
            problems.append(f"component {i} Alexander differs from the Burau oracle")
    if needs_jones:
        if report["jones"] is None:
            refused = report["jones_budget_exceeded"]
            problems.append("Jones refused (budget)" if refused else "Jones missing")
        else:
            problems += _check_jones(artin, report["jones"], cycles, abs(delta.evaluate_int(-1)))
    return problems


def check_op(workload: Workload, argv: list[str], rc, stdout: str, record: dict) -> list[str]:
    """Reasons the op failed; empty when its output is correct."""
    problems = [] if rc == 0 else [f"exit code {rc}"]
    try:
        envelope = json.loads(stdout)
        certificates = envelope["certificates"] + [
            c for step in envelope["family"] for c in step["certificates"]
        ]
        problems += [f"certificate {c['name']} failed" for c in certificates if c["status"] == "fail"]
        reports = [step["report"] for step in envelope["family"]] or envelope["reports"]
        if len(reports) != workload.steps:
            problems.append(f"{len(reports)} reports, expected {workload.steps}")
        for report in reports:
            problems += _check_report(report, workload.jones)
    except (ValueError, KeyError, TypeError) as exc:
        return problems + [f"malformed envelope: {type(exc).__name__}: {exc}"]
    expected = record.get(argv_digest(argv))
    if expected is not None and expected != output_digest(envelope):
        problems.append("mathematical fields differ from the committed record")
    return problems


def load_record(workload: Workload) -> dict:
    path = RECORD_DIR / f"{workload.name}.json"
    return json.loads(path.read_text())["ops"] if path.is_file() else {}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def call_cli(argv: list[str]) -> tuple[object, str, str]:
    """One op: sqpbands.cli.main(argv) with its streams captured."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # a crashing op is a failed op, not a crashed benchmark
        rc = f"raised {type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue()


def measure_setup() -> float:
    """Median over fresh interpreters of `import sqpbands.cli` + bundled_alpha()."""
    times = []
    for _ in range(SETUP_REPEATS + 1):  # the first also writes bytecode caches
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            capture_output=True, text=True, check=True, timeout=60,
        )  # fmt: skip
        times.append(float(done.stdout))
    return statistics.median(times[1:])


def replay(workload: Workload, seed: int, count: int) -> float:
    """Untraced summed op time of the run's first `count` inputs."""
    total = 0.0
    for argv, _ in zip(generated_argvs(workload, seed), range(count)):
        t0 = perf_counter()
        call_cli(argv)
        total += perf_counter() - t0
    return total


def tail(times: list[float]) -> str:
    n = len(times)
    if n < 11:
        return f"n/a ({n} ops; needs 11 for 10 samples beyond the percentile)"
    value = sorted(times)[n - 11]
    return f"{value:.6f} s (p{100 * (n - 10) / n:.1f} of {n} ops, 10 beyond)"


def benchmark_metrics(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    setup_s = measure_setup()
    tracer = Tracer()
    if trace:
        tracer.install()
    record = load_record(workload)
    argvs = generated_argvs(workload, seed)
    done: list[list[str]] = []
    times: list[float] = []
    failed = record_checked = 0
    busy = 0.0
    started = perf_counter()
    while busy < seconds and perf_counter() - started < MAX_RUN_WALL_S:
        argv = next(argvs)
        tracer.op = len(done)
        tracer.active = trace
        t0 = perf_counter()
        rc, out, err = call_cli(argv)
        elapsed = perf_counter() - t0
        tracer.active = False
        done.append(argv)
        times.append(elapsed)
        busy += elapsed
        record_checked += argv_digest(argv) in record
        problems = check_op(workload, argv, rc, out, record)
        if problems:
            failed += 1
            print(f"op {len(done) - 1} failed: {argv!r}: {'; '.join(problems)}", file=sys.stderr)
            if err:
                print(err.rstrip()[-2000:], file=sys.stderr)

    head = [a for a, _ in zip(generated_argvs(workload, seed), range(8))]
    print(f"workload {workload.name}  seed {seed}  trace {int(trace)}  seconds {seconds}")
    print(f"inputs: {len(done)} attempted, sha256 {_digest(done)}; first 8 generated, sha256 {_digest(head)}")
    print(f"record: {record_checked} of {len(done)} ops compared with expected/{workload.name}.json")
    print(f"fail_frac: {failed / len(done):.6f} frac ({failed} of {len(done)} ops failed)")

    if trace:
        metrics = tracer.metrics()
        # Replay the leading ops (a fifth of the traced time) untraced, in a
        # fresh interpreter, to price the wrappers.
        count, traced = 0, 0.0
        while count < len(times) and traced < 0.2 * busy:
            traced += times[count]
            count += 1
        child = subprocess.run(
            [sys.executable, __file__, "--workload", workload.name, "--seed", str(seed),
             "--replay", str(count)],
            capture_output=True, text=True, check=True, timeout=150,
        )  # fmt: skip
        untraced = float(child.stdout.splitlines()[-1])
        metrics["bench.trace_overhead_frac"] = traced / untraced - 1
        print(f"op 0 ({done[0][1]}): {tracer.op_summary(0)}")
        if tracer.absent:
            print(f"absent: {', '.join(tracer.absent)}")
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{workload.name}-seed{seed}.tsv"
        tracer.write(spans_path)
        print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
        wanted = benchmark_metrics("per_layer")
    else:
        metrics = {
            "ops_per_s": len(done) / busy,
            "op_p50_s": statistics.median(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": setup_s,
        }
        print(f"op_tail_s: {tail(times)}")
        wanted = benchmark_metrics("end_to_end")
    missing = sorted(set(wanted) - set(metrics))
    if missing:
        sys.exit(f"perfbench: metrics not computed: {', '.join(missing)}")
    for name, unit in wanted.items():
        print(f"{name}: {metrics[name]} {unit}")
    return {
        "correct": failed == 0,
        "attempted": len(done),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in wanted.items()},
    }


def run_all(args) -> int:
    """Every workload, one after another, each in a fresh interpreter."""
    status = 0
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=180,
        )  # fmt: skip
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        lines = child.stdout.splitlines()
        if child.returncode or not lines or '"correct": true' not in lines[-1]:
            status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--replay", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    workload = WORKLOADS[args.workload]
    if args.replay is not None:
        print(replay(workload, args.seed, args.replay))
        return 0
    print(json.dumps(run(workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
