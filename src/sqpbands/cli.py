"""Command-line interface.

Subcommands:
  validate    parse a band word and run the surface cross-checks
  invariants  full invariant report for a word (band or Artin syntax)
  family      iterated splice family with its certificate ledger
  selftest    acceptance suite with its corpus replay, one line per criterion

Each command only fills its `ReportEnvelope` and returns its exit code.
`main` owns the rest: an oracle error (`ORACLE_ERRORS`) exits 3, an input
error (`INPUT_ERRORS`, which covers `WordSyntaxError`, `UnlinkInputError`
and `SelectionInvalidError`) exits 1, and any other exception propagates.
An error envelope holds `error` and the exception's certificates, never a
partial payload. `main` prints once: the JSON envelope, an `error:` line on
stderr, or the subcommand's text.

Exit codes: 0 pass, 1 input error, 2 assertion failure or usage error,
3 oracle violation, 141 stdout closed by its reader before the output was
written (128 + SIGPIPE, as a shell reports a process that SIGPIPE ended;
nothing is printed on stderr).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .invariants import DEFAULT_JONES_BUDGET, full_report
from .report import Certificate, ReportEnvelope
from .selection import RelocationLostError
from .surface import TracingBugError, trace_boundary
from .tie import (
    AnnulusWord,
    OracleViolationError,
    bundled_alpha,
    family,
    family_ledger,
    trivial_annulus,
)
from .words import parse_artin_word, parse_band_word
from .laurent import LaurentPolynomial

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_ASSERTION = 2
EXIT_ORACLE = 3
EXIT_PIPE = 141

ORACLE_ERRORS = (OracleViolationError, TracingBugError, RelocationLostError)
INPUT_ERRORS = (OSError, ValueError)


def _is_pairs(value: object, kind: type) -> bool:
    """True for a JSON list of two-element lists whose items are all `kind`."""
    return isinstance(value, list) and all(
        isinstance(p, list) and len(p) == 2 and all(type(x) is kind for x in p)
        for p in value
    )


def _annulus_from_arg(kind: str) -> AnnulusWord:
    if kind == "bundled":
        return bundled_alpha()
    if kind == "trivial":
        return trivial_annulus()
    with open(kind) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{kind}: an annulus file must hold a JSON object")
    for key in ("word", "strands", "designated_band", "companion_alexander"):
        if key not in data:
            raise ValueError(f"{kind}: annulus file has no {key!r} field")
    for key in ("strands", "designated_band", "marked"):
        if type(data.get(key, 0)) is not int:
            raise ValueError(f"{kind}: annulus field {key!r} must be an integer")
    for key in ("word", "companion_name"):
        if not isinstance(data.get(key, ""), str):
            raise ValueError(f"{kind}: annulus field {key!r} must be a string")
    if not _is_pairs(data["companion_alexander"], int):
        raise ValueError(
            f"{kind}: annulus field 'companion_alexander' must be a list of "
            "[exponent, coefficient] integer pairs"
        )
    if not _is_pairs(data.get("splice", []), str):
        raise ValueError(
            f"{kind}: annulus field 'splice' must be a list of "
            "[annulus end, target end] string pairs"
        )
    return AnnulusWord(
        word=parse_band_word(data["word"], data["strands"]),
        designated_band=data["designated_band"],
        companion_name=data.get("companion_name", kind),
        companion_alexander=LaurentPolynomial.from_pairs(data["companion_alexander"]),
        splice=tuple(tuple(p) for p in data.get("splice", (("a2", "q"), ("a1", "p")))),
        marked=data.get("marked", 0),
    )


def cmd_validate(args, env: ReportEnvelope) -> int:
    word = parse_band_word(args.word, args.strands)
    trace = trace_boundary(word)  # runs the permutation cross-check
    env.reports.append(
        {
            "word": word.to_text(),
            "strands": word.strands,
            "letters": len(word.letters),
            "boundary_components": trace.count,
            "betti": trace.betti,
            "genus_profile": [list(g) for g in trace.genus_profile],
            "surface_graph": trace.graph.to_json_dict(),
            "boundary_trace": trace.to_json_dict(),
        }
    )
    return EXIT_OK


def _print_validate(env: ReportEnvelope) -> None:
    for r in env.reports:
        for key in ("word", "strands", "letters", "boundary_components", "betti"):
            print(f"{key}: {r[key]}")
        print(f"genus_profile: {r['genus_profile']}")
        graph = r["surface_graph"]
        print(f"surface_graph: {len(graph['edges'])} bands on {graph['vertices']} disks")
        print(f"band_sides: {r['boundary_trace']['band_sides']}")


def cmd_invariants(args, env: ReportEnvelope) -> int:
    if args.artin and args.svg:
        raise ValueError("--svg draws band diagrams; give a band word")
    parse = parse_artin_word if args.artin else parse_band_word
    word = parse(args.word, args.strands)
    env.reports.append(full_report(word, with_jones=args.with_jones, budget=args.budget))
    if args.svg:
        from .svg import band_diagram_svg

        with open(args.svg, "w") as fh:
            fh.write(band_diagram_svg(word))
    return EXIT_OK


def cmd_family(args, env: ReportEnvelope) -> int:
    word = parse_band_word(args.word, args.strands)
    annulus = _annulus_from_arg(args.annulus)
    steps = family(word, args.count, annulus=annulus)
    for step in steps:
        entry = step.to_json_dict()
        entry["report"] = full_report(step.closure, with_jones=args.with_jones, budget=args.budget)
        env.family.append(entry)
    ledger = family_ledger(steps, annulus, args.with_jones, args.budget)
    env.certificates = [{"step": s, **c.to_json_dict()} for s, c in ledger]
    return EXIT_OK


def cmd_selftest(args, env: ReportEnvelope) -> int:
    from .acceptance import run_suite

    results = run_suite(budget=args.budget)
    env.reports = [r.to_json_dict() for r in results]
    return EXIT_OK if all(r.passed for r in results) else EXIT_ASSERTION


def _print_invariants(env: ReportEnvelope) -> None:
    for r in env.reports:
        print(f"word: {r['word'] or '<empty>'}  (B_{r['strands']})")
        print(f"components: {r['components']}   chi: {r['chi']}   b1: {r['betti']}")
        print(f"linking matrix: {r['linking_matrix']}")
        print(f"alexander: {r['alexander_str']}")
        print(f"signature: {r['signature']}   determinant: {r['determinant']}")
        for i, (poly, flags) in enumerate(
            zip(r["component_alexander_str"], r["component_slice_flags"])
        ):
            print(f"component {i}: delta = {poly}   slice-necessary flags: {flags}")
        if r["jones_str"] is not None:
            print(f"jones: {r['jones_str']}")
        elif r["jones_budget_exceeded"]:
            print("jones: skipped (strand budget)")


def _print_family(env: ReportEnvelope) -> None:
    for entry in env.family:
        r = entry["report"]
        print(
            f"step {entry['iteration']}: B_{entry['strands']}, "
            f"{len(entry['word'].split())} letters, "
            f"delta = {r['alexander_str']}, sigma = {r['signature']}, "
            f"components = {r['components']}"
        )
        print(f"  word: {entry['word']}")
    statuses = {}
    for cert in env.certificates:
        statuses[cert["status"]] = statuses.get(cert["status"], 0) + 1
    print(f"certificates: {statuses}")


def _print_selftest(env: ReportEnvelope) -> None:
    from .acceptance import CriterionResult

    for r in env.reports:
        checks = [Certificate(**c) for c in r["checks"]]
        print(CriterionResult(r["number"], r["name"], r["budget_s"], r["elapsed_s"], checks).line())
        for c in checks:
            if c.status == "fail":
                print(f"  {c.name}: fail {c.detail}".rstrip())


def _validate_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("word", help="band word, e.g. 'b(1,2) b(1,3)' (may be empty: '')")
    p.add_argument("--strands", type=int, required=True)
    p.add_argument("--json", action="store_true")


def _invariants_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("word")
    p.add_argument("--strands", type=int, required=True)
    p.add_argument("--artin", action="store_true", help="parse as s<k>/S<k> Artin word")
    p.add_argument("--with-jones", dest="with_jones", action="store_true", default=True)
    p.add_argument("--no-jones", dest="with_jones", action="store_false")
    p.add_argument("--budget", type=int, default=DEFAULT_JONES_BUDGET)
    p.add_argument("--json", action="store_true")
    p.add_argument("--svg", metavar="PATH", help="write the band diagram as SVG")


def _family_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("word")
    p.add_argument("--strands", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument(
        "--annulus",
        default="bundled",
        help="'bundled' (slice companion), 'trivial' (unknot control), or a JSON file",
    )
    p.add_argument("--with-jones", dest="with_jones", action="store_true", default=False)
    p.add_argument("--budget", type=int, default=DEFAULT_JONES_BUDGET)
    p.add_argument("--json", action="store_true")


def _selftest_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--budget", type=int, default=DEFAULT_JONES_BUDGET)
    p.add_argument("--json", action="store_true")


# subcommand -> (help line, function that adds its arguments, command,
# text printer, the arguments the envelope echoes as `inputs`)
SUBCOMMANDS = {
    "validate": (
        "parse a band word and check its surface data",
        _validate_arguments, cmd_validate, _print_validate, ("word", "strands"),
    ),
    "invariants": (
        "full invariant report of a closure",
        _invariants_arguments, cmd_invariants, _print_invariants,
        ("word", "strands", "artin", "with_jones", "budget"),
    ),
    "family": (
        "iterated splice family with certificates",
        _family_arguments, cmd_family, _print_family,
        ("word", "strands", "count", "annulus", "budget"),
    ),
    "selftest": (
        "run the acceptance suite", _selftest_arguments, cmd_selftest, _print_selftest, ("budget",)
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """The top-level parser, with every subcommand's parser under it."""
    parser = argparse.ArgumentParser(
        prog="sqpbands",
        description="Band-generator braid words, their surfaces, and splice families",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments, *_) in SUBCOMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_line))
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    name = argv[0] if argv else ""
    unrecognized = True
    if name in SUBCOMMANDS:
        # Only the named subcommand's parser, with the prog that
        # `add_parser` would give it, so its help and errors read the same.
        parser = argparse.ArgumentParser(prog=f"sqpbands {name}")
        SUBCOMMANDS[name][1](parser)
        args, unrecognized = parser.parse_known_args(argv[1:])
    if unrecognized:
        # Everything else (no subcommand, --help, --version, a typo, and
        # arguments the subcommand does not take) goes to the top-level
        # parser, which reports it with its own usage line.
        args = build_parser().parse_args(argv)
        name = args.command
    _, _, command, printer, inputs = SUBCOMMANDS[name]
    env = ReportEnvelope(name, {key: getattr(args, key) for key in inputs})
    try:
        code = command(args, env)
    except ORACLE_ERRORS + INPUT_ERRORS as exc:
        code = EXIT_INPUT if isinstance(exc, INPUT_ERRORS) else EXIT_ORACLE
        env.reports, env.family = [], []
        env.certificates = [c.to_json_dict() for c in getattr(exc, "certificates", ())]
        env.error = {"message": str(exc), "exit_code": code}
    env.finish()
    try:
        if args.json:
            print(env.to_json())
        elif env.error:
            print(f"error: {env.error['message']}", file=sys.stderr)
        else:
            printer(env)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (`sqpbands selftest | head -n 1`). With
        # stdout on os.devnull, the flush at exit has nothing left to fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
