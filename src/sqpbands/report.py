"""JSON report envelope, the one check record, and the regression corpus.

The envelope is the machine interface of the CLI: schema-versioned,
round-trippable JSON in which every check (splice contract, non-isotopy
claim, acceptance check, corpus value) is a `Certificate` with an
explicit pass/fail/skipped/paper-cited status. Its invariant reports are
the JSON form of a `Closure` (`invariants.full_report`). The corpus is a
set of band words with expected-value sidecars generated from the
independent oracles (Burau, brute-force state sum, hand counts);
acceptance criterion 2 replays it against each word's `Closure`.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace

from . import __version__
from .invariants import BudgetExceeded, Closure
from .laurent import LaurentPolynomial
from .words import BandWord, parse_band_word

SCHEMA_VERSION = "1"


@dataclass(frozen=True)
class Certificate:
    """One exact check, as it appears in every ledger and report."""

    name: str
    status: str  # "pass" | "fail" | "skipped" | "paper-cited"
    detail: str = ""

    @classmethod
    def of(cls, name: str, ok: bool, detail: str = "") -> Certificate:
        return cls(name, "pass" if ok else "fail", detail)

    def to_json_dict(self) -> dict:
        return {"name": self.name, "status": self.status, "detail": self.detail}


@dataclass
class ReportEnvelope:
    """Top-level JSON payload of every CLI subcommand."""

    subcommand: str
    inputs: dict
    tool_version: str = __version__
    schema_version: str = SCHEMA_VERSION
    reports: list[dict] = field(default_factory=list)
    family: list[dict] = field(default_factory=list)
    certificates: list[dict] = field(default_factory=list)
    error: dict | None = None
    timing_s: float = 0.0
    _started: float = field(default_factory=time.perf_counter, repr=False)

    def finish(self) -> ReportEnvelope:
        self.timing_s = round(time.perf_counter() - self._started, 3)
        return self

    def to_json(self) -> str:
        payload = {
            "schema_version": self.schema_version,
            "tool_version": self.tool_version,
            "subcommand": self.subcommand,
            "inputs": self.inputs,
            "reports": self.reports,
            "family": self.family,
            "certificates": self.certificates,
            "error": self.error,
            "timing_s": self.timing_s,
        }
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> ReportEnvelope:
        data = json.loads(text)
        env = cls(
            subcommand=data["subcommand"],
            inputs=data["inputs"],
            tool_version=data["tool_version"],
            schema_version=data["schema_version"],
            reports=data["reports"],
            family=data["family"],
            certificates=data["certificates"],
            error=data["error"],
        )
        env.timing_s = data["timing_s"]
        return env


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    word: BandWord
    expected: dict


def _corpus_dir():
    from importlib import resources

    return resources.files("sqpbands").joinpath("data/corpus")


def load_corpus() -> list[CorpusEntry]:
    """Parse the bundled corpus words with their expected-value sidecars."""
    root = _corpus_dir()
    entries = []
    for line in root.joinpath("corpus.bands").read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, strands, *tokens = line.split()
        word = parse_band_word(" ".join(tokens), int(strands))
        sidecar = root.joinpath(f"{name}.expected.json")
        expected = json.loads(sidecar.read_text())
        entries.append(CorpusEntry(name, word, expected))
    return entries


def compare_with_expected(
    entry: CorpusEntry, closure: Closure, budget: int
) -> list[Certificate]:
    """Check a band word's closure record against its corpus sidecar.

    One `corpus:<entry>:<field>` certificate per sidecar field. Jones is
    computed only when the sidecar holds a value, and is `skipped` when
    `budget` refuses it.
    """
    exp = entry.expected
    surface = closure.surface
    delta = closure.alexander
    want_delta = LaurentPolynomial.from_pairs(exp["alexander"])
    certs = [
        Certificate.of("components", closure.permutation.cycle_count() == exp["components"]),
        Certificate.of("chi", surface.chi == exp["chi"]),
        Certificate.of("betti", surface.betti == exp["betti"]),
        Certificate.of("linking", [list(r) for r in closure.linking] == exp["linking"]),
        Certificate.of("alexander", delta.is_unit_equivalent(want_delta), delta.format()),
        Certificate.of("determinant", closure.determinant == exp["determinant"]),
    ]
    if exp.get("signature") is not None:
        certs.append(Certificate.of("signature", closure.signature == exp["signature"]))
    if exp.get("component_alexander") is not None:
        want = [LaurentPolynomial.from_pairs(p) for p in exp["component_alexander"]]
        polys = [c.alexander for c in closure.component_records]
        ok = len(want) == len(polys) and all(
            a.is_unit_equivalent(b) for a, b in zip(polys, want)
        )
        certs.append(Certificate.of("component-alexander", ok))
    if exp.get("jones") is not None:
        jones = closure.jones(budget)
        if isinstance(jones, BudgetExceeded):
            certs.append(Certificate("jones", "skipped", f"strand budget {budget}"))
        else:
            ok = jones == LaurentPolynomial.from_pairs(exp["jones"])
            certs.append(Certificate.of("jones", ok, jones.format("t", 4)))
    return [replace(c, name=f"corpus:{entry.name}:{c.name}") for c in certs]
