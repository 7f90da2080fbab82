"""The per-closure record: one determinant per closure, same answers as the oracles."""

import sys

import pytest

from sqpbands import (
    BandWord,
    BudgetExceeded,
    LaurentPolynomial,
    alexander,
    bundled_alpha,
    burau_alexander_oracle,
    extract_component,
    family,
    family_ledger,
    full_report,
    seifert_matrix,
    signature,
    simplify_closure_word,
)
from sqpbands import invariants, surface
from sqpbands.invariants import _diagram_is_split

HOPF = BandWord(2, ((1, 2), (1, 2)))
TREFOIL = BandWord(2, ((1, 2), (1, 2), (1, 2)))


@pytest.fixture(scope="module")
def families():
    """family(seed, 2) and a report per step, with every laurent_det size seen."""
    out = {}
    # Validate the annulus outside the spy, so only the families' determinants count.
    bundled_alpha()
    original = invariants.laurent_det
    for name, seed in (("trefoil", TREFOIL), ("hopf", HOPF)):
        sizes = []

        def spy(matrix, sizes=sizes):
            sizes.append(len(matrix))
            return original(matrix)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(invariants, "laurent_det", spy)
            steps = family(seed, 2)
            for step in steps:
                full_report(step.closure, with_jones=False)
        out[name] = (steps, sizes)
    return out


def _spy_everywhere(mp, name, calls):
    """Record every call of `surface.<name>`, under each name the package binds it to."""
    original = getattr(surface, name)

    def spy(word):
        calls.append(word)
        return original(word)

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "sqpbands" and vars(module).get(name) is original:
            mp.setattr(module, name, spy)


@pytest.mark.parametrize("seed", [TREFOIL, HOPF], ids=["trefoil", "hopf"])
def test_family_reports_and_ledger_trace_each_band_word_once(seed):
    # Validate the annulus outside the spy, so only the family's words count.
    bundled_alpha()
    traces, graphs = [], []
    with pytest.MonkeyPatch.context() as mp:
        _spy_everywhere(mp, "trace_boundary", traces)
        _spy_everywhere(mp, "surface_graph", graphs)
        steps = family(seed, 2)
        for step in steps:
            full_report(step.closure, with_jones=False)
        family_ledger(steps, bundled_alpha())
    words = [step.word for step in steps]
    assert len(set(words)) == 3
    assert traces == words
    # The retraction graph is built only inside those traces.
    assert graphs == words


def test_trefoil_family_and_reports_take_one_determinant_per_closure(families):
    _, sizes = families["trefoil"]
    assert sorted(sizes) == [2, 54, 130]


def test_hopf_family_takes_one_determinant_per_distinct_diagram(families):
    steps, sizes = families["hopf"]
    diagrams = set()
    for step in steps:
        artin = step.word.expand_to_artin()
        comps = range(step.word.permutation.cycle_count())
        for word in (artin, *(extract_component(artin, c) for c in comps)):
            diagrams.add(simplify_closure_word(word))
    needed = [
        seifert_matrix(d).size
        for d in diagrams
        if not _diagram_is_split(d) and seifert_matrix(d).size
    ]
    assert sorted(sizes) == sorted(needed)


@pytest.mark.parametrize("name", ["hopf", "trefoil"])
def test_records_match_oracles_on_family_words(families, name):
    steps, _ = families[name]
    for step in steps:
        closure = step.closure
        artin = step.word.expand_to_artin()
        comps = closure.component_records
        words = [artin] + [extract_component(artin, c) for c in range(len(comps))]
        for record, word in zip((closure, *comps), words):
            assert record.alexander.is_unit_equivalent(burau_alexander_oracle(word))
            reduced = simplify_closure_word(word)
            v = seifert_matrix(reduced)
            split = _diagram_is_split(reduced)
            assert record.alexander == (LaurentPolynomial.zero() if split else alexander(v))
            assert record.signature == signature(v)


def test_family_ledger_reads_jones_from_the_records(families):
    steps = families["trefoil"][0][:2]
    rows = family_ledger(steps, bundled_alpha(), with_jones=True)
    assert [(s, c.name) for s, c in rows] == [
        (1, "a:euler"),
        (1, "b:surface-components"),
        (1, "c:boundary-components"),
        (1, "d:linking"),
        (1, "e:signature"),
        (1, "f:alexander"),
        (1, "non-isotopy-0-vs-1"),
    ]
    assert rows[-1][1].status == "pass"
    starved = family_ledger(steps, bundled_alpha(), with_jones=True, budget=4)
    assert starved[-1][1].status == "paper-cited"


def test_jones_runs_the_transfer_once_per_closure(monkeypatch):
    calls = []
    original = invariants.jones_tl

    def spy(word, budget):
        calls.append(budget)
        return original(word, budget)

    monkeypatch.setattr(invariants, "jones_tl", spy)
    record = invariants.Closure(TREFOIL)
    refused = record.jones(1)
    assert refused == BudgetExceeded(2, 1) and calls == []
    first = record.jones(2)
    assert record.jones() is first and record.jones(40) is first
    assert len(calls) == 1


def test_closure_simplifies_its_diagram_once(monkeypatch):
    calls = []
    original = invariants.simplify_closure_word

    def spy(word):
        calls.append(word)
        return original(word)

    monkeypatch.setattr(invariants, "simplify_closure_word", spy)
    record = invariants.Closure(TREFOIL)
    record.alexander, record.signature, record.jones()
    full_report(record)
    assert len(calls) == 1
