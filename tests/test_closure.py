"""The per-closure record: one determinant per closure, same answers as the oracles."""

import gc
import random
import sys
import weakref
from collections import Counter

import pytest

from sqpbands import (
    BandWord,
    BudgetExceeded,
    Closure,
    LaurentPolynomial,
    alexander,
    bundled_alpha,
    burau_alexander_oracle,
    extract_component,
    family,
    family_ledger,
    full_report,
    kauffman_bracket_bruteforce,
    retract_leaf_disks,
    seifert_matrix,
    signature,
    simplify_closure_word,
    trace_boundary,
)
from sqpbands import invariants, surface
from sqpbands.invariants import _diagram_is_split

HOPF = BandWord(2, ((1, 2), (1, 2)))
TREFOIL = BandWord(2, ((1, 2), (1, 2), (1, 2)))


@pytest.fixture(scope="module")
def families():
    """family(seed, 2) and a report per step, with every sparse_laurent_det size seen."""
    out = {}
    # Validate the annulus outside the spy, so only the families' determinants count.
    bundled_alpha()
    original = invariants.sparse_laurent_det
    for name, seed in (("trefoil", TREFOIL), ("hopf", HOPF)):
        sizes = []

        def spy(rows, sizes=sizes):
            sizes.append(len(rows))
            return original(rows)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(invariants, "sparse_laurent_det", spy)
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


@pytest.mark.parametrize("seed", [TREFOIL, HOPF], ids=["trefoil", "hopf"])
def test_a_reported_record_is_freed_without_the_cycle_collector(seed):
    # A record that refers to itself would wait, with its simplified word,
    # Seifert matrix, surface trace and Jones, for a cyclic GC pass.
    enabled = gc.isenabled()
    gc.disable()
    try:
        record = Closure(seed)
        full_report(record)
        ref = weakref.ref(record)
        del record
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


# -- Leaf-disk retraction ----------------------------------------------


@pytest.fixture(scope="module")
def random_band_words():
    """The distinct words among 3000 seeded draws: 1-7 strands, 0-10 bands."""
    rng = random.Random(20261018)
    words = {}
    for _ in range(3000):
        n = rng.randint(1, 7)
        count = rng.randint(0, 10) if n > 1 else 0
        letters = tuple(tuple(sorted(rng.sample(range(1, n + 1), 2))) for _ in range(count))
        words.setdefault(BandWord(n, letters))
    return list(words)


def _retraction_mismatches(words):
    """(word, field) for each value where a band word's record, whose diagram
    starts from the leaf-retracted word, differs from the record of its Artin
    expansion, which never retracts. A word with no leaf disk must give both
    records one diagram. The others are compared invariant by invariant, and
    those of at most 10 Artin letters also against the state sum over the
    Artin record's diagram."""
    bad = []
    for word in words:
        band, artin = Closure(word), Closure(word.expand_to_artin())
        if retract_leaf_disks(word) == word:
            if band.simplified != artin.simplified:
                bad.append((word, "diagram"))
            continue
        for name in ("alexander", "signature", "determinant"):
            if getattr(band, name) != getattr(artin, name):
                bad.append((word, name))
        band_comps = [c.alexander for c in band.component_records]
        if band_comps != [c.alexander for c in artin.component_records]:
            bad.append((word, "component_alexander"))
        if band.jones() != artin.jones():
            bad.append((word, "jones"))
        if len(artin.artin) <= 10 and band.jones() != kauffman_bracket_bruteforce(
            artin.simplified
        ):
            bad.append((word, "jones-state-sum"))
    return bad


def _retract_without_renumbering(word):
    """A broken retraction: drops each leaf's band but leaves the disks as
    they were numbered, so every retracted disk stays behind bare."""
    letters = list(word.letters)
    while True:
        degree = Counter(d for band in letters for d in band)
        leaf = next((p for p, (i, j) in enumerate(letters) if 1 in (degree[i], degree[j])), None)
        if leaf is None:
            return BandWord(word.strands, tuple(letters))
        del letters[leaf]


def test_retracted_diagrams_keep_every_closure_invariant(random_band_words):
    words = random_band_words
    assert _retraction_mismatches(words) == []
    # The check is not vacuous: a good share of the words get a smaller diagram.
    smaller = [
        w
        for w in words
        if len(Closure(w).simplified) < len(simplify_closure_word(w.expand_to_artin()))
    ]
    assert len(smaller) > len(words) // 5


def test_retraction_keeps_the_band_surface(random_band_words):
    for word in random_band_words:
        before, after = trace_boundary(word), trace_boundary(retract_leaf_disks(word))
        assert (after.chi, after.betti, after.count) == (before.chi, before.betti, before.count)
        # Surface components are labelled by their least disk, which a
        # retraction may renumber, so the profiles compare as multisets.
        assert sorted(g[1:] for g in after.genus_profile) == sorted(
            g[1:] for g in before.genus_profile
        )


def test_a_retraction_that_forgets_to_renumber_is_caught(random_band_words, monkeypatch):
    monkeypatch.setattr(invariants, "retract_leaf_disks", _retract_without_renumbering)
    assert _retraction_mismatches(random_band_words[:100])


def test_interior_leaf_disk_is_retracted():
    # Disk 2 meets only b(2,3); the Artin simplifier destabilizes only at
    # strands 1 and n, so it keeps all three strands of this Hopf link.
    word = BandWord(3, ((1, 3), (1, 3), (2, 3)))
    assert retract_leaf_disks(word) == HOPF
    assert simplify_closure_word(word.expand_to_artin()).strands == 3
    record, hopf = Closure(word), Closure(HOPF)
    assert record.simplified == hopf.simplified
    assert record.seifert.size == 1
    assert (record.alexander, record.signature, record.jones()) == (
        hopf.alexander,
        hopf.signature,
        hopf.jones(),
    )
    # The input word still answers for the diagram-level fields.
    assert record.artin == word.expand_to_artin() and record.strands == 3
    assert record.surface == trace_boundary(word)


def test_jones_budget_reads_the_input_strand_count():
    # A chain of 12 bands on 13 disks retracts to one bare disk.
    word = BandWord(13, tuple((i, i + 1) for i in range(1, 13)))
    record = Closure(word)
    assert record.simplified.strands == 1
    assert record.jones(12) == BudgetExceeded(13, 12)
    assert full_report(record, budget=12)["jones_budget_exceeded"]
    assert full_report(record, budget=13)["jones"] == LaurentPolynomial.one().to_pairs()
