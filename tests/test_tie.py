import random
from dataclasses import replace

import pytest

from sqpbands import (
    BandWord,
    Closure,
    LaurentPolynomial,
    OracleViolationError,
    SelectionInvalidError,
    UnlinkInputError,
    bundled_alpha,
    classify_and_select,
    family,
    jones_tl,
    linking_matrix,
    persistent_selection,
    surface_graph,
    tb_connected_sum,
    tie,
    trace_boundary,
    trivial_annulus,
    underlying_permutation,
)

from wordgen import random_sqp_word

HOPF = BandWord(2, ((1, 2), (1, 2)))
TREFOIL = BandWord(2, ((1, 2), (1, 2), (1, 2)))
COMPANION_DELTA = LaurentPolynomial({0: 2, 1: -5, 2: 2})
TREFOIL_DELTA = LaurentPolynomial({0: 1, 1: -1, 2: 1})


# -- annulus objects ------------------------------------------------------


def test_bundled_alpha_invariants():
    ann = bundled_alpha()
    assert ann.strands == 8 and len(ann.word.letters) == 8
    assert ann.designated_band == 8
    assert trace_boundary(ann.word).chi == 0
    assert underlying_permutation(ann.word).cycle_count() == 2
    assert ann.companion_alexander.is_unit_equivalent(COMPANION_DELTA)


def test_trivial_annulus_invariants():
    ann = trivial_annulus()
    assert trace_boundary(ann.word).chi == 0
    assert surface_graph(ann.word).component_count == 1
    assert trace_boundary(ann.word).count == 2
    assert linking_matrix(ann.word.expand_to_artin())[0][1] == 1
    assert ann.companion_alexander == LaurentPolynomial.one()


def test_annulus_validation_rejects_non_annulus():
    with pytest.raises(ValueError):
        replace(trivial_annulus(), word=TREFOIL)


def test_bundled_alpha_is_built_once_and_still_validated():
    assert bundled_alpha() is bundled_alpha()
    assert trivial_annulus() is trivial_annulus()
    with pytest.raises(ValueError):
        replace(bundled_alpha(), designated_band=99)


def test_annulus_validation_checks_the_companion_polynomial():
    # b(4,7) -> b(4,6) keeps chi, connectivity, two circles and linking +1,
    # but both boundary circles become unknots.
    letters = bundled_alpha().word.letters[:-1] + ((4, 6),)
    with pytest.raises(ValueError, match="Alexander"):
        replace(bundled_alpha(), word=BandWord(8, letters))


# -- single ties -----------------------------------------------------------


def test_trivial_tie_on_trefoil_is_invariant_neutral():
    result = tie(trivial_annulus(), TREFOIL, classify_and_select(TREFOIL))
    assert result.word.strands == 4
    before, after = Closure(TREFOIL), Closure(result.word)
    assert after.permutation.cycle_count() == before.permutation.cycle_count() == 1
    assert after.alexander.is_unit_equivalent(before.alexander)
    assert after.signature == before.signature == -2
    assert after.determinant == before.determinant == 3
    assert after.jones() == before.jones()


def test_bundled_tie_on_hopf_case1():
    result = tie(bundled_alpha(), HOPF, classify_and_select(HOPF))
    assert result.word.strands == 10 and len(result.word.letters) == 10
    closure = result.closure
    assert closure.permutation.cycle_count() == 2
    assert closure.linking[0][1] == 1
    for record in closure.component_records:
        assert record.alexander.is_unit_equivalent(COMPANION_DELTA)


def test_bundled_tie_on_trefoil_case2():
    result = tie(bundled_alpha(), TREFOIL, classify_and_select(TREFOIL))
    assert result.word.strands == 10
    closure = result.closure
    assert closure.permutation.cycle_count() == 1
    assert closure.alexander.is_unit_equivalent(TREFOIL_DELTA)
    assert closure.signature == -2
    assert jones_tl(result.word) != jones_tl(TREFOIL)


def test_tie_relocation_map_shape():
    result = tie(bundled_alpha(), TREFOIL, classify_and_select(TREFOIL))
    reloc = result.band_relocation
    assert sorted(reloc) == [1, 2, 3]
    assert len(set(reloc.values())) == 3
    # survivors keep order; the selected band points at the marked letter
    assert reloc[2] == 2 + 8 and reloc[3] == 3 + 8
    assert reloc[1] == 8  # 7 annulus survivors then the first splice letter
    assert result.word.letters[reloc[1] - 1] == (7, 10)


def test_tie_rejects_stale_selection():
    sel = classify_and_select(TREFOIL)
    with pytest.raises(SelectionInvalidError):
        tie(bundled_alpha(), HOPF, replace(sel, band=3))


def test_broken_template_trips_oracles():
    bad = replace(bundled_alpha(), splice=(("a1", "p"), ("a2", "q")))
    with pytest.raises(OracleViolationError):
        tie(bad, HOPF, classify_and_select(HOPF))


# -- families ---------------------------------------------------------------


def test_family_zero_steps_returns_seed():
    steps = family(TREFOIL, 0)
    assert len(steps) == 1 and steps[0].word == TREFOIL
    assert steps[0].band_relocation == {1: 1, 2: 2, 3: 3}


def test_family_rejects_unlink():
    with pytest.raises(UnlinkInputError):
        family(BandWord(2, ((1, 2),)), 1)


def test_hopf_family_polynomial_growth():
    steps = family(HOPF, 2)
    assert [s.word.strands for s in steps] == [2, 10, 18]
    for i, step in enumerate(steps):
        want = (COMPANION_DELTA ** i).normalized()
        records = step.closure.component_records
        assert len(records) == 2
        for record in records:
            assert record.alexander.is_unit_equivalent(want)


def test_trefoil_family_concordance_invariants():
    steps = family(TREFOIL, 2)
    for step in steps:
        assert step.closure.alexander.is_unit_equivalent(TREFOIL_DELTA)
        assert step.closure.signature == -2


def test_family_selection_persists_through_relocations():
    steps = family(TREFOIL, 2)
    sel = steps[0].selection
    sel1 = persistent_selection(sel, steps[1].word, steps[1].band_relocation)
    assert sel1.case == "Case2"
    assert steps[2].selection == sel1


def test_trivial_family_control():
    steps = family(TREFOIL, 2, annulus=trivial_annulus())
    for step in steps:
        record = Closure(step.word)
        assert record.permutation.cycle_count() == 1
        assert record.alexander.is_unit_equivalent(TREFOIL_DELTA)
        assert record.signature == -2


def test_random_seeds_tie_cleanly():
    rng = random.Random(5150)
    ann = bundled_alpha()
    for _ in range(8):
        seed = random_sqp_word(rng, max_strands=5, max_len=8, non_unlink=True)
        result = tie(ann, seed, classify_and_select(seed))
        assert all(c.status != "fail" for c in result.certificates)
        assert result.word.strands == seed.strands + 8


def test_random_seeds_trivial_control_is_neutral():
    """Unknot-companion splices keep every invariant, Jones included."""
    rng = random.Random(6001)
    ann = trivial_annulus()
    for _ in range(5):
        seed = random_sqp_word(rng, max_strands=4, max_len=7, non_unlink=True)
        result = tie(ann, seed, classify_and_select(seed))
        before, after = Closure(seed), Closure(result.word)
        assert after.permutation.cycle_count() == before.permutation.cycle_count()
        assert after.linking == before.linking
        assert after.alexander.is_unit_equivalent(before.alexander)
        assert after.signature == before.signature
        assert after.jones() == before.jones()
        assert [c.alexander.normalized() for c in after.component_records] == [
            c.alexander.normalized() for c in before.component_records
        ]


# -- TB arithmetic -----------------------------------------------------------


def test_tb_connected_sum_examples():
    assert tb_connected_sum([-1]) == -1
    for m in range(1, 11):
        assert tb_connected_sum([-1] * m) == -1
    assert tb_connected_sum([-1, -2]) == -2
    with pytest.raises(ValueError):
        tb_connected_sum([])
