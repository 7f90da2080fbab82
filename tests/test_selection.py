from dataclasses import replace

import pytest
from hypothesis import given, settings

from sqpbands import (
    BandSelection,
    BandWord,
    Closure,
    RelocationLostError,
    UnlinkInputError,
    classify_and_select,
    is_unlink_surface,
    parse_band_word,
    persistent_selection,
    surface_graph,
    trace_boundary,
)

from wordgen import ALPHA_TEXT, band_words

HOPF = BandWord(2, ((1, 2), (1, 2)))
TREFOIL = BandWord(2, ((1, 2), (1, 2), (1, 2)))


def test_hopf_is_case1_band1():
    sel = classify_and_select(HOPF)
    assert sel.case == "Case1" and sel.band == 1


def test_trefoil_is_case2_band1():
    sel = classify_and_select(TREFOIL)
    assert sel.case == "Case2" and sel.band == 1
    assert sel.component == 0 and sel.boundary_knot == 0


def test_unlink_inputs_rejected():
    for word in (BandWord(1, ()), BandWord(3, ()), BandWord(2, ((1, 2),))):
        with pytest.raises(UnlinkInputError):
            classify_and_select(word)


def test_alpha_selects_case1():
    sel = classify_and_select(parse_band_word(ALPHA_TEXT, 8))
    assert sel.case == "Case1" and sel.band == 1


def test_case2_selected_edge_is_non_bridge():
    sel = classify_and_select(TREFOIL)
    graph = surface_graph(TREFOIL)
    assert sel.band in graph.non_bridge_edges(sel.component)


@given(band_words())
@settings(max_examples=80)
def test_selection_properties(word):
    if is_unlink_surface(word):
        with pytest.raises(UnlinkInputError):
            classify_and_select(word)
        return
    sel = classify_and_select(word)
    trace = trace_boundary(word)
    split_bands = [b for b in range(1, len(word.letters) + 1) if trace.sides_split(b)]
    if split_bands:
        # Case 1 priority with first-in-word tie-breaking
        assert sel.case == "Case1" and sel.band == split_bands[0]
    else:
        assert sel.case == "Case2"
        graph = surface_graph(word)
        assert sel.band in graph.non_bridge_edges(sel.component)
        # removing the edge keeps its component connected
        remaining = tuple(
            e for e in word.letters[: sel.band - 1] + word.letters[sel.band :]
        )
        sub = BandWord(word.strands, remaining)
        assert surface_graph(sub).component_count == graph.component_count
        # the component bounds a single circle
        circles = [
            b for b, c in enumerate(trace.surface_component_of) if c == sel.component
        ]
        assert len(circles) == 1
    # determinism, and the same answer from the word's closure record
    assert classify_and_select(word) == sel
    assert classify_and_select(Closure(word)) == sel


def test_identity_relocation_is_noop():
    sel = classify_and_select(HOPF)
    same = persistent_selection(sel, HOPF, {1: 1, 2: 2})
    assert same == sel


def test_relocation_to_wrong_band_raises():
    sel = classify_and_select(TREFOIL)
    # band 1 of the hopf word is split-sided, so a Case2 selection fails there
    with pytest.raises(RelocationLostError):
        persistent_selection(sel, HOPF, {sel.band: 1})


def test_relocation_without_image_raises():
    sel = classify_and_select(TREFOIL)
    with pytest.raises(RelocationLostError):
        persistent_selection(sel, TREFOIL, {})


@pytest.mark.parametrize("case", ["Case1", "Case2"])
@pytest.mark.parametrize("target", [0, 3])
def test_relocation_out_of_range_raises(case, target):
    # Band 0 would read the last letter and band 3 would index past the end.
    word = BandWord(6, ((1, 4), (1, 5)))
    with pytest.raises(RelocationLostError):
        persistent_selection(BandSelection(case, 1), word, {1: target})


def test_failed_self_check_raises_even_without_asserts():
    """The Case2 self-check is an explicit raise, so it survives python -O."""
    from sqpbands.surface import TracingBugError

    closure = Closure(TREFOIL)
    # A surface record whose one component claims two circles: the search
    # finds band 1 on a cycle, and the Case2 rule then refuses it.
    closure.surface = replace(closure.surface, surface_component_of=(0, 0))
    with pytest.raises(TracingBugError, match="fails its own defining property"):
        classify_and_select(closure)
