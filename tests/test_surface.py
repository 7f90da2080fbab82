from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sqpbands import (
    BandWord,
    SurfaceGraph,
    is_unlink_surface,
    parse_band_word,
    surface_graph,
    trace_boundary,
    underlying_permutation,
)
from sqpbands.surface import TracingBugError

from wordgen import ALPHA_TEXT, band_words


@pytest.fixture
def alpha():
    return parse_band_word(ALPHA_TEXT, 8)


def test_alpha_graph_is_connected_cycle(alpha):
    graph = surface_graph(alpha)
    assert graph.vertices == 8
    assert len(graph.edges) == 8
    assert graph.component_count == 1
    # the retraction graph of an annulus word is a single cycle
    assert set(graph.non_bridge_edges()) == set(range(1, 9))


def test_empty_word_graph():
    graph = surface_graph(BandWord(3, ()))
    assert graph.component_count == 3
    assert graph.is_forest()


def test_trefoil_graph_parallel_edges():
    graph = surface_graph(BandWord(2, ((1, 2),) * 3))
    assert graph.vertices == 2 and len(graph.edges) == 3
    assert graph.component_count == 1
    assert not graph.is_forest()


def test_euler_characteristic_examples(alpha):
    assert trace_boundary(alpha).chi == 0
    assert trace_boundary(BandWord(1, ())).chi == 1
    assert trace_boundary(BandWord(2, ((1, 2),) * 3)).chi == -1


def test_first_betti_examples(alpha):
    assert trace_boundary(alpha).betti == 1
    assert trace_boundary(BandWord(4, ((1, 2), (3, 4)))).betti == 0
    assert trace_boundary(BandWord(2, ((1, 2),) * 3)).betti == 2


def test_boundary_trace_hopf():
    trace = trace_boundary(BandWord(2, ((1, 2), (1, 2))))
    assert trace.count == 2
    assert trace.sides_split(1) and trace.sides_split(2)


def test_boundary_trace_trefoil():
    assert trace_boundary(BandWord(2, ((1, 2),) * 3)).count == 1


def test_boundary_trace_alpha(alpha):
    assert trace_boundary(alpha).count == 2


def test_genus_profile_examples(alpha):
    assert trace_boundary(alpha).genus_profile == ((0, 0, 2),)
    assert trace_boundary(BandWord(2, ((1, 2),) * 3)).genus_profile == ((0, 1, 1),)
    assert trace_boundary(BandWord(2, ())).genus_profile == ((0, 0, 1), (1, 0, 1))


def test_is_unlink_surface_examples():
    assert is_unlink_surface(BandWord(3, ()))
    assert is_unlink_surface(BandWord(2, ((1, 2),)))
    assert not is_unlink_surface(BandWord(2, ((1, 2), (1, 2))))


@given(band_words())
def test_boundary_count_matches_permutation(word):
    assert trace_boundary(word).count == underlying_permutation(word).cycle_count()


@given(band_words())
def test_chi_plus_betti_is_component_count(word):
    trace = trace_boundary(word)
    chi = word.strands - len(word.letters)
    assert trace.chi == chi
    assert chi + trace.betti == surface_graph(word).component_count


@given(band_words())
def test_genus_sum_identity(word):
    profile = trace_boundary(word).genus_profile
    assert all(g >= 0 for _, g, _ in profile)
    assert sum(2 - 2 * g - b for _, g, b in profile) == word.strands - len(word.letters)


@given(band_words())
def test_unlink_iff_betti_zero(word):
    assert is_unlink_surface(word) == (trace_boundary(word).betti == 0)


@given(band_words())
def test_circle_cycle_map_is_bijection(word):
    trace = trace_boundary(word)
    assert sorted(trace.circle_of_cycle) == list(range(trace.count))


@st.composite
def words_with_doubled_bands(draw):
    """A band word with one to three of its letters repeated at random positions."""
    word = draw(band_words())
    letters = list(word.letters)
    if letters:
        for letter in draw(st.lists(st.sampled_from(word.letters), min_size=1, max_size=3)):
            letters.insert(draw(st.integers(0, len(letters))), letter)
    return BandWord(word.strands, tuple(letters))


@given(words_with_doubled_bands())
def test_non_bridge_edges_match_deletion(word):
    # A band is on a cycle iff deleting it keeps the component count.
    graph = surface_graph(word)

    def on_cycle(pos):
        rest = BandWord(word.strands, word.letters[: pos - 1] + word.letters[pos:])
        return surface_graph(rest).component_count == graph.component_count

    expected = tuple(pos for pos in range(1, len(word.letters) + 1) if on_cycle(pos))
    assert graph.non_bridge_edges() == expected
    for comp in range(graph.component_count):
        in_comp = {pos for pos, _, _ in graph.edges_in(comp)}
        assert graph.non_bridge_edges(comp) == tuple(p for p in expected if p in in_comp)


def test_negative_betti_raises_even_without_asserts():
    """The b1 and genus checks are explicit raises, so they survive python -O."""
    trace = trace_boundary(BandWord(2, ((1, 2),)))
    # A graph claiming one surface component over two disks and no bands:
    # chi = 2 gives b1 = -1, and one circle gives an odd 2 - chi - b.
    broken = replace(trace, graph=SurfaceGraph(2, (), (0, 0)))
    with pytest.raises(TracingBugError, match="negative first Betti"):
        broken.betti
    with pytest.raises(TracingBugError, match="impossible parity"):
        broken.genus_profile
