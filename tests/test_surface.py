import pytest
from hypothesis import given
from hypothesis import strategies as st

from sqpbands import (
    BandWord,
    euler_characteristic,
    first_betti,
    genus_profile,
    is_unlink_surface,
    parse_band_word,
    surface_graph,
    trace_boundary,
    underlying_permutation,
)

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
    assert euler_characteristic(alpha) == 0
    assert euler_characteristic(BandWord(1, ())) == 1
    assert euler_characteristic(BandWord(2, ((1, 2),) * 3)) == -1


def test_first_betti_examples(alpha):
    assert first_betti(alpha) == 1
    assert first_betti(BandWord(4, ((1, 2), (3, 4)))) == 0
    assert first_betti(BandWord(2, ((1, 2),) * 3)) == 2


def test_boundary_trace_hopf():
    trace = trace_boundary(BandWord(2, ((1, 2), (1, 2))))
    assert trace.count == 2
    assert trace.sides_split(1) and trace.sides_split(2)


def test_boundary_trace_trefoil():
    assert trace_boundary(BandWord(2, ((1, 2),) * 3)).count == 1


def test_boundary_trace_alpha(alpha):
    assert trace_boundary(alpha).count == 2


def test_genus_profile_examples(alpha):
    assert genus_profile(alpha) == [(0, 0, 2)]
    assert genus_profile(BandWord(2, ((1, 2),) * 3)) == [(0, 1, 1)]
    assert genus_profile(BandWord(2, ())) == [(0, 0, 1), (1, 0, 1)]


def test_is_unlink_surface_examples():
    assert is_unlink_surface(BandWord(3, ()))
    assert is_unlink_surface(BandWord(2, ((1, 2),)))
    assert not is_unlink_surface(BandWord(2, ((1, 2), (1, 2))))


@given(band_words())
def test_boundary_count_matches_permutation(word):
    assert trace_boundary(word).count == underlying_permutation(word).cycle_count()


@given(band_words())
def test_chi_plus_betti_is_component_count(word):
    graph = surface_graph(word)
    assert euler_characteristic(word) + first_betti(word) == graph.component_count


@given(band_words())
def test_genus_sum_identity(word):
    profile = genus_profile(word)
    assert all(g >= 0 for _, g, _ in profile)
    assert sum(2 - 2 * g - b for _, g, b in profile) == euler_characteristic(word)


@given(band_words())
def test_unlink_iff_betti_zero(word):
    assert is_unlink_surface(word) == (first_betti(word) == 0)


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


def test_negative_betti_raises_even_without_asserts(monkeypatch):
    import sys

    from sqpbands.surface import TracingBugError

    surface = sys.modules["sqpbands.surface"]
    monkeypatch.setattr(surface, "euler_characteristic", lambda word: word.strands + 1)
    with pytest.raises(TracingBugError):
        first_betti(BandWord(2, ((1, 2),)))
