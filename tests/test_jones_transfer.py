"""Differential and metamorphic tests of the Temperley-Lieb transfer.

`_bracket_tl` closes each outer strand once no later letter touches its
column, on the cyclic rotation of the word that `_cheapest_rotation`
picks. `tl_oracle` keeps the transfer as it was before: every letter at
the full strand count and the closure loops counted after the last letter.
The two must give `==` brackets, and so `==` Jones polynomials.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tl_oracle
from sqpbands import ArtinWord, BandWord, family, jones_tl, kauffman_bracket_bruteforce
from sqpbands.invariants import _bracket_tl, _cheapest_rotation, _jones_from_bracket

from wordgen import artin_words


def _seeded_words(seed: int, count: int) -> list[ArtinWord]:
    """Mixed-sign words on 1-9 strands with 0-45 letters.

    Every other word narrows the columns it draws from as it goes, so that
    its outer columns end before its last letter.
    """
    rng = random.Random(seed)
    words = []
    for i in range(count):
        n = rng.randint(1, 9)
        lo, hi = 1, n - 1
        letters = []
        for _ in range(0 if n == 1 else rng.randint(0, 45)):
            if i % 2 and lo < hi and rng.random() < 0.15:
                if rng.random() < 0.5:
                    lo += 1
                else:
                    hi -= 1
            letters.append((rng.randint(lo, hi), rng.choice((1, -1))))
        words.append(ArtinWord(n, tuple(letters)))
    return words


WORDS = _seeded_words(2025, 3000)


def _closes_early(word: ArtinWord) -> tuple[bool, bool]:
    """Whether the transfer closes strand 1, and the last strand, before the
    last letter of the rotation it runs on."""
    letters = _cheapest_rotation(word)
    last = {k: pos for pos, (k, _) in enumerate(letters)}
    end = len(letters) - 1
    return last.get(1, -1) < end, last.get(word.strands - 1, -1) < end


def test_seeded_words_close_outer_strands_mid_word():
    early = [_closes_early(w) for w in WORDS if w.strands >= 3 and w.letters]
    assert sum(left for left, _ in early) >= 1000
    assert sum(right for _, right in early) >= 1000
    assert sum(left and right for left, right in early) >= 500


def test_transfer_matches_oracle_on_seeded_words():
    for word in WORDS:
        expected = tl_oracle._bracket_tl(word)
        assert _bracket_tl(word) == expected, word
        jones = _jones_from_bracket(expected, word.exponent_sum())
        assert jones_tl(word, budget=9) == jones, word


def test_transfer_matches_oracle_on_empty_words():
    for n in range(1, 7):
        word = ArtinWord(n, ())
        assert _bracket_tl(word) == tl_oracle._bracket_tl(word)
        assert jones_tl(word) == tl_oracle.jones_oracle(word)


@pytest.mark.parametrize(
    ("seed", "records"),
    [(BandWord(2, ((1, 2),) * 3), 2), (BandWord(2, ((1, 2),) * 2), 6)],
    ids=["trefoil", "hopf"],
)
def test_transfer_matches_oracle_on_step_1_family_records(seed, records):
    checked = 0
    for step in family(seed, 1):
        whole = step.closure
        for record in (whole, *(c for c in whole.component_records if c is not whole)):
            # The diagram jones_tl runs on, and the unsimplified input word.
            assert record.jones(budget=12) == tl_oracle.jones_oracle(record.simplified)
            assert _bracket_tl(record.artin) == tl_oracle._bracket_tl(record.artin)
            checked += 1
    assert checked == records


@given(artin_words(max_strands=7, max_len=14))
@settings(max_examples=60, deadline=None)
def test_jones_is_the_same_on_every_rotation(word):
    bracket, jones = _bracket_tl(word), jones_tl(word)
    for r in range(1, len(word.letters)):
        rotated = ArtinWord(word.strands, word.letters[r:] + word.letters[:r])
        assert _bracket_tl(rotated) == bracket
        assert jones_tl(rotated) == jones


@st.composite
def words_with_early_outer_columns(draw, max_strands=6, max_len=10):
    """A head that touches every column it likes but starts on column 1 and
    ends on column n - 1, then a tail that leaves column 1, column n - 1 or
    both: the transfer closes those strands after the head."""
    n = draw(st.integers(3, max_strands))
    drop_left, drop_right = draw(
        st.sampled_from([(1, 0), (0, 1)] + ([(1, 1)] if n >= 4 else []))
    )
    sign = st.sampled_from((1, -1))
    middle = draw(st.lists(st.tuples(st.integers(1, n - 1), sign), max_size=max_len - 3))
    head = [(1, draw(sign)), *middle, (n - 1, draw(sign))]
    columns = st.integers(1 + drop_left, n - 1 - drop_right)
    tail = draw(st.lists(st.tuples(columns, sign), min_size=1, max_size=max_len - len(head)))
    return ArtinWord(n, tuple(head + tail))


@given(words_with_early_outer_columns())
@settings(max_examples=60, deadline=None)
def test_transfer_matches_bruteforce_when_outer_columns_end_early(word):
    expected = kauffman_bracket_bruteforce(word)
    assert _jones_from_bracket(_bracket_tl(word), word.exponent_sum()) == expected
    assert jones_tl(word, budget=8) == expected
    assert tl_oracle.jones_oracle(word) == expected


def _model_cost(letters: tuple[tuple[int, int], ...], n: int) -> int:
    """Sum over the letters of Catalan(strands live at the letter), closing
    an outer strand as soon as no later letter touches its column."""
    last = {k: pos for pos, (k, _) in enumerate(letters)}
    lo, hi, cost = 1, n - 1, 0
    for pos in range(len(letters)):
        while lo <= hi and last.get(lo, -1) < pos:
            lo += 1
        while lo <= hi and last.get(hi, -1) < pos:
            hi -= 1
        live = hi - lo + 2
        cost += math.comb(2 * live, live) // (live + 1)
    return cost


def test_cheapest_rotation_minimises_the_cost_model():
    improved = 0
    for word in _seeded_words(11, 400):
        letters = _cheapest_rotation(word)
        m = len(letters)
        rotations = [word.letters[r:] + word.letters[:r] for r in range(max(m, 1))]
        assert letters in rotations
        if word.strands < 6:
            assert letters == word.letters  # the search is bounded to 6+ strands
            continue
        costs = [_model_cost(r, word.strands) for r in rotations]
        assert _model_cost(letters, word.strands) == min(costs), word
        # The first rotation of least cost: a word no rotation improves keeps its order.
        assert letters == rotations[costs.index(min(costs))]
        improved += min(costs) < costs[0]
    assert improved >= 50
