import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqpbands import (
    ArtinWord,
    BandWord,
    BudgetExceeded,
    Closure,
    LaurentPolynomial,
    SeifertMatrix,
    alexander,
    burau_alexander_oracle,
    extract_component,
    family,
    full_report,
    jones_tl,
    kauffman_bracket_bruteforce,
    linking_matrix,
    parse_artin_word,
    parse_band_word,
    seifert_matrix,
    signature,
    simplify_closure_word,
    slice_necessary,
    underlying_permutation,
)
from sqpbands.invariants import _diagram_is_split
from sqpbands.laurent import int_det, laurent_det

from wordgen import ALPHA_TEXT, artin_words, band_words, random_sqp_word

TREFOIL = ArtinWord(2, ((1, 1),) * 3)
FIG8 = ArtinWord(3, ((1, 1), (2, -1), (1, 1), (2, -1)))
HOPF = ArtinWord(2, ((1, 1),) * 2)

TREFOIL_DELTA = LaurentPolynomial({0: 1, 1: -1, 2: 1})
FIG8_DELTA = LaurentPolynomial({0: 1, 1: -3, 2: 1})
COMPANION_DELTA = LaurentPolynomial({0: 2, 1: -5, 2: 2})


def poly(text_pairs):
    return LaurentPolynomial(dict(text_pairs))


def intersection_determinant(v: SeifertMatrix) -> int:
    """det(V - V^T); +-1 exactly when the closure is a knot, else 0."""
    m = v.matrix
    return int_det([[m[i][j] - m[j][i] for j in range(v.size)] for i in range(v.size)])


# -- Seifert matrix and Alexander -------------------------------------


def test_empty_word_matrix_and_unknot():
    v = seifert_matrix(ArtinWord(1, ()))
    assert v.size == 0
    assert alexander(v) == LaurentPolynomial.one()


def test_trefoil_seifert_matrix():
    v = seifert_matrix(TREFOIL)
    assert v.size == 2
    assert alexander(v).is_unit_equivalent(TREFOIL_DELTA)
    assert abs(intersection_determinant(v)) == 1


def test_fig8_alexander():
    assert Closure(FIG8).alexander.is_unit_equivalent(FIG8_DELTA)


def test_matrix_size_is_betti_of_seifert_surface():
    word = ArtinWord(3, ((1, 1), (1, 1), (2, -1), (2, 1), (2, 1)))
    v = seifert_matrix(word)
    comps = 1  # both columns used, so the surface is connected
    chi = word.strands - len(word)
    assert v.size == comps - chi
    rng = random.Random(4242)
    words = [word]
    for i in range(40):
        n = rng.randint(2, 6)
        columns = list(range(1, n))
        if i % 2 and n > 2:  # leave one column empty: a split Seifert surface
            columns.remove(rng.choice(columns))
        length = rng.randint(0, 10)
        letters = tuple((rng.choice(columns), rng.choice((1, -1))) for _ in range(length))
        words.append(ArtinWord(n, letters))
    assert any(_diagram_is_split(w) for w in words)
    for w in words:
        assert full_report(w, with_jones=False)["betti"] == seifert_matrix(w).size


def test_alexander_via_extracted_alpha_component():
    alpha = parse_band_word(ALPHA_TEXT, 8).expand_to_artin()
    for comp in (0, 1):
        delta = Closure(extract_component(alpha, comp)).alexander
        assert delta.is_unit_equivalent(COMPANION_DELTA)
        assert abs(delta.evaluate_int(-1)) == 9


def test_signature_hyperbolic_zero_diagonal():
    v = SeifertMatrix(((0, 1), (0, 0)), ((1, 1, 2), (1, 2, 3)))
    assert signature(v) == 0  # V + V^T is the hyperbolic pairing


def test_burau_unknot_words_any_strand_count():
    for word in (
        ArtinWord(1, ()),
        ArtinWord(2, ((1, 1),)),
        ArtinWord(3, ((1, 1), (2, 1))),
        ArtinWord(4, ((1, 1), (2, -1), (3, 1))),
    ):
        assert burau_alexander_oracle(word).is_unit_equivalent(LaurentPolynomial.one())


def test_signature_anchors():
    assert signature(seifert_matrix(ArtinWord(1, ()))) == 0
    assert signature(seifert_matrix(TREFOIL)) == -2
    assert signature(seifert_matrix(ArtinWord(2, ((1, -1),) * 3))) == 2
    assert signature(seifert_matrix(FIG8)) == 0
    assert signature(seifert_matrix(HOPF)) == -1
    assert signature(seifert_matrix(ArtinWord(2, ((1, 1),) * 5))) == -4


# Independent signature oracle: no elimination at all. The characteristic
# polynomial of a symmetric matrix is real-rooted, so Descartes' rule of
# signs counts its positive and negative roots exactly.


def _charpoly(s):
    """Coefficients c_0..c_n of det(xI - s) by Faddeev-LeVerrier over ints."""
    n = len(s)
    c = [0] * n + [1]
    m = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        m = [[sum(s[i][l] * m[l][j] for l in range(n)) for j in range(n)] for i in range(n)]
        for i in range(n):
            m[i][i] += c[n - k + 1]
        c[n - k] = -sum(s[i][l] * m[l][i] for i in range(n) for l in range(n)) // k
    return c


def _sign_changes(coeffs):
    signs = [x > 0 for x in coeffs if x]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def signature_oracle(v: SeifertMatrix) -> int:
    n = v.size
    c = _charpoly([[v.matrix[i][j] + v.matrix[j][i] for j in range(n)] for i in range(n)])
    return _sign_changes(c) - _sign_changes([x if i % 2 == 0 else -x for i, x in enumerate(c)])


def _upper_half(s):
    """A SeifertMatrix V with V + V^T = s (s symmetric, even diagonal)."""
    n = len(s)
    rows = tuple(
        tuple(s[i][i] // 2 if i == j else s[i][j] if i < j else 0 for j in range(n))
        for i in range(n)
    )
    return SeifertMatrix(rows, tuple((0, i, i + 1) for i in range(n)))


@st.composite
def folding_forms(draw):
    """Symmetric forms whose elimination reaches an all-zero live diagonal
    after a first pivot d != 1, so the fold runs with prev = d."""
    d = draw(st.sampled_from((-4, -2, 2, 4)))
    ks = draw(st.lists(st.integers(-2, 2), min_size=2, max_size=7))
    n = len(ks) + 1
    s = [[0] * n for _ in range(n)]
    s[0][0] = d
    for i, k in enumerate(ks, start=1):
        # Schur complement diagonal: d k^2 - (d k)^2 / d = 0.
        s[0][i] = s[i][0] = d * k
        s[i][i] = d * k * k
        for j in range(i + 1, n):
            s[i][j] = s[j][i] = draw(st.integers(-3, 3))
    return _upper_half(s)


def test_signature_oracle_anchors():
    assert signature_oracle(seifert_matrix(TREFOIL)) == -2
    assert signature_oracle(seifert_matrix(FIG8)) == 0
    # Fold after the pivot 2: the Schur complement is [[0, 1], [1, 0]].
    assert signature_oracle(_upper_half([[2, 2, 2], [2, 2, 3], [2, 3, 2]])) == 1


@given(artin_words(max_strands=6, max_len=30))
@settings(max_examples=60, deadline=None)
def test_signature_matches_charpoly_oracle(word):
    v = seifert_matrix(word)
    assert signature(v) == signature_oracle(v)


@given(folding_forms())
@settings(max_examples=100, deadline=None)
def test_signature_matches_charpoly_oracle_after_fold(v):
    assert signature(v) == signature_oracle(v)


def _stale_folding_form(rng):
    """S = A^T B A with B = diag(d1, d2, H), H symmetric with zero diagonal,
    and A unit upper triangular with random entries only in rows 0 and 1.
    The elimination pivots d1 and then d1 d2; its live Schur complement is
    then H, so it folds. Rows with A[0][i] = 0 skip the first update and
    rows with A[1][i] = 0 the second, so the fold and the later pivots read
    rows left at older levels, and sigma(S) = sign d1 + sign d2 + sigma(H)."""
    n = rng.randint(4, 10)
    b = [[0] * n for _ in range(n)]
    b[0][0], b[1][1] = rng.choice((-6, -4, -2, 2, 4, 6)), rng.choice((-6, -4, -2, 2, 4, 6))
    for i in range(2, n):
        for j in range(i + 1, n):
            b[i][j] = b[j][i] = rng.choice((0, 0, -1, 1, -3, 3))
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    a[0][1] = rng.randint(-3, 3)
    for i in range(2, n):
        a[0][i] = rng.choice((0, rng.randint(-3, 3)))
        a[1][i] = rng.choice((0, rng.randint(-3, 3)))
    ba = [[sum(b[i][l] * a[l][j] for l in range(n)) for j in range(n)] for i in range(n)]
    return _upper_half(
        [[sum(a[l][i] * ba[l][j] for l in range(n)) for j in range(n)] for i in range(n)]
    )


def test_signature_matches_charpoly_oracle_on_stale_rows_at_the_fold():
    rng = random.Random(17)
    for _ in range(300):
        v = _stale_folding_form(rng)
        assert signature(v) == signature_oracle(v)


# -- linking matrix and components -------------------------------------


def test_linking_examples():
    assert linking_matrix(HOPF) == ((0, 1), (1, 0))
    assert linking_matrix(ArtinWord(2, ())) == ((0, 0), (0, 0))
    alpha = parse_band_word(ALPHA_TEXT, 8).expand_to_artin()
    assert linking_matrix(alpha) == ((0, 1), (1, 0))


def test_extract_component_hopf():
    sub = extract_component(HOPF, 0)
    assert sub.strands == 1 and len(sub) == 0


def test_extract_component_bad_index():
    with pytest.raises(IndexError):
        extract_component(HOPF, 2)


@given(artin_words())
@settings(max_examples=60)
def test_extract_components_cover_word(word):
    perm = underlying_permutation(word)
    total = sum(
        extract_component(word, c).strands for c in range(perm.cycle_count())
    )
    assert total == word.strands


# -- oracle agreement ---------------------------------------------------


@given(artin_words())
@settings(max_examples=60, deadline=None)
def test_seifert_pipeline_matches_burau(word):
    assert Closure(word).alexander.is_unit_equivalent(burau_alexander_oracle(word))


def _dense_alexander(v: SeifertMatrix) -> LaurentPolynomial:
    """det(V - tV^T) from every one of the n^2 entries, by the dense `laurent_det`."""
    m, n = v.matrix, v.size
    dense = [[LaurentPolynomial({0: m[i][j], 1: -m[j][i]}) for j in range(n)] for i in range(n)]
    return laurent_det(dense).normalized()


@pytest.mark.parametrize("seed", ["b(1,2) b(1,2) b(1,2)", "b(1,2) b(1,2)"])
def test_seifert_pipeline_matches_burau_on_step_3_family_words(seed):
    # Each record's Δ, read off the nonzero entries, also equals (==) the
    # dense determinant of the same Seifert matrix.
    steps = family(parse_band_word(seed, 2), 3)
    assert steps[-1].closure.seifert.size > 200
    for step in steps:
        artin = step.closure.artin
        comps = step.closure.component_records
        words = [artin] + [extract_component(artin, c) for c in range(len(comps))]
        for record, word in zip((step.closure, *comps), words):
            assert record.alexander.is_unit_equivalent(burau_alexander_oracle(word))
            split = _diagram_is_split(record.simplified)
            dense = LaurentPolynomial.zero() if split else _dense_alexander(record.seifert)
            assert record.alexander == dense


def test_sparse_alexander_equals_the_dense_determinant_on_random_words():
    # `alexander` reads only the nonzero entries of V and V^T; the packing
    # width, the packed rows and so Δ itself must be those of the dense matrix.
    rng = random.Random(20261019)
    words = []
    for _ in range(1000):
        n = rng.randint(1, 6)
        count = rng.randint(0, 14) if n > 1 else 0
        letters = ((rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(count))
        words.append(ArtinWord(n, tuple(letters)))
    for _ in range(1000):
        n = rng.randint(1, 6)
        count = rng.randint(0, 7) if n > 1 else 0
        bands = (tuple(sorted(rng.sample(range(1, n + 1), 2))) for _ in range(count))
        words.append(BandWord(n, tuple(bands)).expand_to_artin())
    sizes = Counter()
    for word in words:
        v = seifert_matrix(word)
        assert alexander(v) == _dense_alexander(v), word
        kind = "empty" if v.size == 0 else "split" if _diagram_is_split(word) else "connected"
        sizes[kind] += 1
    assert min(sizes.values()) > 100, sizes


@given(band_words(max_strands=6, max_len=9))
@settings(max_examples=40, deadline=None)
def test_seifert_pipeline_matches_burau_on_sqp(word):
    artin = word.expand_to_artin()
    assert Closure(artin).alexander.is_unit_equivalent(burau_alexander_oracle(artin))


@given(artin_words())
@settings(max_examples=60, deadline=None)
def test_knot_polynomial_properties(word):
    delta = Closure(word).alexander
    comps = underlying_permutation(word).cycle_count()
    if not _diagram_is_split(simplify_closure_word(word)):
        assert delta.is_palindromic()
    if comps == 1:
        assert abs(delta.evaluate_int(1)) == 1
        v = seifert_matrix(word)
        if not _diagram_is_split(word):
            assert abs(intersection_determinant(v)) == 1


@given(artin_words(max_strands=4, max_len=8))
@settings(max_examples=40, deadline=None)
def test_simplification_preserves_closure_invariants(word):
    reduced = simplify_closure_word(word)
    assert underlying_permutation(reduced).cycle_count() == \
        underlying_permutation(word).cycle_count()
    assert burau_alexander_oracle(reduced).is_unit_equivalent(
        burau_alexander_oracle(word)
    )
    assert jones_tl(reduced, budget=8) == jones_tl(word, budget=8)


def test_simplification_cancels_across_the_end_of_the_word():
    # S1 and the final s1 meet only around the end of the closure.
    word = parse_artin_word("S1 s2 s2 s1", 3)
    assert simplify_closure_word(word) == parse_artin_word("s2 s2", 3)


# -- Jones --------------------------------------------------------------


def test_jones_unknot_and_trefoil():
    assert jones_tl(ArtinWord(1, ())) == LaurentPolynomial.one()
    right = jones_tl(TREFOIL)
    assert right == LaurentPolynomial({4: 1, 12: 1, 16: -1})  # -t^4 + t^3 + t
    mirror = jones_tl(ArtinWord(2, ((1, -1),) * 3))
    assert mirror == LaurentPolynomial({-e: c for e, c in right.coeffs.items()})


def test_jones_hopf_positive():
    assert jones_tl(HOPF) == LaurentPolynomial({2: -1, 10: -1})  # -t^1/2 - t^5/2


def test_jones_of_trivial_braids_is_a_power_of_the_loop_value():
    # The closure of the empty word on n strands is the n-component unlink.
    loop = LaurentPolynomial({2: -1, -2: -1})  # -t^(1/2) - t^(-1/2)
    for n in range(1, 7):
        assert jones_tl(ArtinWord(n, ())) == loop ** (n - 1)


def test_jones_of_step_1_trefoil_family_word():
    # family(trefoil, 1)[1].word: 10 strands, 63 Artin letters.
    word = parse_band_word(
        "b(1,6) b(3,8) b(2,5) b(1,4) b(3,7) b(2,6) b(5,8) b(7,10) b(4,9) b(9,10) b(9,10)", 10
    )
    assert jones_tl(word) == LaurentPolynomial({
        0: 1, 12: 1, 16: -1, 20: -1, 32: 2, 36: -2, 40: 2, 48: -1,
        52: 1, 56: -1, 64: -1, 68: 1, 80: -1, 84: 2, 88: -1,
    })  # fmt: skip


def test_jones_packing_width_counts_the_letters():
    # Its coefficients outgrow a width of strands + 1 bits, which drops
    # the letters term of `_bracket_tl`'s bound.
    word = parse_artin_word("s1 S2 S1 S1 s2 s2 s1 S2 s1 S2", 3)
    expected = LaurentPolynomial({
        16: 1, 12: -3, 8: 5, 4: -5, 0: 8, -4: -5, -8: 5, -12: -3, -16: 1,
    })  # fmt: skip
    assert kauffman_bracket_bruteforce(word) == expected
    assert jones_tl(word) == expected


def test_jones_budget_refusal():
    result = jones_tl(ArtinWord(13, ()), budget=12)
    assert isinstance(result, BudgetExceeded)
    assert result.strands == 13 and result.budget == 12


@given(artin_words(max_strands=5, max_len=10))
@settings(max_examples=40, deadline=None)
def test_jones_tl_matches_bruteforce(word):
    assert jones_tl(word, budget=8) == kauffman_bracket_bruteforce(word)


# -- slice flags and reports ---------------------------------------------


def test_slice_necessary_examples():
    assert slice_necessary(COMPANION_DELTA) == (True, True)
    assert slice_necessary(TREFOIL_DELTA) == (True, False)
    assert slice_necessary(LaurentPolynomial.one()) == (True, True)


def test_full_report_alpha():
    report = full_report(parse_band_word(ALPHA_TEXT, 8))
    assert report["components"] == 2
    assert report["chi"] == 0 and report["betti"] == 1
    assert report["linking_matrix"] == [[0, 1], [1, 0]]
    assert all(
        LaurentPolynomial.from_pairs(p).is_unit_equivalent(COMPANION_DELTA)
        for p in report["component_alexander"]
    )
    assert report["component_slice_flags"] == [[True, True], [True, True]]


def test_full_report_unknot():
    report = full_report(BandWord(1, ()))
    assert report["components"] == 1
    assert report["alexander"] == LaurentPolynomial.one().to_pairs()
    assert report["signature"] == 0 and report["determinant"] == 1
    assert report["jones"] == LaurentPolynomial.one().to_pairs()


def test_full_report_split_has_zero_alexander():
    report = full_report(BandWord(2, ()))
    assert report["components"] == 2
    assert LaurentPolynomial.from_pairs(report["alexander"]).is_zero()
    assert report["determinant"] == 0


def test_report_internal_consistency_guard():
    hopf = BandWord(2, ((1, 2), (1, 2)))
    report = full_report(hopf)
    assert len(report["linking_matrix"]) == report["components"]
    delta = LaurentPolynomial.from_pairs(report["alexander"])
    assert abs(delta.evaluate_int(-1)) == report["determinant"]


# -- frozen convention regression ----------------------------------------


def test_frozen_entry_table_regression():
    """Large seeded sweep pinning the calibrated Seifert conventions."""
    rng = random.Random(123456)
    for _ in range(40):
        word = random_sqp_word(rng, max_strands=6, max_len=12).expand_to_artin()
        split = _diagram_is_split(word)
        literal = LaurentPolynomial.zero() if split else alexander(seifert_matrix(word))
        assert literal.is_unit_equivalent(burau_alexander_oracle(word))
        if not split:
            comps = underlying_permutation(word).cycle_count()
            di = intersection_determinant(seifert_matrix(word))
            assert (abs(di) == 1) if comps == 1 else (di == 0)
