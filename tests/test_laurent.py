import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sqpbands import LaurentPolynomial
from sqpbands.laurent import int_det, laurent_det, sparse_laurent_det

polys = st.builds(
    LaurentPolynomial,
    st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), max_size=5),
)


def test_construction_drops_zeros():
    p = LaurentPolynomial({0: 1, 3: 0, -2: 5})
    assert p.to_pairs() == [[-2, 5], [0, 1]]


def test_arithmetic_basics():
    t = LaurentPolynomial({1: 1})
    p = (t - 1) * (t - 1)
    assert p == LaurentPolynomial({0: 1, 1: -2, 2: 1})
    assert p.evaluate_int(3) == 4
    assert (t ** 3).coeffs == {3: 1}
    inv_t = LaurentPolynomial({-1: 1})
    assert (t * inv_t) == LaurentPolynomial.one()


def test_evaluate_with_negative_exponents():
    p = LaurentPolynomial({-2: 4, 0: 1})
    assert p.evaluate_int(2) == 2
    assert p.evaluate_int(-1) == 5


def test_normalized_form():
    p = LaurentPolynomial({-3: -1, -2: 1, -1: -1})  # -(t^-3)(1 - t + t^2) up to sign
    n = p.normalized()
    assert n.min_exp() == 0
    assert n.coeffs[n.max_exp()] > 0
    assert n == LaurentPolynomial({0: 1, 1: -1, 2: 1})


def test_unit_equivalence_and_palindromes():
    trefoil = LaurentPolynomial({0: 1, 1: -1, 2: 1})
    shifted = LaurentPolynomial({-5: -1, -4: 1, -3: -1})
    assert trefoil.is_unit_equivalent(shifted)
    assert trefoil.is_palindromic()
    assert not LaurentPolynomial({0: 1, 1: 2}).is_palindromic()


def test_divide_exact():
    t = LaurentPolynomial({1: 1})
    num = (t ** 4) - 1
    den = t - 1
    assert num.divide_exact(den) == LaurentPolynomial({0: 1, 1: 1, 2: 1, 3: 1})
    with pytest.raises(ValueError):
        (t + 1).divide_exact(t - 1)


def test_format_quarter_exponents():
    jones = LaurentPolynomial({4: 1, 2: -1})
    assert "t" in jones.format("t", 4)


@given(polys, polys)
@settings(max_examples=60)
def test_mul_commutes_and_distributes(p, q):
    assert p * q == q * p
    assert (p + q) * p == p * p + q * p


@given(polys, polys)
@settings(max_examples=60)
def test_exact_division_roundtrip(p, q):
    if q.is_zero():
        return
    assert (p * q).divide_exact(q) == p


def test_int_det_examples():
    assert int_det([]) == 1
    assert int_det([[5]]) == 5
    assert int_det([[1, 2], [3, 4]]) == -2
    assert int_det([[0, 1], [1, 0]]) == -1
    assert int_det([[0, 0], [0, 1]]) == 0


@given(st.integers(1, 5), st.data())
@settings(max_examples=40)
def test_laurent_det_matches_cofactor_expansion(n, data):
    matrix = [
        [
            LaurentPolynomial(
                data.draw(
                    st.dictionaries(st.integers(-2, 2), st.integers(-4, 4), max_size=3)
                )
            )
            for _ in range(n)
        ]
        for _ in range(n)
    ]

    def cofactor(m):
        if not m:
            return LaurentPolynomial.one()
        total = LaurentPolynomial.zero()
        for j in range(len(m)):
            minor = [row[:j] + row[j + 1 :] for row in m[1:]]
            term = m[0][j] * cofactor(minor)
            total = total + (term if j % 2 == 0 else -term)
        return total

    assert laurent_det(matrix) == cofactor(matrix)


@given(st.integers(0, 6), st.data())
@settings(max_examples=60)
def test_sparse_laurent_det_reads_only_nonzero_terms(n, data):
    # Entries may be absent, empty or carry zero coefficients (at exponents
    # below every nonzero one, too); none of them may move the result.
    entries = st.dictionaries(st.integers(-3, 3), st.integers(-3, 3), max_size=3)
    rows = [
        data.draw(st.dictionaries(st.integers(0, n - 1), entries, max_size=n)) for _ in range(n)
    ]
    dense = [[LaurentPolynomial(row.get(j, {})) for j in range(n)] for row in rows]
    assert sparse_laurent_det(rows) == laurent_det(dense)


def test_sparse_laurent_det_rejects_a_column_outside_the_square():
    with pytest.raises(ValueError, match="square"):
        sparse_laurent_det([{0: {0: 1}}, {2: {1: 1}}])
    with pytest.raises(ValueError, match="square"):
        sparse_laurent_det([{-1: {0: 1}}])
    with pytest.raises(ValueError, match="square"):
        laurent_det([[LaurentPolynomial.one()], []])


def _fraction_det(m):
    """Dense Gaussian elimination over Fraction: no Bareiss step, no sparsity."""
    a = [[Fraction(x) for x in row] for row in m]
    n, det = len(a), Fraction(1)
    for k in range(n):
        pivot = next((r for r in range(k, n) if a[r][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for r in range(k + 1, n):
            f = a[r][k] / a[k][k]
            for c in range(k, n):
                a[r][c] -= f * a[k][c]
    return int(det)


def _zero_pivot_matrix(rng):
    """A random square matrix whose elimination meets zero pivots: a zeroed
    diagonal, zeroed leading column blocks, and sometimes a repeated row."""
    n = rng.randint(1, 9)
    density = rng.choice((0.2, 0.5, 0.9))
    lo, hi = rng.choice(((-1, 1), (-3, 3), (-50, 50)))
    m = [[rng.randint(lo, hi) if rng.random() < density else 0 for _ in range(n)] for _ in range(n)]
    for i in range(n):
        if rng.random() < 0.5:
            m[i][i] = 0
    k = rng.randrange(n)
    for r in range(rng.randrange(n)):
        m[r][k] = 0
    if n > 1 and rng.random() < 0.1:
        m[rng.randrange(n)] = list(m[rng.randrange(n)])
    return m


def test_int_det_matches_fraction_elimination_with_zero_pivots():
    rng = random.Random(9)
    zero_pivots = 0
    for _ in range(2000):
        m = _zero_pivot_matrix(rng)
        zero_pivots += not m[0][0]
        assert int_det(m) == _fraction_det(m), m
    assert zero_pivots > 500


def _sylvester_hadamard(n):
    h = [[1]]
    while len(h) < n:
        h = [row + row for row in h] + [row + [-x for x in row] for row in h]
    return h


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
def test_laurent_det_unpacks_where_the_unit_circle_bound_is_attained(n):
    # Rows c_i x^e_i (h_i1, ..., h_in) of a Hadamard matrix h: every row has
    # 2-norm |c_i| sqrt(n) on |x| = 1, so the determinant's one coefficient,
    # prod c_i * n^(n/2) up to sign, equals the bound the packing width is
    # taken from. Diagonal matrices (each c_i x^e_i alone) attain it too.
    rng = random.Random(n)
    h = _sylvester_hadamard(n)
    for _ in range(20):
        cs = [rng.choice((-1, 1)) * rng.choice((1, 2, 3, 7, 2**5, 2**31 - 1)) for _ in range(n)]
        es = [rng.randint(-3, 3) for _ in range(n)]
        monomial = [LaurentPolynomial({e: c}) for c, e in zip(cs, es)]
        rows = [[m * x for x in row] for m, row in zip(monomial, h)]
        diagonal = [
            [monomial[i] if i == j else LaurentPolynomial() for j in range(n)]
            for i in range(n)
        ]
        product = 1
        for c in cs:
            product *= c
        assert laurent_det(diagonal) == LaurentPolynomial({sum(es): product})
        assert laurent_det(rows) == LaurentPolynomial({sum(es): product * int_det(h)})
        assert abs(int_det(h)) == round(n ** (n / 2))


def test_laurent_det_unpacks_a_power_of_two_at_the_bound():
    # |det| = 2^m exactly: a width of bit_length(bound) alone would read the
    # positive coefficient back as -2^m.
    for m in range(1, 12):
        matrix = [
            [LaurentPolynomial({0: 2}) if i == j else LaurentPolynomial() for j in range(m)]
            for i in range(m)
        ]
        assert laurent_det(matrix) == LaurentPolynomial({0: 2**m})
