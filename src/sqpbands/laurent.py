"""Exact integer Laurent-polynomial arithmetic.

Single-variable Laurent polynomials with Python-int coefficients, stored
sparsely as {exponent: coefficient}. This is the coefficient ring for
Alexander polynomials (variable t), Kauffman brackets (variable A) and
Jones polynomials (variable q = t^(1/4), tracked by exponent convention
only; the arithmetic never needs fractional exponents).

Determinants of Laurent-entry matrices are computed by fraction-free
Bareiss elimination after Kronecker-packing each entry into a single
Python integer (t -> 2^b for b past the unit-circle Hadamard bound on the
determinant's coefficients), so the inner loop runs on machine big-ints
instead of dict-based polynomials. The elimination, `_Elimination`, keeps
rows sparse, touches only the rows nonzero in the pivot column and scales
the others lazily; it serves `int_det`, `sparse_laurent_det` (with its
dense form `laurent_det`) and `invariants.signature`.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence


class LaurentPolynomial:
    """An element of Z[x, x^-1], immutable after construction."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        acc: dict[int, int] = {}
        for e, c in items:
            if c:
                acc[e] = acc.get(e, 0) + c
                if not acc[e]:
                    del acc[e]
        self.coeffs = dict(sorted(acc.items()))

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls) -> LaurentPolynomial:
        return cls()

    @classmethod
    def one(cls) -> LaurentPolynomial:
        return cls({0: 1})

    @classmethod
    def term(cls, coeff: int, exp: int = 0) -> LaurentPolynomial:
        return cls({exp: coeff})

    # -- queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def min_exp(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no exponents")
        return next(iter(self.coeffs))

    def max_exp(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no exponents")
        return next(reversed(self.coeffs))

    def degree_span(self) -> int:
        """max_exp - min_exp, or -1 for the zero polynomial."""
        return -1 if self.is_zero() else self.max_exp() - self.min_exp()

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self.coeffs == ({} if other == 0 else {0: other})
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(tuple(self.coeffs.items()))

    # -- arithmetic --------------------------------------------------

    def __add__(self, other: LaurentPolynomial | int) -> LaurentPolynomial:
        if isinstance(other, int):
            other = LaurentPolynomial.term(other)
        acc = dict(self.coeffs)
        for e, c in other.coeffs.items():
            acc[e] = acc.get(e, 0) + c
            if not acc[e]:
                del acc[e]
        out = LaurentPolynomial.__new__(LaurentPolynomial)
        out.coeffs = dict(sorted(acc.items()))
        return out

    __radd__ = __add__

    def __neg__(self) -> LaurentPolynomial:
        out = LaurentPolynomial.__new__(LaurentPolynomial)
        out.coeffs = {e: -c for e, c in self.coeffs.items()}
        return out

    def __sub__(self, other: LaurentPolynomial | int) -> LaurentPolynomial:
        return self + (-other)

    def __rsub__(self, other: int) -> LaurentPolynomial:
        return (-self) + other

    def __mul__(self, other: LaurentPolynomial | int) -> LaurentPolynomial:
        if isinstance(other, int):
            if other == 0:
                return LaurentPolynomial()
            out = LaurentPolynomial.__new__(LaurentPolynomial)
            out.coeffs = {e: c * other for e, c in self.coeffs.items()}
            return out
        acc: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                acc[e] = acc.get(e, 0) + c1 * c2
        out = LaurentPolynomial.__new__(LaurentPolynomial)
        out.coeffs = dict(sorted((e, c) for e, c in acc.items() if c))
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int) -> LaurentPolynomial:
        if n < 0:
            raise ValueError("negative powers are not defined for polynomials")
        acc = LaurentPolynomial.one()
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def shift(self, k: int) -> LaurentPolynomial:
        """Multiply by x^k."""
        out = LaurentPolynomial.__new__(LaurentPolynomial)
        out.coeffs = {e + k: c for e, c in self.coeffs.items()}
        return out

    def evaluate_int(self, x: int) -> int:
        """Evaluate at a nonzero integer (or at 0 when min_exp >= 0)."""
        if self.is_zero():
            return 0
        lo = self.min_exp()
        total = 0
        for e, c in self.coeffs.items():
            total += c * x ** (e - lo)
        if lo >= 0:
            return total * x ** lo
        num, den = total, x ** (-lo)
        if num % den:
            raise ValueError("evaluation is not an integer")
        return num // den

    def divide_exact(self, other: LaurentPolynomial) -> LaurentPolynomial:
        """Exact division; raises ValueError if there is a remainder."""
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return LaurentPolynomial()
        # Reduce to ordinary polynomial division.
        num = self.shift(-self.min_exp())
        den = other.shift(-other.min_exp())
        shift = self.min_exp() - other.min_exp()
        dn = den.max_exp()
        lead = den.coeffs[dn]
        rem = dict(num.coeffs)
        quo: dict[int, int] = {}
        while rem:
            top = max(rem)
            if top < dn:
                raise ValueError("polynomials do not divide exactly")
            c = rem[top]
            if c % lead:
                raise ValueError("polynomials do not divide exactly")
            q = c // lead
            quo[top - dn] = q
            for e, d in den.coeffs.items():
                k = e + top - dn
                rem[k] = rem.get(k, 0) - q * d
                if not rem[k]:
                    del rem[k]
        return LaurentPolynomial(quo).shift(shift)

    # -- normalization -----------------------------------------------

    def normalized(self) -> LaurentPolynomial:
        """Canonical representative of the class {±x^k f}.

        Lowest exponent shifted to 0 and leading coefficient positive;
        for the symmetric polynomials produced by Alexander computations
        this is the usual positive-ended palindrome. Zero stays zero.
        """
        if self.is_zero():
            return self
        shifted = self.shift(-self.min_exp())
        if shifted.coeffs[shifted.max_exp()] < 0:
            shifted = -shifted
        return shifted

    def is_unit_equivalent(self, other: LaurentPolynomial) -> bool:
        """True when self = ±x^k * other, the Alexander-polynomial equality."""
        return self.normalized() == other.normalized()

    def is_palindromic(self) -> bool:
        """f(x) = ±x^k f(1/x); vacuously true for 0."""
        if self.is_zero():
            return True
        rev = LaurentPolynomial({-e: c for e, c in self.coeffs.items()})
        return rev.normalized() == self.normalized()

    # -- presentation -------------------------------------------------

    def to_pairs(self) -> list[list[int]]:
        """Sorted (exponent, coefficient) pairs for JSON serialization."""
        return [[e, c] for e, c in self.coeffs.items()]

    @classmethod
    def from_pairs(cls, pairs: Iterable[Sequence[int]]) -> LaurentPolynomial:
        return cls({int(e): int(c) for e, c in pairs})

    def format(self, var: str = "t", exp_scale: int = 1) -> str:
        """Human-readable form; exp_scale divides exponents (4 for q = t^1/4)."""
        if self.is_zero():
            return "0"
        parts = []
        for e, c in reversed(self.coeffs.items()):
            num, rem = divmod(e, exp_scale) if exp_scale != 1 else (e, 0)
            if rem == 0:
                es = str(num)
            else:
                g = math.gcd(abs(e), exp_scale)
                es = f"{e // g}/{exp_scale // g}"
            if e == 0:
                body = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else str(abs(c)) + "*"
                power = var if es == "1" else f"{var}^{es}"
                body = mag + power
            parts.append(("- " if c < 0 else "+ ") + body)
        head = parts[0][2:] if parts[0][0] == "+" else "-" + parts[0][2:]
        return " ".join([head] + parts[1:])

    def __repr__(self) -> str:
        return f"LaurentPolynomial({self.format('x')})"


def _pack(coeffs: Mapping[int, int], bits: int, min_exp: int) -> int:
    """Evaluate x -> 2^bits after shifting exponents down by min_exp; a zero
    coefficient may sit below min_exp and is skipped."""
    total = 0
    for e, c in coeffs.items():
        if c:
            total += c << (bits * (e - min_exp))
    return total


def _unpack(value: int, bits: int) -> LaurentPolynomial:
    """Invert _pack via balanced base-2^bits digits (coeffs may be negative)."""
    coeffs: dict[int, int] = {}
    half = 1 << (bits - 1)
    full = 1 << bits
    e = 0
    while value:
        digit = value & (full - 1)
        if digit >= half:
            digit -= full
        if digit:
            coeffs[e] = digit
        value = (value - digit) >> bits
        e += 1
    return LaurentPolynomial(coeffs)


def laurent_det(matrix: Sequence[Sequence[LaurentPolynomial]]) -> LaurentPolynomial:
    """Exact determinant of a square matrix over Z[x, x^-1]: the dense
    form of `sparse_laurent_det`."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    return sparse_laurent_det([{j: p.coeffs for j, p in enumerate(row) if p} for row in matrix])


def sparse_laurent_det(rows: Sequence[Mapping[int, Mapping[int, int]]]) -> LaurentPolynomial:
    """Exact determinant of the n x n matrix over Z[x, x^-1] with these rows.

    rows[i] maps column j to entry (i, j) as {exponent: coefficient}; an
    absent column is a zero entry, so only the nonzero entries are read.
    Kronecker-packs entries at x = 2^b and runs the integer elimination of
    `_Elimination`. Every coefficient of the determinant is at most the
    unit-circle Hadamard bound sqrt(prod_i sum_j |p_ij|_1^2): a coefficient
    is bounded by max over |x| = 1 of |det M(x)|, which is at most the
    product of the rows' 2-norms there, and |p(x)| <= |p|_1 on |x| = 1. The
    integer elimination is exact at any width, so only the final
    determinant has to fit, and b past that bound unpacks it exactly.
    """
    n = len(rows)
    min_exp = 0
    square_bound = 1
    for row in rows:
        row_norm = 0
        for j, p in row.items():
            if not 0 <= j < n:
                raise ValueError("matrix must be square")
            for e, c in p.items():
                if c and e < min_exp:
                    min_exp = e
            row_norm += sum(abs(c) for c in p.values()) ** 2
        square_bound *= max(row_norm, 1)
    bits = max(math.isqrt(square_bound).bit_length() + 2, 4)
    det = _det([{j: v for j, p in row.items() if (v := _pack(p, bits, min_exp))} for row in rows])
    return _unpack(det, bits).shift(min_exp * n) if det else LaurentPolynomial()


def int_det(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix (sparse Bareiss elimination)."""
    return _det([{j: x for j, x in enumerate(row) if x} for row in matrix])


def _det(rows: list[dict[int, int]]) -> int:
    """Determinant of the square matrix with these sparse rows, by
    `_Elimination` with row pivoting: column k is eliminated by the
    shortest live row nonzero there. Consumes `rows`."""
    elim = _Elimination(rows)
    position = list(range(len(rows)))  # where each row stands after the swaps
    at = list(range(len(rows)))  # which row stands at each position
    sign = d = 1
    for k in range(len(rows)):
        live = elim.cols.get(k)
        if not live:
            return 0
        p = min(live, key=lambda r: (len(rows[r]), r))
        if position[p] != k:
            q = at[k]
            at[k], at[position[p]] = p, q
            position[q], position[p] = position[p], k
            sign = -sign
        d = elim.pivot(p, k)
    return sign * d


class _Elimination:
    """Fraction-free (Bareiss) elimination on sparse integer rows.

    rows[r] is a {column: value} dict of row r's nonzero entries and
    cols[c] the set of live rows nonzero in column c. A pivot step on
    entry (p, k) replaces each live entry by
    (a[p][k] a[r][c] - a[r][k] a[p][c]) / prev, prev being the previous
    pivot (Bareiss, 1968); by Sylvester's identity the result is a minor
    of the input, so the division is exact. Only rows nonzero in column k
    are touched, and only over the union of their support and row p's.

    A row with a[r][k] = 0 would only be scaled by a[p][k] / prev, and
    these factors telescope, so it is left where it is: level[r] records
    the step it was last written at. Updating such a row divides by the
    pivot of its own level instead of by prev, which gives the same exact
    minor; `read` brings a row to the current level with one exact
    row * d_now // d_then. The pivot row is read before each step.

    `pivot` serves `_det` (row pivoting) and `invariants.signature`
    (diagonal pivots on a symmetric form, with `fold` when the live
    diagonal is zero).
    """

    __slots__ = ("rows", "cols", "level", "pivots")

    def __init__(self, rows: list[dict[int, int]]):
        self.rows = rows
        self.cols: dict[int, set[int]] = {}
        for r, row in enumerate(rows):
            for c in row:
                self.cols.setdefault(c, set()).add(r)
        self.level = [0] * len(rows)
        self.pivots = [1]  # pivots[j]: the pivot of step j, with pivots[0] = 1

    def read(self, r: int) -> dict[int, int]:
        """Row r brought to the current level (its dense Bareiss values)."""
        row = self.rows[r]
        then, now = self.level[r], len(self.pivots) - 1
        if then != now:
            d_then, d_now = self.pivots[then], self.pivots[now]
            for c, x in row.items():
                row[c] = x * d_now // d_then
            self.level[r] = now
        return row

    def pivot(self, p: int, k: int) -> int:
        """Eliminate column k with row p, which then leaves; returns the pivot."""
        rows, cols, level, pivots = self.rows, self.cols, self.level, self.pivots
        row_p = self.read(p)
        d = row_p[k]
        for c in row_p:
            cols[c].discard(p)
        rows[p] = None
        top = len(pivots)
        for r in cols.pop(k):
            row_r = rows[r]
            prev = pivots[level[r]]
            arp = row_r.pop(k)
            new = {}
            for c, x in row_r.items():
                y = row_p.get(c)
                if y is None:
                    new[c] = d * x // prev
                else:
                    v = (d * x - arp * y) // prev
                    if v:
                        new[c] = v
                    else:
                        cols[c].discard(r)
            for c, y in row_p.items():
                if c not in row_r and c != k:
                    new[c] = -arp * y // prev
                    cols[c].add(r)
            rows[r] = new
            level[r] = top
        pivots.append(d)
        return d

    def fold(self, p: int, q: int) -> None:
        """Congruence x_p += x_q on a symmetric form: row q is added to row p
        and column q to column p. With a zero diagonal at p and q the new
        diagonal entry at p is 2 a[p][q]."""
        rows, cols = self.rows, self.cols
        row_p, row_q = self.read(p), self.read(q)
        for c, y in row_q.items():
            self._add(row_p, p, c, y)
        for r in list(cols[q]):
            self._add(rows[r], r, p, rows[r][q])

    def _add(self, row: dict[int, int], r: int, c: int, y: int) -> None:
        v = row.get(c, 0) + y
        if v:
            row[c] = v
            self.cols.setdefault(c, set()).add(r)
        else:
            row.pop(c, None)
            self.cols[c].discard(r)
