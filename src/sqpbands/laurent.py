"""Exact integer Laurent-polynomial arithmetic.

Single-variable Laurent polynomials with Python-int coefficients, stored
sparsely as {exponent: coefficient}. This is the coefficient ring for
Alexander polynomials (variable t), Kauffman brackets (variable A) and
Jones polynomials (variable q = t^(1/4), tracked by exponent convention
only; the arithmetic never needs fractional exponents).

Determinants of Laurent-entry matrices are computed by fraction-free
Bareiss elimination after Kronecker-packing each entry into a single
Python integer (t -> 2^b for b past the coefficient bound), so the inner
loop runs on machine big-ints instead of dict-based polynomials. The
elimination step, `_eliminate`, also serves `invariants.signature`.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence


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
        if x == 0:
            if lo < 0:
                raise ZeroDivisionError("evaluating negative power at 0")
            return self.coeffs.get(0, 0)
        total = 0
        for e, c in self.coeffs.items():
            total += c * x ** (e - lo)
        whole = total * x ** lo if lo >= 0 else total
        if lo < 0:
            num, den = total, x ** (-lo)
            if num % den:
                raise ValueError("evaluation is not an integer")
            whole = num // den
        return whole

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
        import math as _math

        parts = []
        for e, c in reversed(self.coeffs.items()):
            num, rem = divmod(e, exp_scale) if exp_scale != 1 else (e, 0)
            if rem == 0:
                es = str(num)
            else:
                g = _math.gcd(abs(e), exp_scale)
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


def _pack(poly: LaurentPolynomial, bits: int, min_exp: int) -> int:
    """Evaluate x -> 2^bits after shifting exponents down by min_exp."""
    total = 0
    for e, c in poly.coeffs.items():
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
    """Exact determinant of a square matrix over Z[x, x^-1].

    Kronecker-packs entries at x = 2^b where b exceeds the Hadamard-style
    bound prod_rows(sum_j |entry|_1) on any coefficient of the determinant,
    then runs integer Bareiss elimination (all divisions exact). Intermediate
    values are packed images of genuine polynomial minors, so the final
    integer unpacks to the exact determinant.
    """
    n = len(matrix)
    min_exp = 0
    coeff_bound = 1
    for row in matrix:
        if len(row) != n:
            raise ValueError("matrix must be square")
        row_norm = 0
        for p in row:
            if p.coeffs:
                min_exp = min(min_exp, p.min_exp())
                row_norm += sum(abs(c) for c in p.coeffs.values())
        coeff_bound *= max(row_norm, 1)
    bits = max(coeff_bound.bit_length() + 2, 4)
    det = _bareiss([[_pack(p, bits, min_exp) for p in row] for row in matrix])
    return _unpack(det, bits).shift(min_exp * n) if det else LaurentPolynomial()


def int_det(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix (Bareiss elimination)."""
    return _bareiss([list(row) for row in matrix])


def _bareiss(a: list[list[int]]) -> int:
    """Determinant by Bareiss elimination with row pivoting; overwrites `a`."""
    n = len(a)
    sign = prev = 1
    for k in range(n - 1):
        if not a[k][k]:
            pivot = next((r for r in range(k + 1, n) if a[r][k]), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        _eliminate(a, k, range(k + 1, n), prev)
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def _eliminate(a: list[list[int]], p: int, live: Sequence[int], prev: int) -> None:
    """a[r][c] <- (a[p][p] a[r][c] - a[r][p] a[p][c]) / prev for r, c in `live`,
    prev being the last pivot (or 1), then a[r][p] <- 0. Each result is a minor
    of the input (Sylvester's identity), so the division is exact (Bareiss, 1968)."""
    row_p = a[p]
    app = row_p[p]
    for r in live:
        row_r = a[r]
        arp = row_r[p]
        if arp:
            for c in live:
                row_r[c] = (app * row_r[c] - arp * row_p[c]) // prev
            row_r[p] = 0  # a spent multiplier would keep its big-int alive
        else:
            for c in live:
                row_r[c] = (app * row_r[c]) // prev
