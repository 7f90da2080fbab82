"""Exact link invariants of braid closures.

Everything here is integer arithmetic: Seifert matrices from the closed-braid
diagram, Alexander polynomials det(V - tV^T) and signatures of V + V^T,
both by the sparse fraction-free Bareiss kernel `laurent._Elimination`
(row pivots for the determinant, diagonal pivots and a congruence fold
for the signature). The determinant's rows are built from the nonzero
entries of V and V^T alone and handed to `laurent.sparse_laurent_det`: at
the trefoil family's step 2, V - tV^T has 485 nonzero entries of 16,900.
The module also holds linking matrices from signed crossing counts,
component extraction, and the Jones polynomial via Temperley-Lieb
transfer with a brute-force Kauffman state-sum as an independent oracle.

`Closure` is the one record of a closure's invariants, each computed at
most once. `full_report` serializes a record straight to the CLI's JSON
report; callers that want typed values read the record itself.

Sign conventions are calibrated once against two anchors and then frozen:
the closure of s1^3 is the right-handed trefoil with signature -2, and the
Seifert-pipeline Alexander polynomial agrees with the reduced-Burau
determinant formula on a corpus of words of both crossing signs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .laurent import LaurentPolynomial, _Elimination, _unpack, laurent_det, sparse_laurent_det
from .surface import BoundaryTrace, trace_boundary
from .words import ArtinWord, BandWord, Permutation, underlying_permutation

DEFAULT_JONES_BUDGET = 12


# ---------------------------------------------------------------------------
# Seifert matrix from the closed-braid diagram
# ---------------------------------------------------------------------------
#
# Seifert's algorithm on the closure of an Artin word gives one disk per
# strand and one twisted band per crossing. H_1 of that surface is spanned
# by "brick" loops: for each generator column, one loop through every pair
# of successive crossings in that column. Entries of the Seifert matrix
# V[x][y] = lk(x^+, y) depend only on local data:
#
#   * a loop through crossings of signs e, f links its own pushoff by
#     -(e+f)/2;
#   * loops sharing one crossing of sign e contribute ((e+1)/2, (e-1)/2)
#     to the (earlier, later) ordered entries;
#   * loops in adjacent columns interact only when their position
#     intervals interleave, contributing a sign-independent unit entry
#     whose side depends on which interval starts first.
#
# The constants below were calibrated against the reduced Burau oracle
# and the signature anchor (see tests/test_invariants.py); they are data.
# _CROSS_AB["A"] is the ordered entry pair (V[x][y], V[y][x]) when x's
# interval starts first, "B" when y's does.
_CROSS_AB = {"A": (0, -1), "B": (0, 1)}


@dataclass(frozen=True)
class SeifertMatrix:
    """Integer Seifert matrix with its brick basis (column, pos_a, pos_b)."""

    matrix: tuple[tuple[int, ...], ...]
    basis: tuple[tuple[int, int, int], ...]

    @property
    def size(self) -> int:
        return len(self.matrix)


def _columns(word: ArtinWord) -> dict[int, list[tuple[int, int]]]:
    cols: dict[int, list[tuple[int, int]]] = {}
    for pos, (k, e) in enumerate(word.letters, start=1):
        cols.setdefault(k, []).append((pos, e))
    return cols


def seifert_matrix(word: ArtinWord) -> SeifertMatrix:
    """Seifert matrix of the closed-braid diagram of `word` (no reduction)."""
    cols = _columns(word)
    basis: list[tuple[int, int, int]] = []
    signs: list[tuple[int, int]] = []
    for k in sorted(cols):
        entries = cols[k]
        for (pa, ea), (pb, eb) in zip(entries, entries[1:]):
            basis.append((k, pa, pb))
            signs.append((ea, eb))

    m = len(basis)
    v = [[0] * m for _ in range(m)]
    for i, (k, _, _) in enumerate(basis):
        ea, eb = signs[i]
        v[i][i] = -(ea + eb) // 2
        # Bricks of one column are consecutive in the basis, so the brick
        # sharing this one's later crossing is the next one, if any.
        if i + 1 < m and basis[i + 1][0] == k:
            v[i][i + 1] = (eb + 1) // 2
            v[i + 1][i] = (eb - 1) // 2
    for i, (k, a, b) in enumerate(basis):
        for j, (k2, c, d) in enumerate(basis):
            if k2 != k + 1:
                continue
            if a < c < b < d:
                v[i][j], v[j][i] = _CROSS_AB["A"]
            elif c < a < d < b:
                v[i][j], v[j][i] = _CROSS_AB["B"]
    return SeifertMatrix(tuple(tuple(row) for row in v), tuple(basis))


def alexander(v: SeifertMatrix) -> LaurentPolynomial:
    """Normalized Alexander polynomial det(V - t V^T)."""
    if v.size == 0:
        return LaurentPolynomial.one()
    # Entry (i, j) is {0: V[i][j], 1: -V[j][i]}, present only where one is nonzero.
    rows: list[dict[int, dict[int, int]]] = [{} for _ in range(v.size)]
    for i, row in enumerate(v.matrix):
        for j, x in enumerate(row):
            if x:
                rows[i].setdefault(j, {})[0] = x
                rows[j].setdefault(i, {})[1] = -x
    return sparse_laurent_det(rows).normalized()


def signature(v: SeifertMatrix) -> int:
    """Signature of V + V^T by Bareiss elimination with diagonal pivots: pivot
    k is a principal minor D_k, and D_k / D_(k-1) (D_0 = 1) is the k-th entry
    of a congruent diagonal form. When the live diagonal is all zero, a
    congruence x_p += x_q with a[p][q] != 0 makes the pivot 2 a[p][q]."""
    n = v.size
    rows: list[dict[int, int]] = [{} for _ in range(n)]
    for i, row in enumerate(v.matrix):
        for j, x in enumerate(row):
            if x:
                rows[i][j] = rows[i].get(j, 0) + x
                rows[j][i] = rows[j].get(i, 0) + x
    rows = [{j: x for j, x in row.items() if x} for row in rows]
    elim = _Elimination(rows)
    sigma, prev, live = 0, 1, list(range(n))
    while live:
        pivot = next((p for p in live if p in rows[p]), None)
        if pivot is None:
            pivot = next((p for p in live if rows[p]), None)
            if pivot is None:
                break  # remaining block is zero: contributes nothing
            elim.fold(pivot, min(rows[pivot]))
        live.remove(pivot)
        d = elim.pivot(pivot, pivot)
        sigma += 1 if (d > 0) == (prev > 0) else -1
        prev = d
    return sigma


# ---------------------------------------------------------------------------
# Linking matrix and component extraction
# ---------------------------------------------------------------------------


def linking_matrix(word: ArtinWord) -> tuple[tuple[int, ...], ...]:
    """Pairwise linking numbers between closure components.

    Components are indexed by the min-sorted cycles of the underlying
    permutation. Entry (p, q) is half the signed count of crossings
    between strands of components p and q; the diagonal is zero.
    """
    perm = underlying_permutation(word)
    comp_of = {s: perm.cycle_of(s) for s in range(1, word.strands + 1)}
    r = perm.cycle_count()
    tally = [[0] * r for _ in range(r)]
    positions = list(range(1, word.strands + 1))
    for k, e in word.letters:
        a, b = positions[k - 1], positions[k]
        ca, cb = comp_of[a], comp_of[b]
        if ca != cb:
            tally[ca][cb] += e
            tally[cb][ca] += e
        positions[k - 1], positions[k] = b, a
    for p in range(r):
        for q in range(r):
            if tally[p][q] % 2:
                raise AssertionError(
                    f"odd signed crossing count between components {p} and {q}"
                )
            tally[p][q] //= 2
    return tuple(tuple(row) for row in tally)


def extract_component(word: ArtinWord, component: int) -> ArtinWord:
    """Sub-braid whose closure is the chosen component of the closure.

    Deletes every strand outside the component's permutation cycle and
    every crossing touching a deleted strand, then reindexes.
    """
    perm = underlying_permutation(word)
    if not 0 <= component < perm.cycle_count():
        raise IndexError(
            f"component {component} out of range ({perm.cycle_count()} components)"
        )
    keep = set(perm.cycles[component])
    positions = list(range(1, word.strands + 1))
    letters = []
    for k, e in word.letters:
        a, b = positions[k - 1], positions[k]
        if a in keep and b in keep:
            new_k = sum(1 for s in positions[: k - 1] if s in keep) + 1
            letters.append((new_k, e))
        positions[k - 1], positions[k] = b, a
    return ArtinWord(len(keep), tuple(letters))


# ---------------------------------------------------------------------------
# Markov-sound word simplification (closure invariants are preserved)
# ---------------------------------------------------------------------------


def _free_cancel(letters: list[tuple[int, int]]) -> bool:
    """Delete one inverse pair that meets through commuting letters.

    The word is read cyclically, as its closure is: the scan from each
    letter runs on past the end and around to the start.
    """
    n = len(letters)
    for i in range(n):
        k, e = letters[i]
        for step in range(1, n):
            j = (i + step) % n
            k2, e2 = letters[j]
            if k2 == k:
                if e2 == -e:
                    del letters[max(i, j)]
                    del letters[min(i, j)]
                    return True
                break
            if abs(k2 - k) == 1:
                break
    return False


def retract_leaf_disks(word: BandWord) -> BandWord:
    """Shrink every disk of the band surface that meets exactly one band.

    Such a disk and its band form a tongue on the neighbouring disk, and
    pulling the tongue back into that disk is an isotopy of the surface
    and of its boundary: a Markov destabilization at any strand, not only
    at strands 1 and n. A retraction can leave the neighbour a leaf, so
    disks come off a queue until none is left; disks that meet no band
    stay (each bounds a split unknot). Linear in strands plus letters:
    one degree count, one queue and one renumbering
    b(i,j) -> b(i - [i > s], j - [j > s]) over the retracted disks s.
    """
    letters = word.letters
    degree = [0] * (word.strands + 1)
    # The xor of a disk's remaining band positions: its last band, once
    # only one is left.
    incident = [0] * len(degree)
    for pos, (i, j) in enumerate(letters):
        for d in (i, j):
            degree[d] += 1
            incident[d] ^= pos
    kept = [True] * len(letters)
    retracted = [False] * len(degree)
    queue = [d for d, deg in enumerate(degree) if deg == 1]
    while queue:
        d = queue.pop()
        if degree[d] != 1:
            continue  # its last band went with the neighbour it joined
        pos = incident[d]
        kept[pos] = False
        retracted[d] = True
        i, j = letters[pos]
        other = i + j - d
        degree[other] -= 1
        incident[other] ^= pos
        if degree[other] == 1:
            queue.append(other)
    new_index, below = [0] * len(degree), 0
    for d in range(1, len(degree)):
        below += retracted[d]
        new_index[d] = d - below
    return BandWord(
        word.strands - below,
        tuple((new_index[i], new_index[j]) for (i, j), k in zip(letters, kept) if k),
    )


def simplify_closure_word(word: ArtinWord) -> ArtinWord:
    """Shrink a diagram without changing its closure.

    Applies cyclic free cancellation (through letters that commute, and
    across the end of the word, which is a conjugation) and Markov
    destabilization at both ends. Every move is an isotopy of the
    closure, so all closure invariants are untouched; callers that need
    the literal input diagram (seifert_matrix on a fixed surface, the
    oracle cross-checks) must not use this. `Closure` hands it a band
    word's diagram only after `retract_leaf_disks`, which destabilizes at
    interior strands too.
    """
    letters = list(word.letters)
    strands = word.strands
    changed = True
    while changed:
        changed = False
        while _free_cancel(letters):
            changed = True
        if letters:
            used = [k for k, _ in letters]
            top = strands - 1
            if top >= 1 and used.count(top) == 1:
                letters = [le for le in letters if le[0] != top]
                strands -= 1
                changed = True
                continue
            if used.count(1) == 1 and strands >= 2:
                letters = [(k - 1, e) for k, e in letters if k != 1]
                strands -= 1
                changed = True
    return ArtinWord(strands, tuple(letters))


# ---------------------------------------------------------------------------
# Reduced Burau oracle
# ---------------------------------------------------------------------------


def burau_alexander_oracle(word: ArtinWord) -> LaurentPolynomial:
    """Alexander polynomial from det(reduced Burau - I), up to units.

    Independent of the Seifert pipeline; used as its cross-check. Uses the
    identity det(rho(w) - I) = +- t^a (1 + t + .. + t^{n-1}) Delta(t).

    rho starts as the identity and is updated in place per letter. The
    reduced Burau image of s_k^e differs from the identity only in row
    i = k - 1 (0-based), which reads (t, -t, 1) for e = +1 and
    (1, -1/t, 1/t) for e = -1 around the diagonal; right-multiplying by
    it rewrites columns i-1..i+1 of rho from column i alone, O(n)
    polynomial operations per letter.
    """
    n = word.strands
    if n == 1:
        return LaurentPolynomial.one()
    one, zero = LaurentPolynomial.one(), LaurentPolynomial.zero()
    rho = [[one if r == c else zero for c in range(n - 1)] for r in range(n - 1)]
    for k, e in word.letters:
        i = k - 1  # 0-based column of the generator's own basis vector
        for row in rho:
            x = row[i]
            if not x:
                continue
            tx = x.shift(e)
            left, right = (tx, x) if e > 0 else (x, tx)
            row[i] = -tx
            if i > 0:
                row[i - 1] = row[i - 1] + left
            if i < n - 2:
                row[i + 1] = row[i + 1] + right
    for r in range(n - 1):
        rho[r][r] = rho[r][r] - 1
    det = laurent_det(rho)
    if det.is_zero():
        return LaurentPolynomial.zero()
    cyclotomic = LaurentPolynomial({e: 1 for e in range(n)})
    return det.divide_exact(cyclotomic).normalized()


# ---------------------------------------------------------------------------
# Jones polynomial: Temperley-Lieb transfer and brute-force oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BudgetExceeded:
    """Typed refusal: the word has more strands than the Jones budget."""

    strands: int
    budget: int


_DELTA = LaurentPolynomial({2: -1, -2: -1})  # -A^2 - A^-2


def _apply_cap(matching: tuple[int, ...], a: int, b: int) -> tuple[int, ...]:
    """Join top points a, b by a cap and re-pair them by a cup.

    A cap on points already paired with each other closes a loop and
    leaves the matching as it is.
    """
    pa, pb = matching[a], matching[b]
    if pa == b:
        return matching
    new = list(matching)
    new[pa], new[pb] = pb, pa
    new[a], new[b] = b, a
    return tuple(new)


def _bracket_tl(word: ArtinWord) -> LaurentPolynomial:
    """Kauffman bracket of the closure via planar-matching transfer.

    States are matchings of the 2n boundary points, numbered as they are
    first reached, the identity being 0. tables[k][m] is the matching that
    a cap on column k makes of matching m, filled the first time m meets
    a letter of column k; a loop-closing cap leaves the matching as it is,
    so its loop flag is `tables[k][m] == m`. Closure loops are counted
    only for the states left after the last letter.

    Each state's coefficient is a polynomial in B = A^2, Kronecker-packed
    into one Python int at B = 2^bits; one A power is kept for all states.
    Factoring A^-3 (e > 0) or A^-1 (e < 0) out of a letter's weights makes
    the straight, cap and loop-closing-cap weights B^2, B, -(B^2 + 1) or
    1, B, -(B^2 + 1), so a letter costs only shifts, adds and negations.
    After each letter the B-digits that are zero in every state are
    shifted out, which is exact. At the closure
    Delta^j = (-1)^j A^(-2j) (B^2 + 1)^j.

    The width bits = letters + n + 1 is sufficient. Let the mass be the
    sum of the l1 norms of all states' coefficients; it starts at 1. A cap
    that closes no loop splits a state into two terms of its own norm. On
    a loop-closing cap the straight and loop weights land on the same
    state and combine to -1 (e > 0) or -B^2 (e < 0). So the mass at most
    doubles per letter, and every coefficient formed on the way is at
    most 2^letters in magnitude. A matching closes into at most n loops,
    and the closure factor (B^2 + 1)^j, j = loops - 1, has norm at most
    2^(n - 1). So the closed-up sum's coefficients are at most
    2^(letters + n - 1) = 2^(bits - 2) in magnitude, inside the balanced
    base-2^bits digits that `_unpack` decodes exactly. A bare cap E_k of
    weight 1 has norm at most 2 too, so the bound would cover it as a
    letter.
    """
    n = word.strands
    bits = len(word.letters) + n + 1
    two = 2 * bits
    ident = tuple(range(n, 2 * n)) + tuple(range(n))
    matchings = [ident]
    index = {ident: 0}
    tables: dict[int, dict[int, int]] = {}
    states = {0: 1}
    a_exp = 0  # A power factored out of every state
    low = 0  # B-digits shifted out of every state
    for k, e in word.letters:
        table = tables.setdefault(k, {})
        if e > 0:
            a_exp -= 3
            new = {m: v << two for m, v in states.items()}
        else:
            a_exp -= 1
            new = dict(states)
        for m, v in states.items():
            t = table.get(m)
            if t is None:
                target = _apply_cap(matchings[m], n + k - 1, n + k)
                t = table[m] = index.setdefault(target, len(matchings))
                if t == len(matchings):
                    matchings.append(target)
            new[t] = new.get(t, 0) + (-((v << two) + v) if t == m else v << bits)
        seen = 0
        for v in new.values():
            seen |= v
        zeros = ((seen & -seen).bit_length() - 1) // bits
        if zeros:
            low += zeros
            for m, v in new.items():
                new[m] = v >> zeros * bits
        states = new

    loops = {m: _closure_loops(matchings[m], n) for m in states}
    top = max(loops.values()) - 1
    powers = [1]  # (B^2 + 1)^j, packed
    for _ in range(top):
        powers.append(powers[-1] * ((1 << two) + 1))
    total = 0
    for m, v in states.items():
        j = loops[m] - 1
        term = v * powers[j] << (top - j) * bits
        total += -term if j & 1 else term
    a_exp -= 2 * top
    return LaurentPolynomial(
        {a_exp + 2 * (low + d): c for d, c in _unpack(total, bits).coeffs.items()}
    )


def _closure_loops(matching: tuple[int, ...], n: int) -> int:
    seen = [False] * (2 * n)
    loops = 0
    for start in range(2 * n):
        if seen[start]:
            continue
        loops += 1
        x = start
        while not seen[x]:
            seen[x] = True
            y = matching[x]
            seen[y] = True
            x = y + n if y < n else y - n  # closure arc bottom<->top
    return loops


def _jones_from_bracket(bracket: LaurentPolynomial, writhe: int) -> LaurentPolynomial:
    """Normalize by (-A^3)^-w and substitute A = t^(-1/4).

    The result is returned in the variable q = t^(1/4): exponent 4 means t.
    """
    sign = -1 if writhe % 2 else 1
    f = bracket * LaurentPolynomial({-3 * writhe: sign})
    return LaurentPolynomial({-e: c for e, c in f.coeffs.items()})


def jones_tl(
    word: ArtinWord | BandWord | Closure, budget: int = DEFAULT_JONES_BUDGET
) -> LaurentPolynomial | BudgetExceeded:
    """Jones polynomial of the closure, normalized to 1 on the unknot.

    Exponents are quarter powers of t (integral multiples of 4 for knots).
    Refuses with a typed BudgetExceeded when the input word has more
    strands than `budget`, however few its simplified diagram keeps; the
    planar-matching state space is Catalan(n).
    The transfer (`_bracket_tl`) runs on the record's simplified diagram
    in one pass and keeps each state's coefficient as one Kronecker-packed
    int in A^2, at the width letters + strands + 1, which its docstring
    proves sufficient, so the answer is exact. Given a Closure, it reads
    (and fills) that record's simplified diagram.
    """
    closure = word if isinstance(word, Closure) else Closure(word)
    if closure.strands > budget:
        return BudgetExceeded(closure.strands, budget)
    reduced = closure.simplified
    return _jones_from_bracket(_bracket_tl(reduced), reduced.exponent_sum())


def kauffman_bracket_bruteforce(word: ArtinWord) -> LaurentPolynomial:
    """Jones via the 2^c Kauffman state sum with union-find loop counting.

    Test oracle for jones_tl; enumerates every smoothing state directly on
    the closed-braid diagram and never touches the planar-matching algebra.
    """
    n, letters = word.strands, word.letters
    c = len(letters)
    seg = [[s * (c + 1) + t for t in range(c + 1)] for s in range(n)]

    total = LaurentPolynomial.zero()
    for state in range(1 << c):
        parent = list(range(n * (c + 1)))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x: int, y: int) -> None:
            parent[find(x)] = find(y)

        exponent = 0
        for idx, (k, e) in enumerate(letters):
            use_ek = bool(state >> idx & 1) == (e > 0)
            # For a positive crossing the A-smoothing is the identity
            # tangle; for a negative crossing it is the cap-cup e_k.
            exponent += -e if use_ek else e
            lo, hi = k - 1, k
            if use_ek:
                union(seg[lo][idx], seg[hi][idx])
                union(seg[lo][idx + 1], seg[hi][idx + 1])
            else:
                union(seg[lo][idx], seg[lo][idx + 1])
                union(seg[hi][idx], seg[hi][idx + 1])
            for s in range(n):
                if s not in (lo, hi):
                    union(seg[s][idx], seg[s][idx + 1])
        for s in range(n):
            union(seg[s][c], seg[s][0])
        loops = len({find(x) for x in range(n * (c + 1))})
        total = total + LaurentPolynomial({exponent: 1}) * _DELTA ** (loops - 1)
    return _jones_from_bracket(total, word.exponent_sum())


# ---------------------------------------------------------------------------
# Slice obstructions and aggregated reports
# ---------------------------------------------------------------------------


def slice_necessary(delta: LaurentPolynomial) -> tuple[bool, bool]:
    """Fox-Milnor-style necessary conditions on a knot polynomial.

    Returns (Delta(1) == +-1, |Delta(-1)| is a perfect square).
    """
    at_one = delta.evaluate_int(1)
    at_minus = abs(delta.evaluate_int(-1))
    return (abs(at_one) == 1, math.isqrt(at_minus) ** 2 == at_minus)


def _diagram_is_split(word: ArtinWord) -> bool:
    """True when some column has no crossings and strands live on both sides."""
    used = {k for k, _ in word.letters}
    return any(k not in used for k in range(1, word.strands))


class Closure:
    """The closure of one word, with each invariant computed at most once.

    Every field is lazy and cached on the record itself, so one record
    costs one Seifert determinant and one signature however many callers
    read it: the splice oracles of `tie`, the next step of `family`, the
    reports and the certificate ledger. Nothing is cached outside the
    record; it lives as long as whoever holds it.

    Closure invariants (Seifert matrix, Δ, σ, Jones) are read off
    `simplified`, the Markov-reduced diagram. For a band word that
    diagram starts from its leaf-retracted word (`retract_leaf_disks`),
    while `artin`, `linking`, `component_records` and `surface` read the
    input word. A knot is its own only component, so `component_records`
    of a knot is `(self,)`. A band word's record also holds its traced
    band surface, which selection and the splice contracts read.
    """

    def __init__(self, word: BandWord | ArtinWord):
        self.word = word

    @cached_property
    def artin(self) -> ArtinWord:
        word = self.word
        return word.expand_to_artin() if isinstance(word, BandWord) else word

    @property
    def strands(self) -> int:
        """The input diagram's strand count, on which Jones budgets are checked.

        It is read before any simplification: a 13-strand band word is
        refused at budget 12 even when its simplified diagram has fewer
        strands.
        """
        return self.artin.strands

    @cached_property
    def simplified(self) -> ArtinWord:
        word = self.word
        if isinstance(word, BandWord):
            word = retract_leaf_disks(word).expand_to_artin()
        return simplify_closure_word(word)

    @cached_property
    def surface(self) -> BoundaryTrace:
        """The traced band surface; only the closure of a band word has one."""
        if not isinstance(self.word, BandWord):
            raise TypeError("an Artin word's closure has no band surface")
        return trace_boundary(self.word)

    @cached_property
    def permutation(self) -> Permutation:
        return underlying_permutation(self.word)

    @cached_property
    def linking(self) -> tuple[tuple[int, ...], ...]:
        return linking_matrix(self.artin)

    @cached_property
    def seifert(self) -> SeifertMatrix:
        return seifert_matrix(self.simplified)

    @cached_property
    def alexander(self) -> LaurentPolynomial:
        # det(V - tV^T) is Delta only over a connected Seifert surface; a
        # split diagram (some generator column empty) has a split closure,
        # whose Alexander polynomial vanishes.
        if _diagram_is_split(self.simplified):
            return LaurentPolynomial.zero()
        return alexander(self.seifert)

    @cached_property
    def signature(self) -> int:
        return signature(self.seifert)

    @cached_property
    def determinant(self) -> int:
        return abs(self.alexander.evaluate_int(-1))

    @property
    def component_records(self) -> tuple[Closure, ...]:
        """One record per closure component, in permutation-cycle order.

        A knot's `(self,)` is not cached: a record holding itself would be
        a reference cycle, freed only by the cycle collector.
        """
        if self.permutation.cycle_count() == 1:
            return (self,)
        return self._link_components

    @cached_property
    def _link_components(self) -> tuple[Closure, ...]:
        count = self.permutation.cycle_count()
        return tuple(Closure(extract_component(self.artin, c)) for c in range(count))

    @cached_property
    def _jones(self) -> LaurentPolynomial:
        return jones_tl(self, self.strands)

    def jones(self, budget: int = DEFAULT_JONES_BUDGET) -> LaurentPolynomial | BudgetExceeded:
        """`jones_tl` of the word under `budget`; the transfer runs at most once.

        A budget below the strand count is refused without computing.
        """
        if self.strands > budget:
            return BudgetExceeded(self.strands, budget)
        return self._jones


def full_report(
    word: BandWord | ArtinWord | Closure,
    with_jones: bool = True,
    budget: int = DEFAULT_JONES_BUDGET,
) -> dict:
    """The closure's invariant report, as the JSON dict the CLI emits.

    Every value is read off the closure's record; given a Closure, the
    report reads (and fills) that record's fields. Jones is left out
    (None) without `with_jones`, and refused above `budget` strands.
    """
    closure = word if isinstance(word, Closure) else Closure(word)
    word = closure.word
    if isinstance(word, BandWord):
        surface = closure.surface
        chi, betti, profile = surface.chi, surface.betti, surface.genus_profile
    else:
        # Seifert's surface of the diagram: one disk per strand, one band per
        # letter; b1 = letters - used columns, the brick count.
        chi = word.strands - len(word.letters)
        betti = len(word.letters) - len({k for k, _ in word.letters})
        profile = ()
    delta = closure.alexander
    polys = [c.alexander for c in closure.component_records]
    jones = closure.jones(budget) if with_jones else None
    exceeded = isinstance(jones, BudgetExceeded)
    if exceeded:
        jones = None
    return {
        "word": word.to_text(),
        "artin_word": closure.artin.to_text(),
        "strands": word.strands,
        "components": closure.permutation.cycle_count(),
        "chi": chi,
        "betti": betti,
        "linking_matrix": [list(row) for row in closure.linking],
        "alexander": delta.to_pairs(),
        "alexander_str": delta.format("t"),
        "signature": closure.signature,
        "determinant": closure.determinant,
        "component_alexander": [p.to_pairs() for p in polys],
        "component_alexander_str": [p.format("t") for p in polys],
        "component_slice_flags": [list(slice_necessary(p)) for p in polys],
        "jones": None if jones is None else jones.to_pairs(),
        "jones_str": None if jones is None else jones.format("t", 4),
        "jones_budget_exceeded": exceeded,
        "genus_profile": [list(g) for g in profile],
    }
