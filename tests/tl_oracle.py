"""The Temperley-Lieb transfer as it was before it closed strands early.

`_apply_cap`, `_bracket_tl` and `_closure_loops` below are frozen copies of
that transfer: every letter runs at the full strand count, and the closure
loops of the states left after the last letter are counted at the end. It
is the oracle of the differential tests in `test_jones_transfer.py`: the
engine's transfer must give `==` brackets. Do not edit it to follow the
engine.
"""

from sqpbands.invariants import _jones_from_bracket
from sqpbands.laurent import LaurentPolynomial, _unpack
from sqpbands.words import ArtinWord


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


def jones_oracle(word: ArtinWord) -> LaurentPolynomial:
    """Jones of the closure of `word` itself (no simplification, no budget)."""
    return _jones_from_bracket(_bracket_tl(word), word.exponent_sum())
