"""Band-generator braid words, Artin words, and their permutations.

A band word is a product of positive band generators b(i,j) with
1 <= i < j <= n; it is strongly quasipositive by construction (there is
no way to write an inverse letter). Words are inert sequences: no free
reduction or Markov moves happen implicitly anywhere in this module.

Composition conventions, fixed once and used package-wide:
  * words act left-to-right, so underlying permutations compose with the
    first letter applied first;
  * the Artin generator s_k is the positive (right-handed) crossing, and
    every downstream sign convention is anchored to sigma_1^3 having
    signature -2.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property


class WordSyntaxError(ValueError):
    """Malformed word text or out-of-range letter."""


_BAND_TOKEN = re.compile(r"b\((\d+),(\d+)\)\Z")
_ARTIN_TOKEN = re.compile(r"([sS])(\d+)\Z")


@dataclass(frozen=True)
class BandWord:
    """A strongly quasipositive braid word in B_strands."""

    strands: int
    letters: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.strands < 1:
            raise WordSyntaxError(f"strand count must be positive, got {self.strands}")
        object.__setattr__(self, "letters", tuple((int(i), int(j)) for i, j in self.letters))
        for i, j in self.letters:
            if not (1 <= i < j <= self.strands):
                raise WordSyntaxError(
                    f"band letter b({i},{j}) out of range for {self.strands} strands"
                )

    def __len__(self) -> int:
        return len(self.letters)

    def to_text(self) -> str:
        return " ".join(f"b({i},{j})" for i, j in self.letters)

    def shift(self, offset: int, new_strands: int) -> BandWord:
        """Re-embed onto strands offset+1 .. offset+strands inside B_new_strands."""
        if offset < 0:
            raise WordSyntaxError("shift offset must be non-negative")
        if offset + self.strands > new_strands:
            raise WordSyntaxError(
                f"cannot shift a {self.strands}-strand word by {offset} into B_{new_strands}"
            )
        return BandWord(new_strands, tuple((i + offset, j + offset) for i, j in self.letters))

    def expand_to_artin(self) -> ArtinWord:
        """Replace each b(i,j) by s_i .. s_{j-2} s_{j-1} s_{j-2}^-1 .. s_i^-1."""
        letters: list[tuple[int, int]] = []
        for i, j in self.letters:
            letters.extend((k, 1) for k in range(i, j))
            letters.extend((k, -1) for k in range(j - 2, i - 1, -1))
        return ArtinWord(self.strands, tuple(letters))

    @cached_property
    def permutation(self) -> Permutation:
        return Permutation.from_transpositions(self.strands, self.letters)

    def __str__(self) -> str:
        return f"{self.to_text() or '<empty>'} in B_{self.strands}"


@dataclass(frozen=True)
class ArtinWord:
    """A word in the Artin generators; letter (k, sign) is s_k^sign."""

    strands: int
    letters: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.strands < 1:
            raise WordSyntaxError(f"strand count must be positive, got {self.strands}")
        object.__setattr__(self, "letters", tuple((int(k), int(e)) for k, e in self.letters))
        for k, e in self.letters:
            if not 1 <= k <= self.strands - 1:
                raise WordSyntaxError(f"generator s{k} out of range for {self.strands} strands")
            if e not in (1, -1):
                raise WordSyntaxError(f"generator sign must be +-1, got {e}")

    def __len__(self) -> int:
        return len(self.letters)

    def to_text(self) -> str:
        return " ".join(("s" if e > 0 else "S") + str(k) for k, e in self.letters)

    def exponent_sum(self) -> int:
        return sum(e for _, e in self.letters)

    @cached_property
    def permutation(self) -> Permutation:
        return Permutation.from_transpositions(
            self.strands, tuple((k, k + 1) for k, _ in self.letters)
        )

    def __str__(self) -> str:
        return f"{self.to_text() or '<empty>'} in B_{self.strands}"


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1..n}, stored as the tuple of images of 1..n."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.images}")

    @classmethod
    def from_transpositions(cls, n: int, pairs) -> Permutation:
        """Product of transpositions applied left-to-right."""
        img = list(range(1, n + 1))
        # img[x-1] = where x ends up after the letters seen so far; applying
        # the transposition (a b) next composes it after the current map.
        for a, b in pairs:
            for x in range(n):
                if img[x] == a:
                    img[x] = b
                elif img[x] == b:
                    img[x] = a
        return cls(tuple(img))

    def __call__(self, x: int) -> int:
        return self.images[x - 1]

    @property
    def size(self) -> int:
        return len(self.images)

    @cached_property
    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Cycle decomposition including fixed points, sorted by minimum."""
        seen = set()
        cycles = []
        for start in range(1, len(self.images) + 1):
            if start in seen:
                continue
            cycle = [start]
            seen.add(start)
            x = self(start)
            while x != start:
                cycle.append(x)
                seen.add(x)
                x = self(x)
            cycles.append(tuple(cycle))
        return tuple(cycles)

    def cycle_count(self) -> int:
        return len(self.cycles)

    def cycle_of(self, x: int) -> int:
        """Index (0-based) of the cycle containing x, in min-sorted order."""
        for idx, cycle in enumerate(self.cycles):
            if x in cycle:
                return idx
        raise ValueError(f"{x} is not in 1..{self.size}")


def underlying_permutation(word: BandWord | ArtinWord) -> Permutation:
    """Transposition product of the word, signs ignored; cycles = closure components."""
    return word.permutation


def parse_band_word(text: str, strands: int) -> BandWord:
    """Parse whitespace-separated b(i,j) tokens.

    Round-trips byte-identically through BandWord.to_text for words whose
    source uses single-space separation.
    """
    letters = []
    for pos, token in enumerate(text.split(), start=1):
        m = _BAND_TOKEN.match(token)
        if not m:
            raise WordSyntaxError(f"token {pos}: {token!r} is not of the form b(i,j)")
        i, j = int(m.group(1)), int(m.group(2))
        if i >= j:
            raise WordSyntaxError(f"token {pos}: b({i},{j}) needs i < j")
        letters.append((i, j))
    return BandWord(strands, tuple(letters))


def parse_artin_word(text: str, strands: int) -> ArtinWord:
    """Parse whitespace-separated s<k> / S<k> tokens (capital = inverse)."""
    letters = []
    for pos, token in enumerate(text.split(), start=1):
        m = _ARTIN_TOKEN.match(token)
        if not m:
            raise WordSyntaxError(f"token {pos}: {token!r} is not of the form s<k> or S<k>")
        letters.append((int(m.group(2)), 1 if m.group(1) == "s" else -1))
    return ArtinWord(strands, tuple(letters))
