"""Splicing a quasipositive annulus into a band of a band surface.

The construction: put the annulus word on strands 1..m and the target
word on strands m+1..m+n, delete the annulus' designated band and the
target's selected band, and insert two cross-splice bands joining the
four cut ends. The output is again a band word (so its closure is
strongly quasipositive by construction) and its closure is the satellite
of the target closure with the annulus' companion knot tied into the
selected band.

The exact pairing and order of the two cross-splice letters is template
data carried by the annulus and validated against the oracle contracts
below on every call: the spliced word must preserve Euler characteristic,
surface and boundary component counts, the linking matrix, the signature,
and show the companion's Alexander factor exactly on the components the
band touches (no components in the winding-zero case). A violation is a
hard error, never ignored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

from .invariants import DEFAULT_JONES_BUDGET, BudgetExceeded, Closure
from .laurent import LaurentPolynomial
from .report import Certificate
from .selection import BandSelection, _select, classify_and_select, persistent_selection
from .words import BandWord


class SelectionInvalidError(ValueError):
    """The supplied selection does not hold for the target word."""


class OracleViolationError(AssertionError):
    """A post-condition of the splice failed: the word template is wrong."""

    def __init__(self, message: str, certificates: tuple[Certificate, ...] = ()):
        super().__init__(message)
        self.certificates = certificates


@dataclass(frozen=True)
class AnnulusWord:
    """A quasipositive annulus with a designated band and splice template.

    The word must bound an annulus: chi = 0, connected surface, two
    boundary circles with inter-circle linking +1 (one negative full
    twist), each a knot whose Alexander polynomial is
    `companion_alexander` up to units. `splice` gives the two
    replacement letters as (annulus_end, target_end) pairs, where annulus
    ends are "a1"/"a2" (lower/upper disk of the designated band) and
    target ends "p"/"q" (lower/upper disk of the selected band); `marked`
    says which of the two inserted letters stands in for the spliced band
    when the construction is iterated.
    """

    word: BandWord
    designated_band: int
    companion_name: str
    companion_alexander: LaurentPolynomial
    splice: tuple[tuple[str, str], tuple[str, str]] = (("a2", "q"), ("a1", "p"))
    marked: int = 0  # 0-based index into the inserted splice letters

    def __post_init__(self):
        if not 1 <= self.designated_band <= len(self.word.letters):
            raise ValueError("designated band index out of range")
        closure = Closure(self.word)
        surface = closure.surface
        if surface.chi != 0:
            raise ValueError("annulus word must have Euler characteristic 0")
        if surface.graph.component_count != 1:
            raise ValueError("annulus surface must be connected")
        if surface.count != 2:
            raise ValueError("annulus surface must have two boundary circles")
        lk = closure.linking
        if lk[0][1] != 1:
            raise ValueError(f"boundary circles link {lk[0][1]}, expected 1")
        for comp, record in enumerate(closure.component_records):
            if not record.alexander.is_unit_equivalent(self.companion_alexander):
                raise ValueError(
                    f"boundary circle {comp} has Alexander polynomial "
                    f"{record.alexander.format()}, not the companion's "
                    f"{self.companion_alexander.format()}"
                )
        ends = sorted(e for pair in self.splice for e in pair)
        if ends != ["a1", "a2", "p", "q"]:
            raise ValueError(f"splice template must use each end once, got {self.splice}")
        if self.marked not in (0, 1):
            raise ValueError("marked splice letter must be 0 or 1")

    @property
    def strands(self) -> int:
        return self.word.strands


ALPHA_LETTERS = ((1, 6), (3, 8), (2, 5), (1, 4), (3, 7), (2, 6), (5, 8), (4, 7))

# Alexander polynomial of the companion m(9_46): 2t^2 - 5t + 2.
_M946_ALEXANDER = LaurentPolynomial({0: 2, 1: -5, 2: 2})


def bundled_alpha() -> AnnulusWord:
    """The 8-strand annulus word for the slice companion m(9_46).

    Its surface is an annulus of the companion knot with one negative
    full twist (boundary circles link +1); each boundary circle is a
    knot with Alexander polynomial 2t^2 - 5t + 2 and determinant 9. The
    designated band is the last letter, b(4,7). Built and validated once;
    every call returns the same immutable object.
    """
    return _alpha_annulus(ALPHA_LETTERS)


# Keyed on the letters: a replaced ALPHA_LETTERS is built and validated
# afresh, and no call gets an annulus built from other letters.
@cache
def _alpha_annulus(letters: tuple[tuple[int, int], ...]) -> AnnulusWord:
    return AnnulusWord(
        word=BandWord(8, letters),
        designated_band=8,
        companion_name="m(9_46)",
        companion_alexander=_M946_ALEXANDER,
    )


@cache
def trivial_annulus() -> AnnulusWord:
    """Control object: the positive Hopf band, companion the unknot.

    Splicing it into any band is invariant-neutral, which the test suite
    checks for every computed invariant including Jones. Built once, like
    `bundled_alpha`.
    """
    return AnnulusWord(
        word=BandWord(2, ((1, 2), (1, 2))),
        designated_band=1,
        companion_name="unknot",
        companion_alexander=LaurentPolynomial.one(),
    )


@dataclass(frozen=True)
class TieResult:
    """Output word of one splice with its provenance and relocation map.

    `band_relocation` sends every letter position of the input target to
    its position in `word`; the selected band maps to the marked splice
    letter, its combinatorial stand-in for iteration. The two inserted
    splice letters other than the marked one have no preimage.
    `closure` is the record of `word`'s closure; it keeps whatever
    invariants the splice oracles computed for the next step and the
    reports.
    """

    word: BandWord
    band_relocation: dict[int, int]
    annulus_name: str
    selection: BandSelection
    iteration: int
    closure: Closure = field(compare=False, repr=False)
    certificates: tuple[Certificate, ...] = field(default_factory=tuple)

    def to_json_dict(self) -> dict:
        return {
            "word": self.word.to_text(),
            "strands": self.word.strands,
            "band_relocation": {str(k): v for k, v in sorted(self.band_relocation.items())},
            "annulus": self.annulus_name,
            "selection": {
                "case": self.selection.case,
                "band": self.selection.band,
                "component": self.selection.component,
                "boundary_knot": self.selection.boundary_knot,
            },
            "iteration": self.iteration,
            "certificates": [c.to_json_dict() for c in self.certificates],
        }


def _splice_letters(
    annulus: AnnulusWord, p: int, q: int
) -> tuple[tuple[int, int], tuple[int, int]]:
    a1, a2 = annulus.word.letters[annulus.designated_band - 1]
    ends = {"a1": a1, "a2": a2, "p": p, "q": q}
    letters = []
    for x, y in annulus.splice:
        i, j = sorted((ends[x], ends[y]))
        letters.append((i, j))
    return letters[0], letters[1]


def tie(
    annulus: AnnulusWord,
    target: BandWord | Closure,
    selection: BandSelection,
    iteration: int = 1,
) -> TieResult:
    """Splice `annulus` into the selected band of `target`.

    Returns the new band word on strands(target) + strands(annulus)
    together with the band relocation map. Every post-condition (a)-(f)
    is checked; any failure raises OracleViolationError. A target given
    as the Closure of a band word lends the oracles the invariants it
    already holds.
    """
    before = target if isinstance(target, Closure) else Closure(target)
    target = before.word
    if _select(before.surface, selection.case, selection.band) is None:
        raise SelectionInvalidError(
            f"{selection.case} band {selection.band} does not hold for {target}"
        )
    m = annulus.strands
    shifted = target.shift(m, m + target.strands)
    s = selection.band
    p, q = shifted.letters[s - 1]
    survivors = tuple(
        letter
        for idx, letter in enumerate(annulus.word.letters, start=1)
        if idx != annulus.designated_band
    )
    first, second = _splice_letters(annulus, p, q)
    letters = (
        shifted.letters[: s - 1]
        + survivors
        + (first, second)
        + shifted.letters[s:]
    )
    word = BandWord(m + target.strands, letters)

    block_growth = len(annulus.word.letters)  # net letters added
    marked_pos = s + len(survivors) + annulus.marked
    relocation = {}
    for t in range(1, len(target.letters) + 1):
        if t < s:
            relocation[t] = t
        elif t == s:
            relocation[t] = marked_pos
        else:
            relocation[t] = t + block_growth

    after = Closure(word)
    certificates = _check_oracles(annulus, before, selection, after)
    return TieResult(
        word=word,
        band_relocation=relocation,
        annulus_name=annulus.companion_name,
        selection=selection,
        iteration=iteration,
        closure=after,
        certificates=certificates,
    )


def _fail(name: str, detail: str, done: list[Certificate]) -> None:
    done.append(Certificate(name, "fail", detail))
    raise OracleViolationError(f"splice oracle {name}: {detail}", tuple(done))


def _check_oracles(
    annulus: AnnulusWord,
    before: Closure,
    selection: BandSelection,
    after: Closure,
) -> tuple[Certificate, ...]:
    certs: list[Certificate] = []
    m = annulus.strands
    surface_in, surface_out = before.surface, after.surface

    chi_in, chi_out = surface_in.chi, surface_out.chi
    if chi_out != chi_in:
        _fail("a:euler", f"chi {chi_in} -> {chi_out}", certs)
    certs.append(Certificate("a:euler", "pass", f"chi = {chi_out}"))

    comps_in = surface_in.graph.component_count
    comps_out = surface_out.graph.component_count
    if comps_out != comps_in:
        _fail("b:surface-components", f"{comps_in} -> {comps_out}", certs)
    certs.append(Certificate("b:surface-components", "pass", f"count = {comps_out}"))

    perm_in = before.permutation
    perm_out = after.permutation
    if perm_out.cycle_count() != perm_in.cycle_count():
        _fail(
            "c:boundary-components",
            f"{perm_in.cycle_count()} -> {perm_out.cycle_count()}",
            certs,
        )
    certs.append(
        Certificate("c:boundary-components", "pass", f"count = {perm_out.cycle_count()}")
    )

    # Component correspondence: target strand x lives on strand x+m of the
    # spliced word; the induced map on closure components must be a
    # bijection matching the linking matrices entry for entry.
    corr: dict[int, int] = {}
    for c, cycle in enumerate(perm_in.cycles):
        images = {perm_out.cycle_of(x + m) for x in cycle}
        if len(images) != 1:
            _fail("d:linking", f"target component {c} maps to components {images}", certs)
        corr[c] = images.pop()
    if sorted(corr.values()) != list(range(perm_out.cycle_count())):
        _fail("d:linking", f"component map {corr} is not a bijection", certs)
    lk_in = before.linking
    lk_out = after.linking
    for c1 in corr:
        for c2 in corr:
            if lk_in[c1][c2] != lk_out[corr[c1]][corr[c2]]:
                _fail(
                    "d:linking",
                    f"lk({c1},{c2}) changed {lk_in[c1][c2]} -> {lk_out[corr[c1]][corr[c2]]}",
                    certs,
                )
    certs.append(Certificate("d:linking", "pass", "matrix preserved under correspondence"))

    sig_in = before.signature
    sig_out = after.signature
    if sig_in != sig_out:
        _fail("e:signature", f"{sig_in} -> {sig_out}", certs)
    certs.append(Certificate("e:signature", "pass", f"sigma = {sig_out}"))

    if selection.case == "Case2":
        d_in = before.alexander
        d_out = after.alexander
        if not d_in.is_unit_equivalent(d_out):
            _fail(
                "f:alexander",
                f"Case2 Delta changed: {d_in.format()} -> {d_out.format()}",
                certs,
            )
        certs.append(
            Certificate("f:alexander", "pass", f"winding-zero satellite keeps {d_out.format()}")
        )
    else:
        c1, c2 = surface_in.band_sides[selection.band]
        affected = {surface_in.cycle_of_circle(c1), surface_in.cycle_of_circle(c2)}
        factor = annulus.companion_alexander
        for c in range(perm_in.cycle_count()):
            d_in = before.component_records[c].alexander
            d_out = after.component_records[corr[c]].alexander
            want = (d_in * factor).normalized() if c in affected else d_in
            if not d_out.is_unit_equivalent(want):
                _fail(
                    "f:alexander",
                    f"component {c}: expected {want.format()}, got {d_out.format()}",
                    certs,
                )
        certs.append(
            Certificate(
                "f:alexander",
                "pass",
                f"touched components gained the factor {factor.format()}",
            )
        )
    return tuple(certs)


def family(
    target: BandWord,
    count: int,
    annulus: AnnulusWord | None = None,
) -> list[TieResult]:
    """Iterate the splice: F_0 = target, F_{i+1} = annulus (+) F_i.

    Each step re-ties into the image of the originally selected band via
    the relocation maps, so the companion accumulates in the same band.
    Returns [delta_0 .. delta_count] with delta_0 a degenerate step-0
    entry for the seed word. Step i's closure record is the target of
    step i+1, so each closure's surface is traced once and its invariants
    are computed once.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    closure = Closure(target)
    selection = classify_and_select(closure)  # an unlink seed raises UnlinkInputError
    if annulus is None:
        annulus = bundled_alpha()
    seed = TieResult(
        word=target,
        band_relocation={t: t for t in range(1, len(target.letters) + 1)},
        annulus_name=annulus.companion_name,
        selection=selection,
        iteration=0,
        closure=closure,
        certificates=(),
    )
    results = [seed]
    for i in range(1, count + 1):
        step = tie(annulus, results[-1].closure, selection, iteration=i)
        results.append(step)
        if i < count:
            selection = persistent_selection(selection, step.closure, step.band_relocation)
    return results


def family_ledger(
    steps: list[TieResult],
    annulus: AnnulusWord,
    with_jones: bool = False,
    budget: int = DEFAULT_JONES_BUDGET,
) -> list[tuple[int | str, Certificate]]:
    """Certificate ledger of a family as (step, certificate) rows.

    Every splice contract of every step comes first, then the non-isotopy
    evidence: machine-checked where the invariants reach, otherwise
    explicitly tagged paper-cited, never guessed. Jones evidence is read
    only `with_jones`, under `budget`. Invariants come from the steps'
    closure records.
    """
    rows: list[tuple[int | str, Certificate]] = [
        (step.iteration, c) for step in steps for c in step.certificates
    ]
    if len(steps) < 2:
        return rows
    if annulus.companion_alexander.is_unit_equivalent(LaurentPolynomial.one()):
        rows.append((
            "all",
            Certificate(
                "non-isotopy",
                "pass",
                "trivial companion: the splice is a control and the "
                "closures are isotopic; no distinction is claimed",
            ),
        ))
        return rows
    if steps[0].selection.case == "Case1":
        polys = [
            sorted(c.alexander.normalized().to_pairs() for c in step.closure.component_records)
            for step in steps
        ]
        distinct = all(
            polys[i] != polys[j] for i in range(len(polys)) for j in range(i + 1, len(polys))
        )
        rows.append((
            "all",
            Certificate(
                "pairwise-non-isotopy",
                "pass" if distinct else "fail",
                "component Alexander polynomials pairwise distinct",
            ),
        ))
        return rows

    def jones(step: TieResult) -> LaurentPolynomial | None:
        value = step.closure.jones(budget) if with_jones else None
        return None if isinstance(value, BudgetExceeded) else value

    for i in range(1, len(steps)):
        a, b = jones(steps[i - 1]), jones(steps[i])
        if a is not None and b is not None and a != b:
            cert = Certificate(f"non-isotopy-{i - 1}-vs-{i}", "pass", "Jones polynomials differ")
        else:
            cert = Certificate(
                f"non-isotopy-{i - 1}-vs-{i}",
                "paper-cited",
                "not machine-checked: relies on the cited satellite "
                "rigidity theorem for winding-zero patterns",
            )
        rows.append((i, cert))
    if len(steps) > 2:
        rows.append((
            "i>=2",
            Certificate(
                "pairwise-non-isotopy",
                "paper-cited",
                "no computed invariant separates later steps; "
                "distinctness is cited, not machine-checked",
            ),
        ))
    return rows


def tb_connected_sum(values: list[int]) -> int:
    """Fold of TB(L1 # L2) = TB(L1) + TB(L2) + 1 over a non-empty list."""
    if not values:
        raise ValueError("need at least one summand")
    acc = values[0]
    for v in values[1:]:
        acc = acc + v + 1
    return acc
