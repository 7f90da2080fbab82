"""Band selection for the splice construction.

Classifies a band word by the boundary behaviour of its bands and picks
the band that the companion annulus will be tied into:

  * Case 1: some band's two sides lie on different boundary circles of
    the surface; the first such band (in word order) is selected.
  * Case 2: otherwise every surface component bounds a single circle;
    the first non-disk component is taken and within it the first
    non-bridge edge of the retraction graph (an edge on a cycle).

A curve around a band selected this way has linking number +-1 with a
cycle through the band, which is what the downstream satellite
construction needs; unlink surfaces admit no such band and are refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .invariants import Closure
from .surface import BoundaryTrace, TracingBugError
from .words import BandWord


class UnlinkInputError(ValueError):
    """The word bounds only disks; no band selection exists."""


class RelocationLostError(RuntimeError):
    """A relocated selection no longer satisfies its defining property."""


@dataclass(frozen=True)
class BandSelection:
    """A chosen band: `band` is the 1-based letter position in the word."""

    case: str  # "Case1" | "Case2"
    band: int
    component: int | None = None  # Case2: surface component containing the band
    boundary_knot: int | None = None  # Case2: index of that component's circle

    def __post_init__(self):
        if self.case not in ("Case1", "Case2"):
            raise ValueError(f"unknown case tag {self.case!r}")


def _select(surface: BoundaryTrace, case: str, band: int) -> BandSelection | None:
    """The `case` selection of `band` on the traced `surface`, or None.

    Case 1 asks that the band's sides lie on different circles. Case 2
    asks that they do not, that the band lies on a cycle of the
    retraction graph, and that its surface component bounds one circle.
    """
    graph = surface.graph
    if not 1 <= band <= len(graph.edges):
        return None
    if case == "Case1":
        return BandSelection("Case1", band) if surface.sides_split(band) else None
    comp = graph.component_of[graph.edges[band - 1][1] - 1]
    circles = [b for b, c in enumerate(surface.surface_component_of) if c == comp]
    if len(circles) != 1 or surface.sides_split(band) or not graph.on_cycle(band):
        return None
    return BandSelection("Case2", band, component=comp, boundary_knot=circles[0])


def classify_and_select(word: BandWord | Closure) -> BandSelection:
    """Select the splice band of a non-unlink band word.

    Case 1 is checked first, mirroring the order of the underlying
    dichotomy; ties broken by word position for reproducible families.
    Given a Closure, the selection reads that record's surface.
    """
    closure = word if isinstance(word, Closure) else Closure(word)
    surface = closure.surface
    graph = surface.graph
    if graph.is_forest():
        raise UnlinkInputError(
            "the surface of this word is a union of disks (its closure is an "
            "unlink); band surfaces realize minimal genus, so the unknot is "
            "the only strongly quasipositive slice knot and no selection exists"
        )
    for band in range(1, len(graph.edges) + 1):
        if surface.sides_split(band):
            return BandSelection("Case1", band)
    for comp in range(graph.component_count):
        band = next((pos for pos, _, _ in graph.edges_in(comp) if graph.on_cycle(pos)), None)
        if band is None:
            continue
        sel = _select(surface, "Case2", band)
        if sel is None:
            raise TracingBugError(
                f"Case2 band {band} of component {comp} fails its own defining property"
            )
        return sel
    raise TracingBugError("non-unlink surface with neither a Case1 nor a Case2 band")


def persistent_selection(
    previous: BandSelection,
    tied_word: BandWord | Closure,
    band_relocation: Mapping[int, int],
) -> BandSelection:
    """Carry a selection through a splice via its relocation map.

    The relocated band must satisfy the same case property on the new
    word; failure signals a broken word template, not a usage error.
    Given a Closure, the check reads that record's surface.
    """
    if previous.band not in band_relocation:
        raise RelocationLostError(
            f"band {previous.band} has no image under the relocation map"
        )
    new_band = band_relocation[previous.band]
    closure = tied_word if isinstance(tied_word, Closure) else Closure(tied_word)
    selection = _select(closure.surface, previous.case, new_band)
    if selection is None:
        raise RelocationLostError(
            f"relocated band {new_band} fails its {previous.case} property"
        )
    return selection
