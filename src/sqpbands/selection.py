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

from .surface import TracingBugError, is_unlink_surface, surface_graph, trace_boundary
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


def _verify(word: BandWord, selection: BandSelection) -> bool:
    """Re-check the defining property of a selection against a word."""
    if not 1 <= selection.band <= len(word.letters):
        return False
    trace = trace_boundary(word)
    if selection.case == "Case1":
        return trace.sides_split(selection.band)
    graph = surface_graph(word)
    comp = graph.component_of[word.letters[selection.band - 1][0] - 1]
    circles = [b for b, c in enumerate(trace.surface_component_of) if c == comp]
    return (
        len(circles) == 1
        and selection.band in graph.non_bridge_edges(comp)
        and not trace.sides_split(selection.band)
    )


def classify_and_select(word: BandWord) -> BandSelection:
    """Select the splice band of a non-unlink band word.

    Case 1 is checked first, mirroring the order of the underlying
    dichotomy; ties broken by word position for reproducible families.
    """
    if is_unlink_surface(word):
        raise UnlinkInputError(
            "the surface of this word is a union of disks (its closure is an "
            "unlink); band surfaces realize minimal genus, so the unknot is "
            "the only strongly quasipositive slice knot and no selection exists"
        )
    trace = trace_boundary(word)
    for band in range(1, len(word.letters) + 1):
        if trace.sides_split(band):
            return BandSelection("Case1", band)
    graph = surface_graph(word)
    for comp in range(graph.component_count):
        edges = graph.edges_in(comp)
        if len(edges) >= len(graph.vertices_in(comp)):
            non_bridge = graph.non_bridge_edges(comp)
            band = min(non_bridge)
            circles = [b for b, c in enumerate(trace.surface_component_of) if c == comp]
            if len(circles) != 1:
                raise TracingBugError(
                    f"Case2 component {comp} bounds {len(circles)} circles, not one"
                )
            sel = BandSelection("Case2", band, component=comp, boundary_knot=circles[0])
            if not _verify(word, sel):
                raise TracingBugError(f"selection {sel} fails its own defining property")
            return sel
    raise AssertionError("non-unlink surface with neither a Case1 nor a Case2 band")


def persistent_selection(
    previous: BandSelection,
    tied_word: BandWord,
    band_relocation: Mapping[int, int],
) -> BandSelection:
    """Carry a selection through a splice via its relocation map.

    The relocated band must satisfy the same case property on the new
    word; failure signals a broken word template, not a usage error.
    """
    if previous.band not in band_relocation:
        raise RelocationLostError(
            f"band {previous.band} has no image under the relocation map"
        )
    new_band = band_relocation[previous.band]
    if previous.case == "Case1":
        candidate = BandSelection("Case1", new_band)
    else:
        graph = surface_graph(tied_word)
        comp = graph.component_of[tied_word.letters[new_band - 1][0] - 1]
        trace = trace_boundary(tied_word)
        circles = [b for b, c in enumerate(trace.surface_component_of) if c == comp]
        candidate = BandSelection(
            "Case2",
            new_band,
            component=comp,
            boundary_knot=circles[0] if len(circles) == 1 else None,
        )
    if not _verify(tied_word, candidate):
        raise RelocationLostError(
            f"relocated band {new_band} fails its {previous.case} property"
        )
    return candidate
