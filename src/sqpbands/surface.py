"""Combinatorics of the canonical band surface of a band word.

The surface of a word in B_n with letters b(i_1,j_1)..b(i_l,j_l) consists
of n parallel disks (one per strand, closed up into circles by the braid
closure) and one positively half-twisted band per letter, attached in
word order. It deformation retracts onto the graph with one vertex per
disk and one edge per band.

Boundary tracing uses the closed-up picture: the feet of all bands on a
disk sit on its boundary circle in word-position order, each foot has a
"start" corner (position^-) and an "end" corner (position^+), and the
half twist joins start(upper disk) <-> end(lower disk) and vice versa.
This connectivity is twist-handedness independent, and the component
count it produces is checked against the cycle count of the underlying
permutation on every call.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .words import BandWord

# A boundary arc is ("disk", disk, pos_from, pos_to) for the run along a
# disk edge between two band feet (pos 0 stands for a bare full circle),
# or ("band", letter_pos, "left"|"right") for one side of a band. The
# "left" side is the one met first walking the upper disk's boundary in
# position order, i.e. the side containing the upper start corner.
Arc = tuple


class TracingBugError(AssertionError):
    """Internal inconsistency between boundary walk and permutation."""


@dataclass(frozen=True)
class SurfaceGraph:
    """Retraction graph: vertices are disks, edge k is the k-th band."""

    vertices: int
    edges: tuple[tuple[int, int, int], ...]  # (position, i, j), 1-based position
    component_of: tuple[int, ...]  # 0-based component label per vertex, by min vertex

    @property
    def component_count(self) -> int:
        return max(self.component_of, default=-1) + 1

    def vertices_in(self, comp: int) -> tuple[int, ...]:
        return tuple(v for v in range(1, self.vertices + 1) if self.component_of[v - 1] == comp)

    def edges_in(self, comp: int) -> tuple[tuple[int, int, int], ...]:
        return tuple(e for e in self.edges if self.component_of[e[1] - 1] == comp)

    def is_forest(self) -> bool:
        return len(self.edges) == self.vertices - self.component_count

    def to_json_dict(self) -> dict:
        return {
            "vertices": self.vertices,
            "edges": [list(e) for e in self.edges],
            "component_of": list(self.component_of),
        }

    def on_cycle(self, pos: int) -> bool:
        """True when band `pos` lies on a cycle: the other bands still join its ends."""
        _, i, j = self.edges[pos - 1]
        root = _roots(self.vertices, (e for e in self.edges if e[0] != pos))
        return root[i] == root[j]

    def non_bridge_edges(self, comp: int | None = None) -> tuple[int, ...]:
        """Positions of edges lying on a cycle, in word order, optionally in one component.

        Each edge is tested with `on_cycle`, a union-find over the other
        edges, so a doubled edge is never a bridge.
        """
        edges = self.edges if comp is None else self.edges_in(comp)
        return tuple(pos for pos, _, _ in edges if self.on_cycle(pos))


@dataclass(frozen=True)
class BoundaryTrace:
    """The band surface of one word: its boundary circles, as cyclic arc
    sequences, over its retraction graph. chi, b1 and the genus profile
    are read off this record; `Closure.surface` holds one per band word.
    """

    components: tuple[tuple[Arc, ...], ...]
    band_sides: dict[int, tuple[int, int]]  # position -> (comp of left, comp of right)
    surface_component_of: tuple[int, ...]  # per boundary comp, its surface component
    circle_of_cycle: tuple[int, ...]  # per permutation cycle, its boundary circle
    graph: SurfaceGraph  # the retraction graph the trace was built on; not in the JSON

    @property
    def count(self) -> int:
        return len(self.components)

    def sides_split(self, position: int) -> bool:
        """True when the two sides of band `position` lie on different circles."""
        a, b = self.band_sides[position]
        return a != b

    def cycle_of_circle(self, circle: int) -> int:
        return self.circle_of_cycle.index(circle)

    @property
    def chi(self) -> int:
        """Euler characteristic: one per disk, minus one per band."""
        return self.graph.vertices - len(self.graph.edges)

    @property
    def betti(self) -> int:
        """First Betti number b1 = surface components - chi."""
        b1 = self.graph.component_count - self.chi
        if b1 < 0:
            raise TracingBugError(f"negative first Betti number {b1}")
        return b1

    @property
    def genus_profile(self) -> tuple[tuple[int, int, int], ...]:
        """Per surface component: (component, genus, boundary circle count)."""
        graph = self.graph
        profile = []
        for comp in range(graph.component_count):
            chi = len(graph.vertices_in(comp)) - len(graph.edges_in(comp))
            b = self.surface_component_of.count(comp)
            if (2 - chi - b) % 2:
                raise TracingBugError(
                    f"component {comp}: chi={chi} and b={b} have impossible parity"
                )
            genus = (2 - chi - b) // 2
            if genus < 0:
                raise TracingBugError(f"component {comp}: negative genus from chi={chi}, b={b}")
            profile.append((comp, genus, b))
        return tuple(profile)

    def to_json_dict(self) -> dict:
        return {
            "components": [[list(arc) for arc in comp] for comp in self.components],
            "band_sides": {str(k): list(v) for k, v in sorted(self.band_sides.items())},
            "surface_component_of": list(self.surface_component_of),
            "circle_of_cycle": list(self.circle_of_cycle),
        }


def _roots(vertices: int, edges: Iterable[tuple[int, int, int]]) -> list[int]:
    """Union-find root of each disk 1..vertices joined by `edges` (index 0 unused)."""
    parent = list(range(vertices + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for _, i, j in edges:
        parent[find(i)] = find(j)
    return [find(v) for v in range(vertices + 1)]


def surface_graph(word: BandWord) -> SurfaceGraph:
    edges = tuple((pos, i, j) for pos, (i, j) in enumerate(word.letters, start=1))
    labels: dict[int, int] = {}
    roots = _roots(word.strands, edges)[1:]
    component_of = tuple(labels.setdefault(r, len(labels)) for r in roots)
    return SurfaceGraph(word.strands, edges, component_of)


def trace_boundary(word: BandWord) -> BoundaryTrace:
    graph = surface_graph(word)
    feet: dict[int, list[int]] = {d: [] for d in range(1, word.strands + 1)}
    for pos, (i, j) in enumerate(word.letters, start=1):
        feet[i].append(pos)
        feet[j].append(pos)

    # Nodes are corners (pos, disk, side) with side 0 = start, 1 = end.
    band_next: dict[tuple, tuple] = {}
    for pos, (i, j) in enumerate(word.letters, start=1):
        band_next[(pos, i, 0)] = (pos, j, 1)
        band_next[(pos, j, 1)] = (pos, i, 0)
        band_next[(pos, i, 1)] = (pos, j, 0)
        band_next[(pos, j, 0)] = (pos, i, 1)
    disk_next: dict[tuple, tuple] = {}
    for d, positions in feet.items():
        for a, b in zip(positions, positions[1:] + positions[:1]):
            disk_next[(a, d, 1)] = (b, d, 0)

    components: list[tuple[Arc, ...]] = []
    comp_of_node: dict[tuple, int] = {}
    wrap_circle: dict[int, int] = {}  # disk -> circle containing its closure arc
    for start in sorted(band_next):
        if start in comp_of_node:
            continue
        idx = len(components)
        arcs: list[Arc] = []
        node = start
        while True:
            comp_of_node[node] = idx
            pos, d, side = node
            if side == 0:
                left = node == (pos, word.letters[pos - 1][0], 0)
                arcs.append(("band", pos, "left" if left else "right"))
                node = band_next[node]
            else:
                nxt = disk_next[node]
                arcs.append(("disk", d, pos, nxt[0]))
                if pos == feet[d][-1] and nxt[0] == feet[d][0]:
                    wrap_circle[d] = idx
                node = nxt
            if node == start:
                break
        components.append(tuple(arcs))
    for d in range(1, word.strands + 1):
        if not feet[d]:
            wrap_circle[d] = len(components)
            components.append((("disk", d, 0, 0),))

    band_sides = {}
    for pos, (i, j) in enumerate(word.letters, start=1):
        band_sides[pos] = (comp_of_node[(pos, i, 0)], comp_of_node[(pos, i, 1)])

    surface_component_of = []
    for arcs in components:
        disk = next(a[1] for a in arcs if a[0] == "disk")
        surface_component_of.append(graph.component_of[disk - 1])

    perm = word.permutation
    if len(components) != perm.cycle_count():
        raise TracingBugError(
            f"boundary walk found {len(components)} circles but the underlying "
            f"permutation has {perm.cycle_count()} cycles"
        )
    # The closure arc of disk d belongs to the link component of strand d,
    # so each permutation cycle must own exactly one circle of wrap arcs.
    circle_of_cycle = []
    for cycle in perm.cycles:
        circles = {wrap_circle[d] for d in cycle}
        if len(circles) != 1:
            raise TracingBugError(f"cycle {cycle} spreads over circles {circles}")
        circle_of_cycle.append(circles.pop())
    if sorted(circle_of_cycle) != list(range(len(components))):
        raise TracingBugError("cycle-to-circle map is not a bijection")
    return BoundaryTrace(
        tuple(components), band_sides, tuple(surface_component_of), tuple(circle_of_cycle), graph
    )


def is_unlink_surface(word: BandWord) -> bool:
    """True iff the retraction graph is a forest (a disjoint union of disks).

    Band surfaces realize the minimal genus of their boundary, so this is
    equivalent to the closure being an unlink.
    """
    return surface_graph(word).is_forest()
