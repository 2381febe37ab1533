"""The incidence graph of an arrangement (Section 3, Figure 4).

The graph has one proper vertex per face, storing the face's position
vector, plus two improper vertices: ∅, a virtual (-1)-dimensional face
incident to every 0-dimensional face, and A(S), a (d+1)-dimensional face
every d-dimensional face is incident to.  Each proper vertex carries two
directed edge lists — faces incident *to* it (one dimension down) and
faces it is incident to (one dimension up) — mirroring the data structure
the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arrangement.builder import Arrangement

EMPTY_FACE = "∅"
FULL_FACE = "A(S)"


@dataclass(frozen=True)
class IncidenceGraph:
    """Incidence graph over face indices, with improper vertices.

    ``down[i]`` lists the faces incident to face ``i`` (dimension one
    lower, in its boundary); ``up[i]`` lists the faces ``i`` is incident
    to (dimension one higher).  The improper vertices appear as the
    strings ``"∅"`` and ``"A(S)"`` in those lists.
    """

    arrangement: Arrangement
    down: tuple[tuple[object, ...], ...]
    up: tuple[tuple[object, ...], ...]

    @staticmethod
    def build(arrangement: Arrangement) -> "IncidenceGraph":
        facets = arrangement.facets()
        higher: list[list[int]] = [[] for _ in arrangement.faces]
        for index, below in enumerate(facets):
            for lower in below:
                higher[lower].append(index)

        down: list[tuple[object, ...]] = []
        up: list[tuple[object, ...]] = []
        for face in arrangement.faces:
            lower_list: list[object] = list(facets[face.index])
            higher_list: list[object] = list(higher[face.index])
            if face.dimension == 0:
                lower_list.insert(0, EMPTY_FACE)
            if face.dimension == arrangement.dimension:
                higher_list.append(FULL_FACE)
            down.append(tuple(lower_list))
            up.append(tuple(higher_list))
        return IncidenceGraph(arrangement, tuple(down), tuple(up))

    # ------------------------------------------------------------------
    def proper_edges(self) -> list[tuple[int, int]]:
        """All (lower, higher) incidence pairs between proper faces."""
        edges = []
        for index, ups in enumerate(self.up):
            for target in ups:
                if isinstance(target, int):
                    edges.append((index, target))
        return edges

    def edge_count(self) -> int:
        """Number of edges including those to improper vertices."""
        return sum(len(ups) for ups in self.up) + sum(
            1 for downs in self.down for t in downs if t == EMPTY_FACE
        )

    def neighbourhood(self, index: int) -> "dict[str, tuple[object, ...]]":
        """The local picture around one face (Figure 4 reproduces this)."""
        return {"down": self.down[index], "up": self.up[index]}
