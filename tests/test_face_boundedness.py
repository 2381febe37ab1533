"""Face boundedness from the face lattice, checked against exact LPs.

:meth:`Arrangement.bounded` decides which faces are bounded from sign
vectors and dimensions alone: 0-faces are bounded, a 1-face is bounded
iff two 0-faces lie in its closure, and a higher face iff it has a facet
and every facet is bounded.  The oracle here is the LP method it
replaced on the region-ordering path, ``Polyhedron.is_bounded`` (an
emptiness LP plus up to 2d exact extent LPs), run on every face.

Inputs: the golden-figure relations, the ``cold-build`` round of
``perfbench/inputs.py``, and seeded random arrangements in d = 1..3 with
the degenerate shapes the combinatorial rule has to get right: parallel
copies, planes through one point, no hyperplanes at all, and
arrangements without vertices.
"""

from __future__ import annotations

import importlib.util
import pathlib
import random
from fractions import Fraction

import pytest

from repro.arrangement.adjacency import faces_incident
from repro.arrangement.builder import Arrangement, build_arrangement
from repro.geometry.hyperplane import Hyperplane
from repro.geometry.simplex import clear_feasibility_cache
from repro.obs.metrics import get_registry
from repro.regions.arrangement_regions import ArrangementDecomposition
from repro.workloads.generators import convex_polygon, interval_chain
from tests.test_golden_figures import pentagon, triangle, wedge

ROOT = pathlib.Path(__file__).resolve().parents[1]


def cold_round() -> tuple[tuple, ...]:
    """``COLD_ROUND`` and its database builder from perfbench/inputs.py."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", ROOT / "perfbench" / "inputs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return tuple(
        (spec, module.make_database(spec)) for spec in module.COLD_ROUND
    )


def assert_matches_oracle(arrangement: Arrangement) -> None:
    bounded = arrangement.bounded()
    assert len(bounded) == len(arrangement.faces)
    for face in arrangement.faces:
        oracle = face.polyhedron(arrangement.hyperplanes).is_bounded()
        assert bounded[face.index] == oracle, str(face)


def assert_facets_are_incidences(arrangement: Arrangement) -> None:
    """The facet lists equal the pairwise definition of incidence."""
    faces = arrangement.faces
    for face, facets in zip(faces, arrangement.facets()):
        expected = tuple(
            other.index for other in faces
            if other.dimension == face.dimension - 1
            and faces_incident(other, face)
        )
        assert facets == expected, str(face)


def planes(rows) -> list[Hyperplane]:
    return [Hyperplane.make(normal, offset) for normal, offset in rows]


# -- golden figures and the cold-build round -------------------------------

@pytest.mark.parametrize(
    "relation",
    [
        triangle(),
        pentagon(),
        wedge(),
        interval_chain(2).spatial,
        interval_chain(2, gap=True).spatial,
    ],
    ids=["triangle", "pentagon", "wedge", "chain2", "gaps2"],
)
def test_golden_figure_faces(relation):
    arrangement = build_arrangement(relation)
    assert_matches_oracle(arrangement)
    assert_facets_are_incidences(arrangement)


def test_triangle_census_of_bounded_faces():
    """Figure 4: the closed triangle's 1 + 3 + 3 faces are the bounded ones."""
    arrangement = build_arrangement(triangle())
    census: dict[int, int] = {}
    for face, bounded in zip(arrangement.faces, arrangement.bounded()):
        if bounded:
            census[face.dimension] = census.get(face.dimension, 0) + 1
    assert census == {0: 3, 1: 3, 2: 1}


COLD_ROUND = cold_round()


@pytest.mark.parametrize(
    "spec, database", COLD_ROUND,
    ids=[f"{family}({size})" for (family, size, __), __ in COLD_ROUND],
)
def test_cold_build_round_faces(spec, database):
    assert_matches_oracle(build_arrangement(database.spatial))


# -- seeded random and degenerate arrangements -----------------------------

def random_rows(rng: random.Random, dimension: int, count: int):
    rows = []
    while len(rows) < count:
        normal = [rng.randint(-3, 3) for __ in range(dimension)]
        if any(normal):
            rows.append((normal, rng.randint(-3, 3)))
    return rows


def parallel_rows(rng: random.Random, dimension: int, count: int):
    """A few normals, each repeated at several offsets."""
    base = random_rows(rng, dimension, max(1, count // 2))
    rows = []
    for normal, offset in base:
        rows.append((normal, offset))
        rows.append((normal, offset + rng.randint(1, 3)))
    return rows[:count]


def concurrent_rows(rng: random.Random, dimension: int, count: int):
    """Every plane passes through one rational point."""
    point = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
             for __ in range(dimension)]
    return [
        (normal, sum(c * x for c, x in zip(normal, point)))
        for normal, __ in random_rows(rng, dimension, count)
    ]


def vertexless_rows(rng: random.Random, dimension: int, count: int):
    """Normals confined to the first d-1 axes: every face holds a line."""
    rows = []
    while len(rows) < count:
        normal = [rng.randint(-3, 3) for __ in range(dimension - 1)] + [0]
        if any(normal):
            rows.append((normal, rng.randint(-3, 3)))
    return rows


SHAPES = {
    "random": random_rows,
    "parallel": parallel_rows,
    "concurrent": concurrent_rows,
    "vertexless": vertexless_rows,
}
PLANES_PER_DIMENSION = {1: 5, 2: 5, 3: 4}
#: A 1-D hyperplane is a point, so 1-D has no vertexless shape.
CASES = [
    (dimension, shape)
    for dimension in (1, 2, 3)
    for shape in sorted(SHAPES)
    if not (dimension == 1 and shape == "vertexless")
]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("dimension, shape", CASES)
def test_seeded_arrangement_faces(dimension, shape, seed):
    rng = random.Random(f"face-boundedness-{dimension}-{shape}-{seed}")
    rows = SHAPES[shape](rng, dimension, PLANES_PER_DIMENSION[dimension])
    arrangement = build_arrangement(
        hyperplanes=sorted(set(planes(rows)),
                           key=lambda h: (h.normal, h.offset)),
        dimension=dimension,
    )
    assert_matches_oracle(arrangement)
    assert_facets_are_incidences(arrangement)
    if shape == "vertexless":
        assert not any(arrangement.bounded())


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_no_hyperplanes_is_one_unbounded_face(dimension):
    arrangement = build_arrangement(hyperplanes=[], dimension=dimension)
    assert [face.dimension for face in arrangement.faces] == [dimension]
    assert arrangement.facets() == ((),)
    assert arrangement.bounded() == (False,)
    assert_matches_oracle(arrangement)


def test_lines_through_one_point_bound_only_the_point():
    arrangement = build_arrangement(
        hyperplanes=planes([((1, 0), 0), ((0, 1), 0), ((1, 1), 0)]),
        dimension=2,
    )
    bounded = [
        face.dimension
        for face, flag in zip(arrangement.faces, arrangement.bounded())
        if flag
    ]
    assert bounded == [0]
    assert_matches_oracle(arrangement)


def test_bounded_flags_are_cached_outside_equality():
    arrangement = build_arrangement(triangle())
    twin = Arrangement(
        arrangement.dimension,
        arrangement.hyperplanes,
        arrangement.faces,
        arrangement.relation,
    )
    assert arrangement.bounded() is arrangement.bounded()
    assert arrangement == twin


# -- no exact LP on the decomposition path ---------------------------------

@pytest.mark.parametrize(
    "database",
    [interval_chain(8), convex_polygon(6)],
    ids=["interval_chain(8)", "convex_polygon(6)"],
)
def test_decomposition_runs_no_exact_optimisation(database):
    counter = get_registry().counter("lp.optimizations")
    clear_feasibility_cache()
    before = counter.value
    decomposition = ArrangementDecomposition(database.spatial)
    assert [r.is_bounded() for r in decomposition.regions].count(True) > 0
    assert counter.value == before
    # The counter is live: the LP oracle does bump it.
    face = decomposition.arrangement.faces[0]
    face.polyhedron(decomposition.arrangement.hyperplanes).is_bounded()
    assert counter.value > before
