"""Seeded inputs of every workload.

Everything here is a pure function of ``--seed``: the same seed gives a
byte-identical request or op list (``request_digest``), and the program
under test only ever sees these generated inputs.  Databases are named
by a spec ``(family, size, gap)`` that both the program side and the
oracle side rebuild from the generators in ``repro.workloads``.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

#: Databases served by ``serve-read``.  Seven extensions against the
#: engine cache's capacity of 64, so the working set fits and every
#: read after setup is warm.  ``chain2``/``gaps2`` carry the RegLFP and
#: RegTC connectivity sentences: on anything larger one sentence costs
#: 0.4 s or more, which would swamp a steady-state serving loop.
SERVE_READ_DBS: dict[str, tuple] = {
    "chain8": ("interval_chain", 8, False),
    "chain10": ("interval_chain", 10, False),
    "gaps4": ("interval_chain", 4, True),
    "boxes3": ("chain_of_boxes", 3, False),
    "grid3": ("grid_relation", 3, False),
    "chain2": ("interval_chain", 2, False),
    "gaps2": ("interval_chain", 2, True),
}
ELEMENT_DBS = ("chain8", "chain10", "gaps4", "boxes3", "grid3")
SENTENCE_DBS = ("chain2", "gaps2")

#: ``serve-write``: the one database the client writes and reads.
WRITE_DB = "wchain6"
SERVE_WRITE_DBS: dict[str, tuple] = {
    WRITE_DB: ("interval_chain", 6, False),
}

#: The read mix comes in blocks of fixed composition, shuffled by the
#: seed: per block, ``FRESH_ROUNDS`` fresh queries per (database,
#: template) pair, ``REPEATS_PER_BLOCK`` exact repeats and
#: ``SENTENCES_PER_BLOCK`` connectivity sentences.  On serve-read that
#: is 24 fresh, 5 repeats and 1 sentence (80% / 17% / 3%).  Drawing
#: each request's kind independently instead would move the median
#: with the seed.
FRESH_ROUNDS = 2
REPEATS_PER_BLOCK = 5
SENTENCES_PER_BLOCK = 1

#: ``cold-build``: one round is a fixed stratified sample of the size
#: ranges interval_chain 6-8, chain_of_boxes 2-3, grid_relation 2-3 and
#: convex_polygon 4-6 (0.06-0.3 s each, about 1.5 s a round), small so
#: that a 15 s run repeats every kind six times or more.  The seed
#: orders each round and draws the query constants; it does not draw
#: sizes, because a seeded size mix would move the figures with the
#: seed.
COLD_ROUND: tuple[tuple, ...] = (
    ("interval_chain", 6, False),
    ("interval_chain", 8, False),
    ("chain_of_boxes", 2, False),
    ("chain_of_boxes", 3, False),
    ("grid_relation", 2, False),
    ("grid_relation", 3, False),
    ("convex_polygon", 4, False),
    ("convex_polygon", 5, False),
    ("convex_polygon", 6, False),
)

#: ``fixpoint``: E15 reachability datalog at three chain lengths plus
#: the RegLFP and RegTC connectivity sentences on two 1-D databases
#: (0.13-0.45 s each, about 1.7 s a round).  Both sentences cost about
#: 0.9 s on the smallest 2-D database, ``chain_of_boxes(1)``, which
#: would halve the rounds of a run.
DATALOG_SIZES = (8, 12, 16)
SENTENCE_SPECS: tuple[tuple, ...] = (
    ("interval_chain", 3, False),
    ("interval_chain", 4, False),
)
FIXPOINT_ROUND: tuple[tuple, ...] = tuple(
    ("datalog", ("interval_chain", k, False)) for k in DATALOG_SIZES
) + tuple(
    (kind, spec) for spec in SENTENCE_SPECS for kind in ("lfp", "tc")
)

REACH_PROGRAM = (
    "Reach(x) :- S(x), x = 0.\n"
    "Reach(y) :- Reach(x), S(y), y - x <= 1, x - y <= 1.\n"
)

#: Query constants of the in-process workloads.  A small pool keeps
#: their oracle answers reusable across seeds.
CONSTANT_POOL = tuple(
    Fraction(n, d) for n, d in
    ((1, 4), (1, 3), (1, 2), (2, 3), (3, 4), (1, 1), (3, 2), (2, 1))
)

ONE_D_TEMPLATES = (
    "exists y. S(y) & x0 - y <= {c} & y - x0 <= {c}",
    "exists y. S(y) & y - x0 >= {c} & y - x0 <= {d}",
)
TWO_D_TEMPLATES = (
    "exists y. S(x0, y) & y <= {c}",
    "exists u. S(u, x1) & x0 - u >= {c}",
    "exists u, v. S(u, v) & x0 - u <= {c} & u - x0 <= {c} & "
    "x1 - v <= {c} & v - x1 <= {c}",
)

#: Requests in one ``serve-read`` block (see ``FRESH_ROUNDS``).
READ_BLOCK = sum(
    FRESH_ROUNDS * len(ONE_D_TEMPLATES if SERVE_READ_DBS[name][0]
                       == "interval_chain" else TWO_D_TEMPLATES)
    for name in ELEMENT_DBS
) + REPEATS_PER_BLOCK + SENTENCES_PER_BLOCK


def make_database(spec: tuple):
    """The database a spec names, built by ``repro.workloads``."""
    from repro.workloads import generators

    family, size, gap = spec
    if family == "interval_chain":
        return generators.interval_chain(size, gap=gap)
    return getattr(generators, family)(size)


def arity(spec: tuple) -> int:
    return 1 if spec[0] == "interval_chain" else 2


def spec_key(spec: tuple) -> str:
    family, size, gap = spec
    return f"{family}({size}{', gap' if gap else ''})"


def connectivity_sentence(kind: str, dimension: int) -> str:
    """The paper's Conn sentence (RegLFP) or its RegTC variant as text.

    The same sentences as ``repro.queries.connectivity``, spelled out as
    source text because requests travel over HTTP.
    """
    xs = [f"x{i}a" for i in range(dimension)]
    ys = [f"x{i}b" for i in range(dimension)]
    head = (
        f"forall {', '.join(xs + ys)}. "
        f"(S({', '.join(xs)}) & S({', '.join(ys)})) -> "
        f"(exists RX, RY. ({', '.join(xs)}) in RX & "
        f"({', '.join(ys)}) in RY & "
    )
    if kind == "lfp":
        return head + (
            "[lfp M(R, Rp). ((R = Rp & sub(R, S)) | "
            "(exists Z. M(R, Z) & adj(Z, Rp) & sub(Rp, S)))](RX, RY))"
        )
    return head + (
        "sub(RX, S) & sub(RY, S) & "
        "(RX = RY | [tc (R) -> (Rp). adj(R, Rp) & sub(R, S) & "
        "sub(Rp, S)](RX; RY)))"
    )


def _element_query(rng: random.Random, dimension: int, constant) -> str:
    templates = ONE_D_TEMPLATES if dimension == 1 else TWO_D_TEMPLATES
    template = templates[rng.randrange(len(templates))]
    return template.format(c=constant, d=constant + 1)


class _FreshConstants:
    """Distinct seeded rationals in (0, 3), none an integer, so fresh
    queries never repeat and every one lands inside the databases'
    extent (0-10) next to their integer endpoints without meeting one:
    each fresh query does comparable work, so a kind's cost does not
    hinge on which constants the seed drew."""

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._seen: set = set()

    def next(self) -> Fraction:
        while True:
            value = _non_integer(self._rng, 3)
            if value not in self._seen:
                self._seen.add(value)
                return value


def _non_integer(rng: random.Random, bound: int) -> Fraction:
    """A seeded rational in (0, bound) that is not an integer."""
    while True:
        denominator = rng.randint(2, 97)
        value = Fraction(rng.randint(1, bound * denominator - 1),
                         denominator)
        if value.denominator != 1:
            return value


def read_requests(
    seed: int, client: int, count: int, databases: dict,
    element_dbs, sentence_dbs=(),
) -> list[dict]:
    """One closed-loop reader's request list, in blocks (see above).

    Fresh requests are RegFO element queries with seeded rational
    constants, never repeated (real evaluations); repeats re-send one
    of this client's earlier fresh queries (answer-cache hits);
    sentences are the connectivity sentences on ``sentence_dbs``.
    """
    rng = random.Random(f"perfbench-read-{seed}-{client}")
    constants = _FreshConstants(rng)
    slots = [
        (name, index, template)
        for name in element_dbs
        for index, template in enumerate(
            ONE_D_TEMPLATES if arity(databases[name]) == 1
            else TWO_D_TEMPLATES
        )
        for __ in range(FRESH_ROUNDS)
    ]
    sentences = [(name, kind) for name in sentence_dbs
                 for kind in ("lfp", "tc")]
    offset = rng.randrange(len(sentences)) if sentences else 0
    fresh: list[dict] = []
    requests: list[dict] = []
    block = 0
    while len(requests) < count:
        kinds = slots + [None] * REPEATS_PER_BLOCK
        if sentences:
            kinds += ["sentence"] * SENTENCES_PER_BLOCK
        rng.shuffle(kinds)
        if not fresh:
            # A repeat needs an earlier fresh query to repeat.
            first = next(i for i, kind in enumerate(kinds)
                         if isinstance(kind, tuple))
            kinds.insert(0, kinds.pop(first))
        for kind in kinds:
            if kind == "sentence":
                name, which = sentences[(offset + block) % len(sentences)]
                request = {
                    "database": name, "kind": which,
                    "query": connectivity_sentence(
                        which, arity(databases[name])),
                }
            elif kind is None:
                request = dict(fresh[rng.randrange(len(fresh))],
                               kind="repeat")
            else:
                name, index, template = kind
                constant = constants.next()
                request = {
                    "database": name, "kind": "fresh", "template": index,
                    "query": template.format(c=constant, d=constant + 1),
                }
                fresh.append(request)
            requests.append(request)
        block += 1
    return requests[:count]


def write_cycles(seed: int, count: int) -> list[dict]:
    """The writer's cycles: insert a segment, read, retract it, read.

    Segments are distinct within a run, so every insert makes a version
    the engine has never seen and the read after it pays the rebuild.
    Alternating insert and retract keeps the database size steady.
    """
    rng = random.Random(f"perfbench-write-{seed}")
    constants = _FreshConstants(rng)
    seen: set = set()
    cycles = []
    while len(cycles) < count:
        start = _non_integer(rng, 5)
        length = (Fraction(1, 2), Fraction(2, 3), Fraction(3, 4))[
            rng.randrange(3)
        ]
        if (start, length) in seen or (start + length).denominator == 1:
            # An endpoint on an existing integer endpoint adds one plane
            # instead of two: a cheaper, different write.
            continue
        seen.add((start, length))
        segment = f"{start} <= x0 & x0 <= {start + length}"
        cycles.append({
            "segment": segment,
            "fresh_query": _element_query(rng, 1, constants.next()),
            "after_query": _element_query(rng, 1, constants.next()),
        })
    return cycles


def cold_ops(seed: int, rounds: int) -> list[dict]:
    rng = random.Random(f"perfbench-cold-{seed}")
    ops = []
    for __ in range(rounds):
        order = list(COLD_ROUND)
        rng.shuffle(order)
        for spec in order:
            constant = CONSTANT_POOL[rng.randrange(len(CONSTANT_POOL))]
            ops.append({
                "spec": list(spec),
                "query": _element_query(rng, arity(spec), constant),
            })
    return ops


def fixpoint_ops(seed: int, rounds: int) -> list[dict]:
    rng = random.Random(f"perfbench-fixpoint-{seed}")
    ops = []
    for __ in range(rounds):
        order = list(FIXPOINT_ROUND)
        rng.shuffle(order)
        for kind, spec in order:
            if kind == "datalog":
                text = REACH_PROGRAM
            else:
                text = connectivity_sentence(kind, arity(spec))
            ops.append({"kind": kind, "spec": list(spec), "query": text})
    return ops


def request_digest(items) -> str:
    """SHA-256 of a request or op list's canonical JSON."""
    encoded = json.dumps(items, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode()).hexdigest()
