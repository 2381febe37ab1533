"""The oracle every answer is checked against.

The oracle configuration is the program's own reference path:
``executor="interpreted"``, ``optimizer="off"``, ``lp_mode="exact"``, a
fresh :class:`~repro.engine.EngineCache` of its own and no disk store.
Relations are compared semantically with
:meth:`ConstraintRelation.equivalent` (an optimizer-on plan may print a
different but equivalent formula), sentences by truth value and datalog
outcomes exactly (stages, convergence and formula text).

Oracle answers depend only on the source tree, this file and the
inputs, so they can be kept in a JSON file named after a digest of all
three (:func:`oracle_digest`); the in-process workloads, whose inputs
come from a small pool, reuse it across runs of one checkout.  The file
only saves checking time: the program's answers are compared afresh on
every run.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib

from inputs import REACH_PROGRAM, make_database, spec_key

ORACLE_KNOBS = {
    "executor": "interpreted",
    "optimizer": "off",
    "lp_mode": "exact",
    "jobs": 1,
}


def oracle_digest(root: pathlib.Path) -> str:
    """SHA-256 over everything an oracle answer depends on.

    That is every Python file of ``src/`` plus this file (the oracle
    configuration and answer rendering) and ``inputs.py`` (databases
    and programs), each by path and content.
    """
    digest = hashlib.sha256()
    root = root.resolve()
    here = pathlib.Path(__file__).resolve().parent
    files = sorted((root / "src").rglob("*.py"))
    files += [here / "oracle.py", here / "inputs.py"]
    for path in files:
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def relation_value(relation) -> dict:
    return {
        "variables": list(relation.variables),
        "formula": str(relation.formula),
        "empty": relation.is_empty(),
    }


def datalog_value(outcome) -> dict:
    return {
        "stages": outcome.stages,
        "converged": outcome.converged,
        "relations": {
            name: [list(outcome[name].variables), str(outcome[name].formula)]
            for name in sorted(outcome.relations)
        },
    }


def to_relation(value: dict):
    from repro.constraints.parser import parse_formula
    from repro.constraints.relation import ConstraintRelation

    return ConstraintRelation.make(
        tuple(value["variables"]), parse_formula(value["formula"])
    )


def same_relation(answer: dict, expected: dict) -> bool:
    """Whether a rendered answer defines the oracle's relation."""
    if list(answer.get("variables", ())) != list(expected["variables"]):
        return False
    if bool(answer.get("empty")) != bool(expected["empty"]):
        return False
    return to_relation(answer).equivalent(to_relation(expected))


class Oracle:
    """Reference answers, computed on demand and optionally persisted."""

    def __init__(self, cache_path: "str | None" = None) -> None:
        from repro.config import EngineConfig
        from repro.engine import EngineCache

        self._config = EngineConfig(**ORACLE_KNOBS)
        self._cache = EngineCache()
        self._engines: dict = {}
        self._path = cache_path
        self.answers: dict = {}
        self.computed = 0
        if cache_path and os.path.exists(cache_path):
            with open(cache_path, encoding="utf-8") as handle:
                self.answers = json.load(handle)

    def _engine(self, key: str, database):
        from repro.engine import QueryEngine

        engine = self._engines.get(key)
        if engine is None:
            engine = QueryEngine(
                database, cache=self._cache, config=self._config
            )
            self._engines[key] = engine
        return engine

    def _answer(self, key: str, compute):
        if key not in self.answers:
            from repro.geometry import fastlp

            with fastlp.lp_mode("exact"):
                self.answers[key] = compute()
            self.computed += 1
        return self.answers[key]

    def query(self, name: str, database, query: str):
        """A query's answer on a database: relation dict, or truth bool."""

        def compute():
            relation = self._engine(name, database).evaluate(query)
            if relation.arity == 0:
                return not relation.is_empty()
            return relation_value(relation)

        return self._answer(f"{name}|{query}", compute)

    def spec_query(self, spec, query: str):
        key = spec_key(tuple(spec))
        return self.query(key, make_database(tuple(spec)), query)

    def datalog(self, spec, max_stages: int) -> dict:
        def compute():
            from repro.datalog import evaluate_program
            from repro.datalog.parser import parse_program

            outcome = evaluate_program(
                parse_program(REACH_PROGRAM),
                make_database(tuple(spec)),
                max_stages=max_stages,
                executor="interpreted",
                optimizer="off",
            )
            return datalog_value(outcome)

        program = hashlib.sha256(REACH_PROGRAM.encode()).hexdigest()[:16]
        return self._answer(
            f"datalog|{program}|{spec_key(tuple(spec))}|{max_stages}",
            compute,
        )

    def save(self) -> None:
        """Persist the answers (atomically) when a path was given."""
        if not self._path or not self.computed:
            return
        temp = f"{self._path}.{os.getpid()}.tmp"
        with open(temp, "w", encoding="utf-8") as handle:
            json.dump(self.answers, handle, sort_keys=True)
        os.replace(temp, self._path)


def with_segment(database, segment: str):
    """The database after inserting ``segment`` as one more disjunct.

    The oracle's model of ``POST /v1/update``: the same point set as the
    server's incrementally maintained version, built from scratch.
    """
    from repro.constraints.database import ConstraintDatabase
    from repro.constraints.parser import parse_formula

    relation = database.relation("S")
    formula = parse_formula(f"({relation.formula}) | ({segment})")
    return ConstraintDatabase.from_formula(formula, relation.arity)


def answer_jobs(jobs) -> dict:
    """Oracle answers of ``(name, spec, segment, query)`` jobs.

    Keys are ``"name|query"``; ``segment`` (or ``None``) is a written
    disjunct, see :func:`with_segment`.
    """
    oracle = Oracle()
    databases: dict = {}
    for name, spec, segment, query in jobs:
        database = databases.get(name)
        if database is None:
            database = make_database(tuple(spec))
            if segment is not None:
                database = with_segment(database, segment)
            databases[name] = database
        oracle.query(name, database, query)
    return oracle.answers


def shard_jobs(jobs, workers: int) -> list[list]:
    """Distinct jobs grouped by database, shared out over ``workers``.

    Each database's extension is then built in one shard only.
    """
    groups: dict = {}
    for job in dict.fromkeys(tuple(job) for job in jobs):
        groups.setdefault(job[0], []).append(job)
    shards: list[list] = [[] for __ in range(workers)]
    for group in sorted(groups.values(), key=len, reverse=True):
        min(shards, key=len).extend(group)
    return [shard for shard in shards if shard]


def main(argv=None) -> int:
    """Answer one shard: ``oracle.py --jobs IN.json --out OUT.json``."""
    import argparse

    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("--jobs", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(args.jobs, encoding="utf-8") as handle:
        jobs = json.load(handle)
    answers = answer_jobs(jobs)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(answers, handle)
    return 0


def check(answer, expected) -> bool:
    """Compare one program answer with its oracle value."""
    if isinstance(expected, bool):
        return answer is expected
    if "stages" in expected:
        return answer == expected
    return same_relation(answer, expected)


if __name__ == "__main__":
    import sys

    sys.exit(main())
