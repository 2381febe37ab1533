"""Disk keys must be identical across interpreter runs.

Content-addressed persistence only works if two processes — started
with different ``PYTHONHASHSEED`` values, so any hidden dependence on
set/dict iteration order would change the output — derive the same
fingerprints and store keys for the same mathematical content.  This
suite runs a probe script in fresh interpreters under contrasting hash
seeds and compares every derived identifier byte for byte.
"""

import os
import pathlib
import subprocess
import sys

PROBE = r"""
import json
from repro.constraints.io import parse_formula
from repro.constraints.relation import ConstraintRelation
from repro.constraints.database import ConstraintDatabase
from repro.engine import database_fingerprint, relation_fingerprint
from repro.arrangement.builder import build_arrangement
from repro.store import codec

triangle = ConstraintRelation.make(
    ("x", "y"), parse_formula("x >= 0 & y >= 0 & x + y <= 1")
)
wedge = ConstraintRelation.make(
    ("x", "y"), parse_formula("x >= 0 & y <= x & y >= -1")
)
db = ConstraintDatabase.make({"S": triangle, "T": wedge})
arrangement = build_arrangement(triangle)

print(json.dumps({
    "db_fingerprint": database_fingerprint(db),
    "relation_fingerprints": [
        relation_fingerprint(triangle), relation_fingerprint(wedge),
    ],
    "arrangement_key": codec.arrangement_key(
        arrangement.hyperplanes, 2, triangle
    ),
    "lineage_key": codec.lineage_key(database_fingerprint(db)),
    "envelope_sha": codec.checksum(
        codec.SCHEMA_VERSION,
        "arrangement",
        codec.encode("arrangement", arrangement),
    ),
    "formula": str(triangle.formula),
}, sort_keys=True))
"""


def run_probe(hashseed: str) -> str:
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    env["PYTHONPATH"] = str(src)
    env.pop("REPRO_CACHE_DIR", None)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return proc.stdout


def test_fingerprints_and_keys_survive_hash_randomisation():
    outputs = {seed: run_probe(seed) for seed in ("0", "42", "31337")}
    assert len(set(outputs.values())) == 1, outputs


def test_fingerprint_is_cached_on_the_relation():
    from repro.constraints.io import parse_formula
    from repro.constraints.relation import ConstraintRelation
    from repro.engine import relation_fingerprint

    relation = ConstraintRelation.make(("x",), parse_formula("x <= 1"))
    first = relation.fingerprint()
    assert relation._cache["fingerprint"] == first
    assert relation_fingerprint(relation) == first
    twin = ConstraintRelation.make(("x",), parse_formula("x <= 1"))
    assert twin.fingerprint() == first
