"""Hash-once value types stay correct across processes and hash seeds.

``LinearTerm``, ``Atom``, ``LinearConstraint`` and ``Hyperplane`` cache
their hash on first use.  ``str`` and enum hashes depend on
``PYTHONHASHSEED``, so a cached hash must never travel in a pickle: an
unpickled ``LinearConstraint`` feasibility-memo key carrying the
sender's hash would silently miss every dict lookup in a receiver that
runs under another seed.
"""

import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from repro.constraints.atoms import Atom, Op
from repro.constraints.terms import LinearTerm
from repro.geometry.fourier_motzkin import LinearConstraint
from repro.geometry.hyperplane import Hyperplane

SRC = str(Path(__file__).resolve().parents[1] / "src")

# Runs under one hash seed: builds the objects, feeds a constraint
# system through the LP feasibility memo, hashes everything (so the
# caches are filled) and writes the pickle plus the seed's hashes.
PRODUCER = r"""
import pickle, sys
from repro.constraints.parser import parse_formula
from repro.constraints.normal_forms import to_dnf
from repro.geometry.hyperplane import Hyperplane
from repro.geometry.simplex import (
    clear_feasibility_cache, feasible, snapshot_feasibility_keys,
)

atom = to_dnf(parse_formula("2*x - y < 3"))[0][0]
system = [atom.to_linear_constraint(("x", "y"))]
clear_feasibility_cache()
assert feasible(system, dimension=2)
(key,) = snapshot_feasibility_keys()
plane = Hyperplane.make((2, -1), 3)
payload = {"key": key, "atom": atom, "plane": plane}
hashes = {name: hash(value) for name, value in payload.items()}
assert all("_hash" in row.__dict__ for row in key)
assert "_hash" in atom.__dict__ and "_hash" in plane.__dict__
sys.stdout.buffer.write(pickle.dumps((payload, hashes)))
"""

# Runs under another hash seed: unpickles, builds fresh equal objects
# and checks hashes and dict lookups against them.
CONSUMER = r"""
import pickle, sys
from repro.constraints.parser import parse_formula
from repro.constraints.normal_forms import to_dnf
from repro.geometry.hyperplane import Hyperplane

payload, sent = pickle.loads(sys.stdin.buffer.read())
atom = to_dnf(parse_formula("2*x - y < 3"))[0][0]
fresh = {
    "key": (atom.to_linear_constraint(("x", "y")),),
    "atom": atom,
    "plane": Hyperplane.make((2, -1), 3),
}
for name, value in fresh.items():
    received = payload[name]
    assert received == value, name
    assert hash(received) == hash(value), name
    assert {received: name}.get(value) == name, name
    assert {value: name}.get(received) == name, name
# The seed really changed the hashes, so the checks above were live.
assert hash(atom) != sent["atom"], "hash seeds did not differ"
print("ok")
"""


def _run(code: str, seed: str, stdin: bytes = b"") -> bytes:
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC)
    completed = subprocess.run(
        [sys.executable, "-c", code],
        input=stdin,
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr.decode()
    return completed.stdout


def test_cached_hashes_do_not_travel_across_hash_seeds():
    pickled = _run(PRODUCER, "1")
    assert _run(CONSUMER, "1234", stdin=pickled).strip() == b"ok"


def test_hash_cache_is_invisible_to_equality_repr_and_pickles():
    term = LinearTerm.make({"x": 2, "y": -1}, 3)
    atom = Atom(term, Op.LT)
    constraint = LinearConstraint.make((1, 2), "<=", Fraction(1, 2))
    plane = Hyperplane.make((2, 4), 6)
    for value in (term, atom, constraint, plane):
        text = repr(value)
        hash(value)
        assert "_hash" in value.__dict__
        assert repr(value) == text
        state = pickle.loads(pickle.dumps(value)).__dict__
        assert "_hash" not in state
    # A hashed object equals an unhashed equal one, and vice versa.
    assert atom == Atom(LinearTerm.make({"x": 2, "y": -1}, 3), Op.LT)
    assert LinearConstraint.make((1, 2), "<=", Fraction(1, 2)) == constraint
    # The cached value is the plain tuple hash of the fields.
    assert hash(term) == hash((term.coefficients, term.constant))
    assert hash(plane) == hash((plane.normal, plane.offset))
