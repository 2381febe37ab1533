"""Versioned, deterministic serialisation of the engine's artifacts.

Everything the persistence layer writes goes through this module, and
everything it reads comes back through it.  The format is canonical
JSON (sorted keys, no whitespace, ASCII) wrapped in an *envelope*::

    {"schema": 1, "kind": "arrangement", "checksum": "…", "payload": …}

* **deterministic** — two structurally equal objects always produce the
  same bytes, regardless of interpreter, ``PYTHONHASHSEED`` or process
  history (``tests/test_store_determinism.py`` guards this with
  subprocesses);
* **exact** — rationals are stored as ``[numerator, denominator]``
  integer pairs, so arbitrarily large :class:`~fractions.Fraction`
  coefficients round-trip bit-identically (JSON integers are unbounded
  in Python);
* **verified** — the envelope carries a SHA-256 checksum over the
  schema version, the kind tag and the canonical payload; any
  truncation, bit flip or version bump is detected at read time and
  surfaces as :class:`CodecError`, never as a wrong answer;
* **versioned** — :data:`SCHEMA_VERSION` is part of both the checksum
  and the on-disk directory layout (see :mod:`repro.store.disk`), so a
  codec change can never misinterpret old entries.

Supported kinds: ``"arrangement"`` (:class:`~repro.arrangement.builder.
Arrangement` — hyperplanes, faces with exact witness points, the
defining relation), ``"relation"`` (:class:`~repro.constraints.
relation.ConstraintRelation` — schema plus the full formula AST, the
form arrangements and lineage records embed their relations in) and
``"lineage"`` (:class:`~repro.store.lineage.LineageRecord` — one
version edge of an updated database).  Formulas are encoded
structurally (tagged nodes), not as source text, so the round-trip
does not depend on parser conventions.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import Any, Sequence

from repro.errors import ReproError
from repro.arrangement.builder import Arrangement
from repro.arrangement.faces import Face
from repro.geometry.hyperplane import Hyperplane
from repro.constraints.atoms import Atom, Op
from repro.constraints.formula import (
    And,
    AtomFormula,
    Exists,
    FALSE,
    FalseFormula,
    Forall,
    Formula,
    Not,
    Or,
    TRUE,
    TrueFormula,
)
from repro.constraints.relation import ConstraintRelation
from repro.constraints.terms import LinearTerm
from repro.store.lineage import LineageRecord

#: Bump on any change to the payload structure below.  Entries written
#: under a different version are rejected (and quarantined by the disk
#: store) instead of being decoded with the wrong reader.  Adding the
#: ``lineage`` kind did not bump it: existing kinds' payloads are
#: untouched, and unknown-kind entries were already rejected by name.
#: Nor did dropping the ``statistics`` kind, or the query answers once
#: filed as ``relation`` entries: nothing reads or writes such entries
#: any more, and they age out under the store's budget.
SCHEMA_VERSION = 1

#: The artifact kinds the codec understands.
KINDS = ("arrangement", "relation", "lineage")


class CodecError(ReproError):
    """A stored entry is malformed, corrupted or version-incompatible."""


# ---------------------------------------------------------------------------
# Scalars
# ---------------------------------------------------------------------------
def _enc_fraction(value: Fraction) -> list[int]:
    return [value.numerator, value.denominator]


def _dec_fraction(value: Any) -> Fraction:
    if (
        not isinstance(value, list)
        or len(value) != 2
        or not all(isinstance(part, int) for part in value)
        or isinstance(value[0], bool)
        or isinstance(value[1], bool)
        or value[1] <= 0
    ):
        raise CodecError(f"malformed rational {value!r}")
    return Fraction(value[0], value[1])


def _enc_vector(vector: Sequence[Fraction]) -> list[list[int]]:
    return [_enc_fraction(part) for part in vector]


def _dec_vector(value: Any) -> tuple[Fraction, ...]:
    if not isinstance(value, list):
        raise CodecError(f"malformed vector {value!r}")
    return tuple(_dec_fraction(part) for part in value)


def _string(value: Any) -> str:
    if not isinstance(value, str):
        raise CodecError(f"expected a string, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# Geometry
# ---------------------------------------------------------------------------
def _enc_hyperplane(plane: Hyperplane) -> dict:
    return {"n": _enc_vector(plane.normal), "o": _enc_fraction(plane.offset)}


def _dec_hyperplane(value: Any) -> Hyperplane:
    if not isinstance(value, dict):
        raise CodecError(f"malformed hyperplane {value!r}")
    normal = _dec_vector(value.get("n"))
    if not normal or all(part == 0 for part in normal):
        raise CodecError("hyperplane needs a non-zero normal")
    # Stored planes are canonical already; the raw constructor keeps the
    # bytes bit-identical on re-encode.
    return Hyperplane(normal, _dec_fraction(value.get("o")))


def _enc_face(face: Face) -> dict:
    return {
        "i": face.index,
        "s": list(face.signs),
        "d": face.dimension,
        "p": _enc_vector(face.sample),
        "in": face.in_relation,
    }


def _dec_face(value: Any) -> Face:
    if not isinstance(value, dict):
        raise CodecError(f"malformed face {value!r}")
    signs = value.get("s")
    if not isinstance(signs, list) or any(
        sign not in (-1, 0, 1) for sign in signs
    ):
        raise CodecError(f"malformed sign vector {signs!r}")
    index = value.get("i")
    dimension = value.get("d")
    if not isinstance(index, int) or not isinstance(dimension, int):
        raise CodecError("face index/dimension must be integers")
    in_relation = value.get("in")
    if not isinstance(in_relation, bool):
        raise CodecError("face in-relation bit must be a boolean")
    return Face(
        index,
        tuple(int(sign) for sign in signs),
        dimension,
        _dec_vector(value.get("p")),
        in_relation,
    )


# ---------------------------------------------------------------------------
# Terms, atoms and formulas (structural, parser-independent)
# ---------------------------------------------------------------------------
def _enc_term(term: LinearTerm) -> dict:
    return {
        "c": [
            [name, _enc_fraction(coeff)]
            for name, coeff in term.coefficients
        ],
        "k": _enc_fraction(term.constant),
    }


def _dec_term(value: Any) -> LinearTerm:
    if not isinstance(value, dict) or not isinstance(value.get("c"), list):
        raise CodecError(f"malformed linear term {value!r}")
    pairs = []
    for entry in value["c"]:
        if not isinstance(entry, list) or len(entry) != 2:
            raise CodecError(f"malformed coefficient {entry!r}")
        pairs.append((_string(entry[0]), _dec_fraction(entry[1])))
    # Coefficients are stored in the term's canonical (sorted, non-zero)
    # order; the raw constructor preserves it exactly.
    return LinearTerm(tuple(pairs), _dec_fraction(value.get("k")))


_OPS = {op.value: op for op in Op}


def _enc_atom(atom: Atom) -> dict:
    return {"t": _enc_term(atom.term), "op": atom.op.value}


def _dec_atom(value: Any) -> Atom:
    if not isinstance(value, dict):
        raise CodecError(f"malformed atom {value!r}")
    op = _OPS.get(value.get("op"))
    if op is None:
        raise CodecError(f"unknown operator {value.get('op')!r}")
    return Atom(_dec_term(value.get("t")), op)


def _enc_formula(formula: Formula) -> dict:
    if isinstance(formula, TrueFormula):
        return {"f": "true"}
    if isinstance(formula, FalseFormula):
        return {"f": "false"}
    if isinstance(formula, AtomFormula):
        return {"f": "atom", "a": _enc_atom(formula.atom)}
    if isinstance(formula, And):
        return {"f": "and", "ops": [_enc_formula(f) for f in formula.operands]}
    if isinstance(formula, Or):
        return {"f": "or", "ops": [_enc_formula(f) for f in formula.operands]}
    if isinstance(formula, Not):
        return {"f": "not", "op": _enc_formula(formula.operand)}
    if isinstance(formula, Exists):
        return {"f": "exists", "v": formula.variable,
                "b": _enc_formula(formula.body)}
    if isinstance(formula, Forall):
        return {"f": "forall", "v": formula.variable,
                "b": _enc_formula(formula.body)}
    raise CodecError(
        f"cannot encode formula node {type(formula).__name__}"
    )


def _dec_formula(value: Any) -> Formula:
    if not isinstance(value, dict):
        raise CodecError(f"malformed formula node {value!r}")
    tag = value.get("f")
    if tag == "true":
        return TRUE
    if tag == "false":
        return FALSE
    if tag == "atom":
        return AtomFormula(_dec_atom(value.get("a")))
    if tag in ("and", "or"):
        operands = value.get("ops")
        if not isinstance(operands, list):
            raise CodecError(f"malformed connective {value!r}")
        parts = tuple(_dec_formula(part) for part in operands)
        return And(parts) if tag == "and" else Or(parts)
    if tag == "not":
        return Not(_dec_formula(value.get("op")))
    if tag in ("exists", "forall"):
        variable = _string(value.get("v"))
        body = _dec_formula(value.get("b"))
        return Exists(variable, body) if tag == "exists" \
            else Forall(variable, body)
    raise CodecError(f"unknown formula tag {tag!r}")


# ---------------------------------------------------------------------------
# Relations and arrangements
# ---------------------------------------------------------------------------
def _enc_relation(relation: ConstraintRelation) -> dict:
    return {
        "vars": list(relation.variables),
        "formula": _enc_formula(relation.formula),
    }


def _dec_relation(value: Any) -> ConstraintRelation:
    if not isinstance(value, dict):
        raise CodecError(f"malformed relation {value!r}")
    variables = value.get("vars")
    if not isinstance(variables, list):
        raise CodecError(f"malformed schema {variables!r}")
    schema = tuple(_string(name) for name in variables)
    formula = _dec_formula(value.get("formula"))
    if len(set(schema)) != len(schema):
        raise CodecError(f"duplicate variables in schema {schema}")
    stray = formula.free_variables() - set(schema)
    if stray:
        raise CodecError(
            f"formula mentions variables outside the schema: {sorted(stray)}"
        )
    # The raw constructor keeps the stored AST bit-identical (``make``
    # would be a no-op here but re-validates quantifier-freeness, which
    # stored relations satisfy by construction).
    return ConstraintRelation(schema, formula)


def _enc_arrangement(arrangement: Arrangement) -> dict:
    return {
        "dim": arrangement.dimension,
        "planes": [_enc_hyperplane(p) for p in arrangement.hyperplanes],
        "faces": [_enc_face(f) for f in arrangement.faces],
        "relation": (
            _enc_relation(arrangement.relation)
            if arrangement.relation is not None
            else None
        ),
    }


def _dec_arrangement(value: Any) -> Arrangement:
    if not isinstance(value, dict):
        raise CodecError(f"malformed arrangement {value!r}")
    dimension = value.get("dim")
    if not isinstance(dimension, int) or dimension < 0:
        raise CodecError(f"malformed ambient dimension {dimension!r}")
    planes_raw = value.get("planes")
    faces_raw = value.get("faces")
    if not isinstance(planes_raw, list) or not isinstance(faces_raw, list):
        raise CodecError("arrangement needs plane and face lists")
    planes = tuple(_dec_hyperplane(p) for p in planes_raw)
    faces = tuple(_dec_face(f) for f in faces_raw)
    for face in faces:
        if len(face.signs) != len(planes) or len(face.sample) != dimension:
            raise CodecError(f"face {face.index} is inconsistent")
    relation_raw = value.get("relation")
    relation = (
        _dec_relation(relation_raw) if relation_raw is not None else None
    )
    return Arrangement(dimension, planes, faces, relation)


def _enc_lineage(record: LineageRecord) -> dict:
    payload: dict = {
        "parent": _string(record.parent),
        "child": _string(record.child),
        "seq": int(record.seq),
        "ops": [
            {
                "action": _string(action),
                "relation": _string(name),
                "formula": _enc_formula(formula),
            }
            for action, name, formula in record.ops
        ],
        "snapshot": None,
    }
    if record.snapshot is not None:
        payload["snapshot"] = [
            [_string(name), _enc_relation(relation)]
            for name, relation in record.snapshot
        ]
    return payload


def _dec_lineage(value: Any) -> LineageRecord:
    seq = value["seq"]
    if not isinstance(seq, int) or seq < 0:
        raise CodecError(f"lineage seq must be a non-negative int: {seq!r}")
    ops = tuple(
        (
            _string(op["action"]),
            _string(op["relation"]),
            _dec_formula(op["formula"]),
        )
        for op in value["ops"]
    )
    snapshot = value.get("snapshot")
    decoded_snapshot = None
    if snapshot is not None:
        decoded_snapshot = tuple(
            (_string(name), _dec_relation(relation))
            for name, relation in snapshot
        )
    return LineageRecord(
        parent=_string(value["parent"]),
        child=_string(value["child"]),
        seq=seq,
        ops=ops,
        snapshot=decoded_snapshot,
    )


_ENCODERS = {
    "arrangement": (_enc_arrangement, Arrangement),
    "relation": (_enc_relation, ConstraintRelation),
    "lineage": (_enc_lineage, LineageRecord),
}
_DECODERS = {
    "arrangement": _dec_arrangement,
    "relation": _dec_relation,
    "lineage": _dec_lineage,
}


def encode(kind: str, obj: object) -> dict:
    """The JSON-ready payload of one artifact."""
    try:
        encoder, expected = _ENCODERS[kind]
    except KeyError:
        raise CodecError(f"unknown artifact kind {kind!r}") from None
    if not isinstance(obj, expected):
        raise CodecError(
            f"kind {kind!r} expects {expected.__name__}, "
            f"got {type(obj).__name__}"
        )
    return encoder(obj)


def decode(kind: str, payload: Any) -> object:
    """The artifact back from its payload; raises :class:`CodecError`."""
    try:
        decoder = _DECODERS[kind]
    except KeyError:
        raise CodecError(f"unknown artifact kind {kind!r}") from None
    try:
        return decoder(payload)
    except CodecError:
        raise
    except (TypeError, ValueError, KeyError, AttributeError) as error:
        raise CodecError(f"malformed {kind} payload: {error}") from error


# ---------------------------------------------------------------------------
# Envelope: canonical bytes + checksum
# ---------------------------------------------------------------------------
def canonical_json(value: Any) -> bytes:
    """Canonical JSON bytes: sorted keys, no whitespace, ASCII only."""
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    ).encode("ascii")


def checksum(schema: int, kind: str, payload: Any) -> str:
    """The envelope checksum: SHA-256 over version, kind and payload."""
    return _checksum_bytes(schema, kind, canonical_json(payload))


def _checksum_bytes(schema: int, kind: str, payload_bytes: bytes) -> str:
    digest = hashlib.sha256()
    digest.update(f"{schema}:{kind}:".encode("ascii"))
    digest.update(payload_bytes)
    return digest.hexdigest()


def dumps(kind: str, obj: object) -> bytes:
    """Serialise one artifact to its canonical envelope bytes.

    The payload is encoded once and spliced into the envelope, whose
    keys are written in sorted order (``checksum``, ``kind``,
    ``payload``, ``schema``): the same bytes as :func:`canonical_json`
    over the whole envelope.
    """
    payload_bytes = canonical_json(encode(kind, obj))
    return b"".join((
        b'{"checksum":"',
        _checksum_bytes(SCHEMA_VERSION, kind, payload_bytes).encode("ascii"),
        b'","kind":',
        canonical_json(kind),
        b',"payload":',
        payload_bytes,
        b',"schema":',
        canonical_json(SCHEMA_VERSION),
        b"}",
    ))


def loads(kind: str, data: bytes) -> object:
    """Deserialise envelope bytes, verifying version, kind and checksum."""
    try:
        envelope = json.loads(data.decode("ascii"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise CodecError(f"unreadable envelope: {error}") from error
    if not isinstance(envelope, dict):
        raise CodecError("envelope must be a JSON object")
    schema = envelope.get("schema")
    if schema != SCHEMA_VERSION:
        raise CodecError(
            f"schema version {schema!r} != supported {SCHEMA_VERSION}"
        )
    stored_kind = envelope.get("kind")
    if stored_kind != kind:
        raise CodecError(f"expected kind {kind!r}, found {stored_kind!r}")
    payload = envelope.get("payload")
    expected = checksum(SCHEMA_VERSION, kind, payload)
    if envelope.get("checksum") != expected:
        raise CodecError("payload checksum mismatch")
    return decode(kind, payload)


# ---------------------------------------------------------------------------
# Content-addressed keys
# ---------------------------------------------------------------------------
def digest_key(*parts: str) -> str:
    """A stable SHA-256 key over string parts (schema-version-stamped)."""
    digest = hashlib.sha256()
    digest.update(f"v{SCHEMA_VERSION}".encode("ascii"))
    for part in parts:
        digest.update(b"\x00")
        digest.update(part.encode("utf-8"))
    return digest.hexdigest()


def arrangement_key(
    hyperplanes: Sequence[Hyperplane],
    dimension: int,
    relation: ConstraintRelation | None = None,
) -> str:
    """The disk key of A(S): planes, ambient dimension, relation print.

    Hyperplanes are canonical (primitive integers, positive leading
    coefficient) and arrive in the builder's sorted order, so the key is
    a pure function of the arrangement's mathematical content.
    """
    parts = ["arrangement", str(dimension)]
    parts.extend(
        ",".join(str(c) for c in plane.normal) + "|" + str(plane.offset)
        for plane in hyperplanes
    )
    parts.append(relation.fingerprint() if relation is not None else "-")
    return digest_key(*parts)


def lineage_key(child_fingerprint: str) -> str:
    """The disk key of a version's lineage record.

    Keyed by the *child* database fingerprint: every version answers
    "where did I come from" with one lookup, and replay walks parent
    fingerprints back to the nearest snapshot.
    """
    return digest_key("lineage", child_fingerprint)
