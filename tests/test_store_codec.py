"""Property-based round-trips for the persistence codec.

:mod:`repro.store.codec` promises *bit-identical* round-trips: for any
relation or arrangement, ``loads(kind, dumps(kind, x))`` is structurally
equal to ``x`` (same fingerprint, same re-encoded bytes).  Hypothesis
generates relations over formulas with large-denominator ``Fraction``
coefficients and random hyperplane arrangements; the arrangement tests
run under both ``REPRO_LP_MODE`` tiers, since disk entries written in
one mode must be trusted in the other.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrangement.builder import build_arrangement
from repro.constraints.atoms import Atom, Op
from repro.constraints.formula import FALSE, And, AtomFormula, Not, Or
from repro.constraints.io import parse_formula
from repro.constraints.relation import ConstraintRelation
from repro.constraints.terms import LinearTerm
from repro.geometry import fastlp
from repro.geometry.hyperplane import Hyperplane
from repro.store import codec

F = Fraction

VARS = ("x", "y")

fractions = st.builds(
    F,
    st.integers(min_value=-(10**40), max_value=10**40),
    st.integers(min_value=1, max_value=10**40),
)

small_fractions = st.builds(
    F,
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=1, max_value=4),
)


def _atom(coeffs, constant, op) -> AtomFormula:
    return AtomFormula(
        Atom(LinearTerm.make(dict(zip(VARS, coeffs)), constant), op)
    )


atoms = st.builds(
    _atom,
    st.tuples(fractions, fractions),
    fractions,
    st.sampled_from(list(Op)),
)

formulas = st.recursive(
    atoms,
    lambda children: st.one_of(
        st.builds(lambda a, b: And((a, b)), children, children),
        st.builds(lambda a, b: Or((a, b)), children, children),
        st.builds(Not, children),
    ),
    max_leaves=8,
)

relations = st.builds(
    lambda formula: ConstraintRelation.make(VARS, formula), formulas
)


def _nonzero_plane(coeffs, offset) -> Hyperplane | None:
    if all(c == 0 for c in coeffs):
        return None
    return Hyperplane.make(list(coeffs), offset)


planes = st.builds(
    _nonzero_plane,
    st.tuples(small_fractions, small_fractions),
    small_fractions,
).filter(lambda plane: plane is not None)


@settings(max_examples=60, deadline=None)
@given(relations)
def test_relation_roundtrip_is_bit_identical(relation):
    data = codec.dumps("relation", relation)
    back = codec.loads("relation", data)
    assert isinstance(back, ConstraintRelation)
    assert back.variables == relation.variables
    assert back.formula == relation.formula
    assert back.fingerprint() == relation.fingerprint()
    assert codec.dumps("relation", back) == data


@settings(max_examples=60, deadline=None)
@given(relations)
def test_relation_encoding_is_deterministic(relation):
    # Same object, same bytes — and a structurally equal twin built from
    # the same parts serialises identically too.
    twin = ConstraintRelation.make(relation.variables, relation.formula)
    assert codec.dumps("relation", relation) == codec.dumps(
        "relation", twin
    )


@settings(max_examples=60, deadline=None)
@given(relations)
def test_spliced_envelope_matches_canonical_json(relation):
    # dumps encodes the payload once and splices it into the envelope;
    # the bytes must equal canonical JSON over the whole envelope dict.
    payload = codec.encode("relation", relation)
    envelope = {
        "schema": codec.SCHEMA_VERSION,
        "kind": "relation",
        "checksum": codec.checksum(codec.SCHEMA_VERSION, "relation", payload),
        "payload": payload,
    }
    assert codec.dumps("relation", relation) == codec.canonical_json(envelope)


@settings(max_examples=25, deadline=None)
@given(st.lists(planes, min_size=1, max_size=3, unique=True))
@pytest.mark.parametrize("mode", fastlp.LP_MODES)
def test_arrangement_roundtrip(mode, plane_list):
    with fastlp.lp_mode(mode):
        arrangement = build_arrangement(
            hyperplanes=plane_list, dimension=2
        )
    data = codec.dumps("arrangement", arrangement)
    back = codec.loads("arrangement", data)
    assert back.dimension == arrangement.dimension
    assert back.hyperplanes == arrangement.hyperplanes
    assert back.faces == arrangement.faces
    assert codec.dumps("arrangement", back) == data


@pytest.mark.parametrize("mode", fastlp.LP_MODES)
def test_arrangement_with_relation_roundtrip(mode):
    relation = ConstraintRelation.make(
        VARS, parse_formula("x >= 0 & y >= 0 & x + y <= 1")
    )
    with fastlp.lp_mode(mode):
        arrangement = build_arrangement(relation)
    back = codec.loads(
        "arrangement", codec.dumps("arrangement", arrangement)
    )
    assert back.relation is not None
    assert back.relation.fingerprint() == relation.fingerprint()
    assert back.faces == arrangement.faces
    assert [f.in_relation for f in back.faces] == [
        f.in_relation for f in arrangement.faces
    ]


def test_huge_denominators_survive():
    huge = F(10**60 + 7, 10**60 + 9)
    relation = ConstraintRelation.make(
        ("x",),
        AtomFormula(
            Atom(LinearTerm.make({"x": huge}, -huge / 3), Op.LE)
        ),
    )
    back = codec.loads("relation", codec.dumps("relation", relation))
    (atom,) = [a for a in back.formula.atoms()]
    assert dict(atom.term.coefficients)["x"] == huge
    assert atom.term.constant == -huge / 3


def test_quantifiers_and_constants_roundtrip():
    # ConstraintRelation.make eliminates quantifiers, so stored formulas
    # are always quantifier-free — but the codec still covers the full
    # AST so a future caller can persist un-normalised formulas.  Check
    # the node encoders directly.
    quantified = parse_formula("exists x. (x <= y & !(forall z. z < x))")
    encoded = codec._enc_formula(quantified)
    assert codec._dec_formula(encoded) == quantified
    empty = ConstraintRelation.make(("x",), FALSE)
    assert codec.loads(
        "relation", codec.dumps("relation", empty)
    ).formula == FALSE


def test_envelope_rejects_foreign_kind_and_junk():
    relation = ConstraintRelation.universe(("x",))
    data = codec.dumps("relation", relation)
    with pytest.raises(codec.CodecError):
        codec.loads("arrangement", data)
    with pytest.raises(codec.CodecError):
        codec.loads("relation", b"not json at all")
    with pytest.raises(codec.CodecError):
        codec.loads("relation", b"[1,2,3]")
    with pytest.raises(codec.CodecError):
        codec.encode("no-such-kind", relation)


_GOOD_ATOM = {"t": {"c": [["x", [1, 1]]], "k": [0, 1]}, "op": "<="}
_GOOD_FACE = {"i": 0, "s": [0], "d": 1, "p": [[0, 1], [0, 1]], "in": False}
_GOOD_PLANE = {"n": [[1, 1], [0, 1]], "o": [0, 1]}

_BAD_PAYLOADS = [
    # rationals: wrong shape, zero/negative denominator, bool smuggling
    ("relation", {"vars": ["x"], "formula": {"f": "atom", "a": {
        "t": {"c": [["x", "1/2"]], "k": [0, 1]}, "op": "<="}}}),
    ("relation", {"vars": ["x"], "formula": {"f": "atom", "a": {
        "t": {"c": [["x", [1, 0]]], "k": [0, 1]}, "op": "<="}}}),
    ("relation", {"vars": ["x"], "formula": {"f": "atom", "a": {
        "t": {"c": [["x", [True, 1]]], "k": [0, 1]}, "op": "<="}}}),
    # terms and atoms
    ("relation", {"vars": ["x"], "formula": {"f": "atom", "a": {
        "t": {"c": "oops", "k": [0, 1]}, "op": "<="}}}),
    ("relation", {"vars": ["x"], "formula": {"f": "atom", "a": {
        "t": {"c": [["x"]], "k": [0, 1]}, "op": "<="}}}),
    ("relation", {"vars": ["x"], "formula": {"f": "atom", "a": {
        "t": {"c": [[7, [1, 1]]], "k": [0, 1]}, "op": "<="}}}),
    ("relation", {"vars": ["x"], "formula": {"f": "atom", "a": {
        "t": {"c": [["x", [1, 1]]], "k": [0, 1]}, "op": "!="}}}),
    ("relation", {"vars": ["x"], "formula": {"f": "atom", "a": "nope"}}),
    # formulas: unknown tags, malformed connectives
    ("relation", {"vars": ["x"], "formula": "nope"}),
    ("relation", {"vars": ["x"], "formula": {"f": "xor"}}),
    ("relation", {"vars": ["x"], "formula": {"f": "and", "ops": 3}}),
    # relations: schema violations
    ("relation", "nope"),
    ("relation", {"vars": "xy", "formula": {"f": "true"}}),
    ("relation", {"vars": ["x", "x"], "formula": {"f": "true"}}),
    ("relation", {"vars": [], "formula": {"f": "atom", "a": _GOOD_ATOM}}),
    # hyperplanes and faces
    ("arrangement", {"dim": 2, "planes": ["nope"], "faces": [],
                     "relation": None}),
    ("arrangement", {"dim": 2, "faces": [],
                     "planes": [{"n": [[0, 1], [0, 1]], "o": [0, 1]}],
                     "relation": None}),
    ("arrangement", {"dim": 1, "planes": [_GOOD_PLANE], "faces": ["no"],
                     "relation": None}),
    ("arrangement", {"dim": 1, "planes": [_GOOD_PLANE],
                     "faces": [dict(_GOOD_FACE, s=[7])],
                     "relation": None}),
    ("arrangement", {"dim": 1, "planes": [_GOOD_PLANE],
                     "faces": [dict(_GOOD_FACE, i="zero")],
                     "relation": None}),
    ("arrangement", {"dim": 1, "planes": [_GOOD_PLANE],
                     "faces": [dict(_GOOD_FACE, **{"in": 1})],
                     "relation": None}),
    # a face whose sign vector / sample disagree with the plane list
    ("arrangement", {"dim": 1, "planes": [_GOOD_PLANE],
                     "faces": [dict(_GOOD_FACE, s=[0, 0])],
                     "relation": None}),
    ("arrangement", {"dim": -1, "planes": [], "faces": [],
                     "relation": None}),
    ("arrangement", "nope"),
    # non-list vector / face list, and a raw TypeError deep in Fraction
    ("arrangement", {"dim": 1, "planes": [_GOOD_PLANE],
                     "faces": [dict(_GOOD_FACE, p="nope")],
                     "relation": None}),
    ("arrangement", {"dim": 1, "planes": [_GOOD_PLANE], "faces": "nope",
                     "relation": None}),
    ("relation", {"vars": ["x"], "formula": {"f": "atom", "a": {
        "t": {"c": [["x", [1, [2]]]], "k": [0, 1]}, "op": "<="}}}),
]


@pytest.mark.parametrize("kind, payload", _BAD_PAYLOADS)
def test_decoders_reject_malformed_payloads(kind, payload):
    """Valid-checksum envelopes with broken payloads still raise.

    The checksum guards against *accidental* damage; the structural
    validation guards against everything else (foreign writers, partial
    schema migrations), so both layers are exercised separately.
    """
    with pytest.raises(codec.CodecError):
        codec.decode(kind, payload)
    envelope = {
        "schema": codec.SCHEMA_VERSION,
        "kind": kind,
        "checksum": codec.checksum(codec.SCHEMA_VERSION, kind, payload),
        "payload": payload,
    }
    with pytest.raises(codec.CodecError):
        codec.loads(kind, codec.canonical_json(envelope))


def test_encode_rejects_wrong_artifact_type():
    with pytest.raises(codec.CodecError):
        codec.encode("relation", "not a relation")
    with pytest.raises(codec.CodecError):
        codec.encode("arrangement", triangle_relation())
    with pytest.raises(codec.CodecError):
        codec.decode("no-such-kind", {})


def triangle_relation() -> ConstraintRelation:
    return ConstraintRelation.make(
        VARS, parse_formula("x >= 0 & y >= 0 & x + y <= 1")
    )


def test_keys_are_content_addressed():
    r1 = ConstraintRelation.make(VARS, parse_formula("x + y <= 1"))
    r2 = ConstraintRelation.make(VARS, parse_formula("x + y <= 2"))
    a1 = build_arrangement(r1)
    a2 = build_arrangement(r2)
    k1 = codec.arrangement_key(a1.hyperplanes, 2, r1)
    k1_again = codec.arrangement_key(a1.hyperplanes, 2, r1)
    k2 = codec.arrangement_key(a2.hyperplanes, 2, r2)
    assert k1 == k1_again
    assert k1 != k2
    assert codec.lineage_key("fp1") != codec.lineage_key("fp2")
