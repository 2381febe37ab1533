"""The paper's query languages: RegFO and its recursive extensions.

* :mod:`repro.logic.ast` — the two-sorted formula AST: element variables
  over ℝ, region variables over the finite region sort, set variables for
  fixed-point induction, and the operators LFP/IFP/PFP (Definition 5.1),
  TC/DTC (Definition 7.2) and rBIT.
* :mod:`repro.logic.parser` — a readable text syntax (lower-case
  identifiers are element variables, upper-case are region/set variables,
  matching the paper's notational convention).
* :mod:`repro.logic.evaluator` — query evaluation on region extensions by
  structural induction, following the proofs of Theorems 4.3 and 6.1;
  answers are quantifier-free constraint relations (closure).
* :mod:`repro.logic.fixpoint` / :mod:`repro.logic.transitive_closure` —
  the finite induction engines over the region sort.
* :mod:`repro.logic.rbit` — the rBIT operator.
* :mod:`repro.logic.properties` — the small coordinate property
  (Definition 6.2) and related checks.
"""

from repro.logic.ast import (
    Adj,
    DTC,
    ExistsElem,
    ExistsRegion,
    FixKind,
    Fixpoint,
    ForallElem,
    ForallRegion,
    InRegion,
    LinearAtom,
    RAnd,
    RBit,
    RFalse,
    RNot,
    ROr,
    RTrue,
    RegionEq,
    RegFormula,
    RelationAtom,
    SetAtom,
    SubsetAtom,
    TC,
)
from repro.logic.evaluator import Evaluator
from repro.logic.parser import parse_query
from repro.logic.properties import (
    coordinate_bound,
    has_small_coordinate_property,
)
from repro.logic.transform import miniscope, optimize, to_nnf as reg_to_nnf

__all__ = [
    "Adj",
    "DTC",
    "ExistsElem",
    "ExistsRegion",
    "FixKind",
    "Fixpoint",
    "ForallElem",
    "ForallRegion",
    "InRegion",
    "LinearAtom",
    "RAnd",
    "RBit",
    "RFalse",
    "RNot",
    "ROr",
    "RTrue",
    "RegionEq",
    "RegFormula",
    "RelationAtom",
    "SetAtom",
    "SubsetAtom",
    "TC",
    "Evaluator",
    "parse_query",
    "coordinate_bound",
    "has_small_coordinate_property",
    "miniscope",
    "optimize",
    "reg_to_nnf",
]
