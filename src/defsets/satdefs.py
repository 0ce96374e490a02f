"""Defining-set decision procedures and minimizers over satisfying assignments.

The three questions, for the family of all satisfying (total) assignments of a
CNF and a distinguished member S:

  Q1  is a given restriction D of S a defining set (S the unique extension)?
  Q2  what is the smallest defining set of (family, S)?
  Q3  what is the smallest defining set over all choices of S?

All search is exhaustive with a configurable variable cap; this is desk-scale
machinery, not a SAT solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .cnf import (CnfFormula, ContractViolation, Eval, PartialAssignment,
                  enumerate_proper, evaluate, is_proper_partial)
from .core import (DEFAULT_CAP, CapExceeded, assignments, check_cap,
                   family_first_hitting_set, family_has_defining_within,
                   pair_witness)


@dataclass(frozen=True)
class DefsetSatInstance:
    """A formula with a total satisfying anchor assignment and optional budget."""

    formula: CnfFormula
    anchor: PartialAssignment
    budget: Optional[int] = None

    def __post_init__(self):
        if set(self.anchor.support) != set(self.formula.variables):
            raise ContractViolation("anchor is not a total assignment")
        if evaluate(self.formula, self.anchor) is not Eval.SATISFIED:
            raise ContractViolation("anchor does not satisfy the formula")
        if self.budget is not None and self.budget < 0:
            raise ContractViolation("budget must be nonnegative")


@dataclass(frozen=True)
class QuantifiedSplit:
    """A formula with its variables split into an outer x-block and inner
    y-block, optionally carrying a proper partial anchor over the y-block."""

    formula: CnfFormula
    x_vars: Tuple[int, ...]
    y_vars: Tuple[int, ...]
    anchor_t: Optional[PartialAssignment] = None

    def __post_init__(self):
        allvars = set(self.formula.variables)
        if set(self.x_vars) | set(self.y_vars) != allvars or \
                set(self.x_vars) & set(self.y_vars):
            raise ContractViolation("x/y blocks must partition the variables")
        if self.anchor_t is not None:
            if set(self.anchor_t.support) != set(self.y_vars):
                raise ContractViolation("anchor support must equal the y-block")
            if not is_proper_partial(self.formula, self.anchor_t):
                raise ContractViolation("anchor is not a proper partial assignment")


def _members(formula: CnfFormula):
    """The family callback: at most two models agreeing with `fixed`."""
    return lambda fixed: [m.as_dict() for m in enumerate_proper(
        formula, PartialAssignment.of(fixed), limit=2)]


def is_defining_set(instance: DefsetSatInstance, candidate: PartialAssignment,
                    cap: int = DEFAULT_CAP) -> bool:
    """True iff the anchor is the unique satisfying extension of candidate."""
    check_cap(instance.formula.num_vars, cap, "variables")
    if not instance.anchor.extends(candidate):
        raise ContractViolation("candidate is not a restriction of the anchor")
    return len(enumerate_proper(instance.formula, candidate, limit=2)) == 1


def min_defining_set(instance: DefsetSatInstance, cap: int = DEFAULT_CAP
                     ) -> Tuple[int, PartialAssignment]:
    """Smallest defining set of (family, anchor): size and the canonical
    (lexicographically smallest by sorted index vector) witness.

    Increasing-cardinality subset sweep that queries only candidates hitting
    every counterexample found so far."""
    check_cap(instance.formula.num_vars, cap, "variables")
    combo = pair_witness(instance.formula.variables, instance.anchor.as_dict(),
                         _members(instance.formula))
    return len(combo), instance.anchor.restrict(combo)


def min_defining_set_family(formula: CnfFormula, cap: int = DEFAULT_CAP
                            ) -> Tuple[int, PartialAssignment, PartialAssignment]:
    """Minimum of min_defining_set over all satisfying anchors.
    Ties broken lexicographically on (witness index vector, anchor vector).
    The family is enumerated once and asked no further queries."""
    check_cap(formula.num_vars, cap, "variables")
    anchors = enumerate_proper(formula)
    if not anchors:
        raise ContractViolation("formula is unsatisfiable: no anchor exists")
    i, combo = family_first_hitting_set([a.as_dict() for a in anchors],
                                        formula.variables)
    return len(combo), anchors[i], anchors[i].restrict(combo)


def has_defining_set_within(instance: DefsetSatInstance, k: int,
                            cap: int = DEFAULT_CAP) -> bool:
    """Decision form of Q2: does a defining set of size at most k exist?"""
    check_cap(instance.formula.num_vars, cap, "variables")
    return pair_witness(instance.formula.variables, instance.anchor.as_dict(),
                        _members(instance.formula), upper=k) is not None


def family_has_defining_set_within(formula: CnfFormula, k: int,
                                   cap: int = DEFAULT_CAP) -> bool:
    """Decision form of Q3: does any member of the family have a defining set
    of size at most k?"""
    check_cap(formula.num_vars, cap, "variables")
    return family_has_defining_within(formula.variables, (False, True),
                                      _members(formula), k)


def exists_forall_check(split: QuantifiedSplit, cap: int = DEFAULT_CAP) -> bool:
    """Does some x-assignment admit no satisfying completion on the y-block?
    Brute force over both blocks."""
    if split.anchor_t is not None:
        raise ContractViolation("exists_forall_check takes a split without anchor")
    check_cap(split.formula.num_vars, cap, "variables")
    return any(not enumerate_proper(split.formula, PartialAssignment.of(x),
                                    limit=1)
               for x in assignments(split.x_vars, (False, True)))


def exists_uniqueexists_check(split: QuantifiedSplit,
                              cap: int = DEFAULT_CAP) -> bool:
    """Does some x-assignment make (anchor on y) the unique satisfying
    assignment agreeing with it on the x-block?"""
    if split.anchor_t is None:
        raise ContractViolation("exists_uniqueexists_check needs the y-anchor")
    check_cap(split.formula.num_vars, cap, "variables")
    for x in assignments(split.x_vars, (False, True)):
        models = enumerate_proper(split.formula, PartialAssignment.of(x), limit=2)
        if len(models) == 1 and models[0].extends(split.anchor_t):
            return True
    return False
