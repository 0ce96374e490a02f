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

import itertools
from dataclasses import dataclass
from typing import Optional, Tuple

from .cnf import (CnfFormula, ContractViolation, Eval, PartialAssignment,
                  count_extensions, enumerate_proper, evaluate,
                  is_proper_partial)
from .core import (CapExceeded, diff_mask, family_first_hitting_set,
                   first_hitting_set)

DEFAULT_VAR_CAP = 24


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


def _check_cap(num_vars: int, cap: int) -> None:
    if num_vars > cap:
        raise CapExceeded(
            f"instance has {num_vars} variables, above the cap of {cap}; "
            f"raise the cap explicitly if you really want this")


def is_defining_set(instance: DefsetSatInstance, candidate: PartialAssignment,
                    cap: int = DEFAULT_VAR_CAP) -> bool:
    """True iff the anchor is the unique satisfying extension of candidate."""
    _check_cap(instance.formula.num_vars, cap)
    if not instance.anchor.extends(candidate):
        raise ContractViolation("candidate is not a restriction of the anchor")
    models = enumerate_proper(instance.formula, candidate, limit=2)
    return len(models) == 1


def _pair_witness(instance: DefsetSatInstance,
                  upper: Optional[int] = None) -> Optional[PartialAssignment]:
    """Canonical defining set within `upper`; each query asks for one
    satisfying assignment other than the anchor."""
    anchor = instance.anchor.as_dict()
    variables = sorted(anchor)

    def counterexample(mask: int) -> Optional[int]:
        fixed = PartialAssignment.of(
            {v: b for v, b in anchor.items() if mask >> v & 1})
        models = enumerate_proper(instance.formula, fixed, limit=2)
        return next((d for d in (diff_mask(m.as_dict(), anchor, variables)
                                 for m in models) if d), None)

    combo = first_hitting_set(variables, counterexample, upper=upper)
    return None if combo is None else \
        PartialAssignment.of({v: anchor[v] for v in combo})


def min_defining_set(instance: DefsetSatInstance, cap: int = DEFAULT_VAR_CAP
                     ) -> Tuple[int, PartialAssignment]:
    """Smallest defining set of (family, anchor): size and the canonical
    (lexicographically smallest by sorted index vector) witness.

    Increasing-cardinality subset sweep that queries only candidates hitting
    every counterexample found so far."""
    _check_cap(instance.formula.num_vars, cap)
    witness = _pair_witness(instance)
    return len(witness), witness


def min_defining_set_family(formula: CnfFormula, cap: int = DEFAULT_VAR_CAP
                            ) -> Tuple[int, PartialAssignment, PartialAssignment]:
    """Minimum of min_defining_set over all satisfying anchors.
    Ties broken lexicographically on (witness index vector, anchor vector).
    The family is enumerated once and asked no further queries."""
    _check_cap(formula.num_vars, cap)
    anchors = enumerate_proper(formula)
    if not anchors:
        raise ContractViolation("formula is unsatisfiable: no anchor exists")
    i, combo = family_first_hitting_set([a.as_dict() for a in anchors],
                                        formula.variables)
    return len(combo), anchors[i], anchors[i].restrict(combo)


def has_defining_set_within(instance: DefsetSatInstance, k: int,
                            cap: int = DEFAULT_VAR_CAP) -> bool:
    """Decision form of Q2: does a defining set of size at most k exist?"""
    _check_cap(instance.formula.num_vars, cap)
    return _pair_witness(instance, upper=k) is not None


def family_has_defining_set_within(formula: CnfFormula, k: int,
                                   cap: int = DEFAULT_VAR_CAP) -> bool:
    """Decision form of Q3: does any member of the family have a defining set
    of size at most k?  Sweeps partial assignments directly: a subset with
    exactly one satisfying total extension is a defining set of that
    extension."""
    _check_cap(formula.num_vars, cap)
    for size in range(min(k, formula.num_vars) + 1):
        for combo in itertools.combinations(formula.variables, size):
            for bits in itertools.product([False, True], repeat=size):
                cand = PartialAssignment.of(dict(zip(combo, bits)))
                if count_extensions(formula, cand, limit=2) == 1:
                    return True
    return False


def exists_forall_check(split: QuantifiedSplit, cap: int = DEFAULT_VAR_CAP) -> bool:
    """Does some x-assignment admit no satisfying completion on the y-block?
    Brute force over both blocks."""
    if split.anchor_t is not None:
        raise ContractViolation("exists_forall_check takes a split without anchor")
    _check_cap(split.formula.num_vars, cap)
    for xbits in itertools.product([False, True], repeat=len(split.x_vars)):
        fixed = PartialAssignment.of(dict(zip(split.x_vars, xbits)))
        if count_extensions(split.formula, fixed, limit=1) == 0:
            return True
    return False


def exists_uniqueexists_check(split: QuantifiedSplit,
                              cap: int = DEFAULT_VAR_CAP) -> bool:
    """Does some x-assignment make (anchor on y) the unique satisfying
    assignment agreeing with it on the x-block?"""
    if split.anchor_t is None:
        raise ContractViolation("exists_uniqueexists_check needs the y-anchor")
    _check_cap(split.formula.num_vars, cap)
    for xbits in itertools.product([False, True], repeat=len(split.x_vars)):
        fixed = PartialAssignment.of(dict(zip(split.x_vars, xbits)))
        models = enumerate_proper(split.formula, fixed, limit=2)
        if len(models) == 1 and models[0].extends(split.anchor_t):
            return True
    return False
