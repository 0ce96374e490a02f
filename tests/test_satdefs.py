import itertools
import random
from collections import Counter

import pytest

from defsets.cnf import CnfFormula, ContractViolation, PartialAssignment
from defsets.satdefs import (CapExceeded, DefsetSatInstance, QuantifiedSplit,
                             exists_forall_check, exists_uniqueexists_check,
                             family_has_defining_set_within,
                             has_defining_set_within, is_defining_set,
                             min_defining_set, min_defining_set_family)
from defsets.satreduce import construct_mu

PA = PartialAssignment.of


def inst(clauses, anchor, num_vars=None):
    n = num_vars or max(abs(l) for c in clauses for l in c)
    return DefsetSatInstance(CnfFormula.of(n, clauses), PA(anchor))


def test_instance_validates_anchor():
    with pytest.raises(ContractViolation, match="total"):
        inst([(1, 2)], {1: True})
    with pytest.raises(ContractViolation, match="satisfy"):
        inst([(1,)], {1: False})


def test_is_defining_set_examples():
    unique = inst([(1,), (-1, 2)], {1: True, 2: True})
    assert is_defining_set(unique, PA({}))
    two = inst([(1, 2)], {1: True, 2: True})
    assert not is_defining_set(two, PA({}))
    xor = inst([(1, 2), (-1, -2)], {1: True, 2: False})
    assert is_defining_set(xor, PA({1: True}))


def test_is_defining_set_rejects_non_restriction():
    xor = inst([(1, 2), (-1, -2)], {1: True, 2: False})
    with pytest.raises(ContractViolation, match="restriction"):
        is_defining_set(xor, PA({1: False}))


def test_min_defining_set_examples():
    unique = inst([(1,), (-1, 2)], {1: True, 2: True})
    assert min_defining_set(unique) == (0, PA({}))
    xor = inst([(1, 2), (-1, -2)], {1: True, 2: False})
    size, witness = min_defining_set(xor)
    assert (size, witness) == (1, PA({1: True}))


def test_min_defining_set_witness_is_canonical():
    # both singletons define; the lexicographically first variable wins
    f = CnfFormula.of(2, [(1, 2), (-1, -2)])
    size, witness = min_defining_set(DefsetSatInstance(f, PA({1: False, 2: True})))
    assert size == 1 and witness.support == (1,)


def test_min_defining_set_family_examples():
    assert min_defining_set_family(CnfFormula.of(2, [(1,), (-1, 2)]))[0] == 0
    size, anchor, witness = min_defining_set_family(CnfFormula.of(2, [(1, 2)]))
    assert size == 1
    assert is_defining_set(DefsetSatInstance(CnfFormula.of(2, [(1, 2)]), anchor),
                           witness)


def test_family_unsat_raises():
    with pytest.raises(ContractViolation, match="unsatisfiable"):
        min_defining_set_family(CnfFormula.of(1, [(1,), (-1,)]))


def test_exists_forall_examples():
    contradiction = CnfFormula.of(2, [(2,), (-2,)])
    assert exists_forall_check(QuantifiedSplit(contradiction, (1,), (2,)))
    tautology = CnfFormula.of(1, [(1, -1)])
    assert not exists_forall_check(QuantifiedSplit(tautology, (), (1,)))
    # expected value produced by the brute-force sweep: x1=false leaves the
    # y variable pinned both ways, so no completion exists
    f = CnfFormula.of(2, [(1, 2), (1, -2)])
    assert exists_forall_check(QuantifiedSplit(f, (1,), (2,)))


def test_exists_forall_rejects_anchor():
    f = CnfFormula.of(1, [(1,)])
    with pytest.raises(ContractViolation):
        exists_forall_check(QuantifiedSplit(f, (), (1,), PA({1: True})))


def test_exists_uniqueexists_examples():
    # forced y-block, empty x-block
    f = CnfFormula.of(2, [(1,), (2,)])
    assert exists_uniqueexists_check(QuantifiedSplit(f, (), (1, 2),
                                                     PA({1: True, 2: True})))
    # mu over a formula whose y can never be pinned by any x
    taut = CnfFormula.of(1, [(1, -1)])
    mu = construct_mu(QuantifiedSplit(taut, (), (1,)))
    assert not exists_uniqueexists_check(mu.split())
    # mu over a formula where exists-forall holds
    contradiction = CnfFormula.of(2, [(2,), (-2,)])
    mu2 = construct_mu(QuantifiedSplit(contradiction, (1,), (2,)))
    assert exists_uniqueexists_check(mu2.split())


def test_split_validation():
    f = CnfFormula.of(2, [(1, 2)])
    with pytest.raises(ContractViolation, match="partition"):
        QuantifiedSplit(f, (1,), (1, 2))
    with pytest.raises(ContractViolation, match="proper"):
        QuantifiedSplit(f, (1,), (2,), PA({2: False}))


def all_formulas(num_vars, max_clauses):
    lits = [l for v in range(1, num_vars + 1) for l in (v, -v)]
    universe = [c for c in itertools.combinations(lits, 2)
                if abs(c[0]) != abs(c[1])]
    for size in range(max_clauses + 1):
        for cs in itertools.combinations(universe, size):
            yield CnfFormula.of(num_vars, cs)


def test_defining_iff_single_extension_small_sweep():
    for f in all_formulas(3, 2):
        for bits in itertools.product([False, True], repeat=3):
            anchor = PA(dict(zip(f.variables, bits)))
            try:
                instance = DefsetSatInstance(f, anchor)
            except ContractViolation:
                continue
            for size in range(4):
                for combo in itertools.combinations([1, 2, 3], size):
                    cand = PA({v: anchor.value(v) for v in combo})
                    models = [bs for bs in itertools.product([False, True], repeat=3)
                              if all(any(bs[abs(l) - 1] == (l > 0) for l in c)
                                     for c in f.clauses)
                              and all(bs[v - 1] == anchor.value(v) for v in combo)]
                    assert is_defining_set(instance, cand) == (len(models) == 1)


def test_monotonicity_and_minimality():
    xor = inst([(1, 2), (-1, -2)], {1: True, 2: False})
    size, witness = min_defining_set(xor)
    # superset of a defining set is defining
    bigger = witness.merged(PA({2: False}))
    assert is_defining_set(xor, bigger)
    # no subset of size - 1 is defining
    for combo in itertools.combinations(witness.support, size - 1):
        cand = PA({v: witness.value(v) for v in combo})
        assert not is_defining_set(xor, cand)


def test_family_min_bounded_by_pair_min():
    f = CnfFormula.of(3, [(1, 2, 3)])
    fam = min_defining_set_family(f)[0]
    for m in itertools.product([False, True], repeat=3):
        anchor = PA(dict(zip(f.variables, m)))
        try:
            instance = DefsetSatInstance(f, anchor)
        except ContractViolation:
            continue
        assert fam <= min_defining_set(instance)[0]


def test_decision_forms_agree_with_minimum():
    xor = inst([(1, 2), (-1, -2)], {1: True, 2: False})
    assert not has_defining_set_within(xor, 0)
    assert has_defining_set_within(xor, 1)
    f = CnfFormula.of(2, [(1, 2)])
    assert not family_has_defining_set_within(f, 0)
    assert family_has_defining_set_within(f, 1)


def test_family_decision_matches_truth_table_reference():
    # minima from 0 to 5 and one unsatisfiable formula (no defining set)
    rng = random.Random(21)
    for _ in range(12):
        n = rng.randint(2, 6)
        clauses = [tuple(rng.choice((v, -v)) for v in
                         rng.sample(range(1, n + 1), rng.randint(1, min(n, 3))))
                   for _ in range(rng.randint(1, n + 2))]
        f = CnfFormula.of(n, clauses)
        family = [bits for bits in itertools.product([False, True], repeat=n)
                  if all(any(bits[abs(l) - 1] == (l > 0) for l in c)
                         for c in clauses)]
        fmin = min((len(combo) for size in range(n + 1)
                    for combo in itertools.combinations(range(n), size)
                    if 1 in Counter(tuple(bits[v] for v in combo)
                                    for bits in family).values()),
                   default=n + 1)
        for k in range(n + 1):
            assert family_has_defining_set_within(f, k) == (fmin <= k)


def test_variable_cap_enforced():
    f = CnfFormula.of(30, [(v,) for v in range(1, 31)])
    anchor = PA({v: True for v in f.variables})
    with pytest.raises(CapExceeded):
        min_defining_set(DefsetSatInstance(f, anchor))
    # explicit cap raise lets it through
    assert min_defining_set(DefsetSatInstance(f, anchor), cap=30)[0] == 0
