import itertools

import pytest

from defsets.cnf import (CnfFormula, ContractViolation, Eval,
                         PartialAssignment, enumerate_proper, evaluate,
                         is_proper_partial, parse_cnf)
from defsets.satdefs import (DefsetSatInstance, QuantifiedSplit,
                             exists_forall_check, exists_uniqueexists_check,
                             family_has_defining_set_within,
                             has_defining_set_within, min_defining_set)
from defsets.satreduce import (construct_mu, q2_artifact, reduce_q2_to_q3,
                               reduce_unique_to_q2, split_to_3cnf)

PA = PartialAssignment.of


def test_construct_mu_shape():
    phi = CnfFormula.of(3, [(1, 2, 3)])  # x=1, y=2,3
    art = construct_mu(QuantifiedSplit(phi, (1,), (2, 3)))
    assert art.output.clauses == ((1, 2, 3, 4), (-4, 2), (-4, 3))
    assert art.anchor_out == PA({4: True, 2: True, 3: True})
    assert art.output.width == 4
    assert len(art.output.clauses) == len(phi.clauses) + 2


def test_construct_mu_empty_conjunct():
    phi = CnfFormula.of(2, [])
    art = construct_mu(QuantifiedSplit(phi, (), (1, 2)))
    assert art.output.clauses == ((-3, 1), (-3, 2))


def test_construct_mu_anchor_is_proper():
    phi = CnfFormula.of(3, [(1, -2, 3), (-1, 2, 3)])
    art = construct_mu(QuantifiedSplit(phi, (1,), (2, 3)))
    assert is_proper_partial(art.output, art.anchor_out)


def test_construct_mu_rejects_wide_input():
    phi = CnfFormula.of(4, [(1, 2, 3, 4)])
    with pytest.raises(ContractViolation, match="3CNF"):
        construct_mu(QuantifiedSplit(phi, (1,), (2, 3, 4)))


def test_split_to_3cnf_clause_count_and_width():
    phi = CnfFormula.of(2, [(1, 2, 2)])
    mu = construct_mu(QuantifiedSplit(phi, (1,), (2,)))
    mu3 = split_to_3cnf(mu)
    # one wide clause -> six gadget clauses, plus the untouched binary one
    assert len(mu3.output.clauses) == 6 + 1
    assert mu3.output.num_vars == mu.output.num_vars + 1
    assert mu3.output.width == 3
    assert mu3.anchor_out.value(mu3.output.num_vars) is True


GADGET = [(1, 2, 5), (3, 4, -5), (-1, -4, 5), (-2, -4, 5),
          (-3, -1, 5), (-3, -2, 5)]


def gadget_extensions(clauses, bits):
    vals = dict(zip(range(1, 5), bits))
    return [v for v in (False, True)
            if all(any({**vals, 5: v}[abs(l)] == (l > 0) for l in c)
                   for c in clauses)]


def test_gadget_tally_15_unique_1_none():
    unique = sum(1 for bits in itertools.product([False, True], repeat=4)
                 if len(gadget_extensions(GADGET, bits)) == 1)
    none = sum(1 for bits in itertools.product([False, True], repeat=4)
               if len(gadget_extensions(GADGET, bits)) == 0)
    assert (unique, none) == (15, 1)
    assert gadget_extensions(GADGET, (False, False, False, False)) == []


def test_sixth_clause_pins_selector():
    bits = (False, True, True, False)
    assert len(gadget_extensions(GADGET, bits)) == 1
    assert len(gadget_extensions(GADGET[:-1], bits)) == 2


def mu_equivalence_cases():
    for n in (1, 2):
        lits = [l for v in range(1, n + 1) for l in (v, -v)]
        universe = [c for c in itertools.combinations_with_replacement(lits, 3)
                    if not any(-l in c for l in c)]
        for size in range(3):
            for cs in itertools.combinations(universe, size):
                phi = CnfFormula.of(n, cs)
                for mask in itertools.product([0, 1], repeat=n):
                    xs = tuple(v for v in phi.variables if mask[v - 1])
                    ys = tuple(v for v in phi.variables if not mask[v - 1])
                    yield phi, xs, ys


def test_mu_equivalence_exhaustive_small():
    for phi, xs, ys in mu_equivalence_cases():
        split = QuantifiedSplit(phi, xs, ys)
        mu = construct_mu(split)
        assert exists_forall_check(split) == exists_uniqueexists_check(mu.split())


def test_mu_prime_equivalence_exhaustive_small():
    for phi, xs, ys in mu_equivalence_cases():
        mu = construct_mu(QuantifiedSplit(phi, xs, ys))
        mu3 = split_to_3cnf(mu)
        assert exists_uniqueexists_check(mu.split()) == \
            exists_uniqueexists_check(mu3.split())


def test_q2_anchor_satisfies_output():
    phi = CnfFormula.of(3, [(1, 2, 3), (-1, -2, 3)])
    split = QuantifiedSplit(phi, (1,), (2, 3), PA({2: True, 3: True}))
    instance, pair = reduce_unique_to_q2(split)
    assert evaluate(instance.formula, instance.anchor) is Eval.SATISFIED
    assert instance.budget == 1
    assert set(pair) == {1}


def test_q2_chain_forced_by_anchor_values():
    phi = CnfFormula.of(3, [(1, 2, 3)])
    t = PA({2: True, 3: False})
    split = QuantifiedSplit(phi, (1,), (2, 3), t)
    instance, pair = reduce_unique_to_q2(split)
    # fix the (renumbered) y-block to t; every chain variable must be true
    ys = {1: True, 2: False}  # sorted y vars 2,3 -> new indices 1,2
    chain = [v for v in instance.formula.variables
             if v not in ys and v not in {x for p in pair.values() for x in p}]
    for model in enumerate_proper(instance.formula, PA(ys)):
        assert all(model.value(w) for w in chain)


def test_q2_end_to_end_equivalence_toy():
    for clauses, xs in [
        ([(2,), (-2,)], (1,)),          # exists-forall true on the y side
        ([(1, 2, 2)], (1,)),
        ([(1, 2, -2)], (1,)),
        ([(-1, 2, 2), (1, -2, -2)], (1,)),
    ]:
        phi = CnfFormula.of(2, clauses)
        ys = tuple(v for v in phi.variables if v not in xs)
        for bits in itertools.product([False, True], repeat=len(ys)):
            t = PA(dict(zip(ys, bits)))
            if not is_proper_partial(phi, t):
                continue
            split = QuantifiedSplit(phi, xs, ys, t)
            instance, _ = reduce_unique_to_q2(split)
            assert exists_uniqueexists_check(split) == \
                has_defining_set_within(instance, len(xs))


def test_q2_single_y_duplicates_chain_literal():
    phi = CnfFormula.of(2, [(1, 2, 2)])
    split = QuantifiedSplit(phi, (1,), (2,), PA({2: True}))
    instance, _ = reduce_unique_to_q2(split)
    chain_clause = [c for c in instance.formula.clauses
                    if len(set(c)) == 2 and c[0] == c[1]]
    assert chain_clause  # (a1 v a1 v w1)


def test_q2_empty_y_block_rejected():
    phi = CnfFormula.of(1, [])
    with pytest.raises(ContractViolation, match="empty y-block"):
        reduce_unique_to_q2(QuantifiedSplit(phi, (1,), (), PA({})))


def test_q2_artifact_provenance_total():
    phi = CnfFormula.of(3, [(1, 2, 3)])
    split = QuantifiedSplit(phi, (1,), (2, 3), PA({2: True, 3: True}))
    art = q2_artifact(split)
    assert sorted(v for v, _ in art.provenance) == list(art.output.variables)
    roles = [tag for _, tag in art.provenance]
    assert roles.count("v-pair-1") == 1 and roles.count("v'-pair-1") == 1


def test_q3_padding_shape():
    phi = CnfFormula.of(1, [(1, 1, 1)])
    instance = DefsetSatInstance(phi, PA({1: True}))
    art = reduce_q2_to_q3(instance, 1)
    assert art.output.clauses[-2:] == ((-1, 2), (-1, 3))
    assert art.budget_out == 1
    # negative-anchored variable pads with the positive literal
    phi2 = CnfFormula.of(1, [(-1, -1, -1)])
    art2 = reduce_q2_to_q3(DefsetSatInstance(phi2, PA({1: False})), 0)
    assert art2.output.clauses[-1] == (1, 2)


def test_q3_pads_forced_true_at_anchor():
    phi = CnfFormula.of(2, [(1, 2, 2)])
    t = PA({1: True, 2: False})
    art = reduce_q2_to_q3(DefsetSatInstance(phi, t), 1)
    for model in enumerate_proper(art.output, t):
        for v in range(3, art.output.num_vars + 1):
            assert model.value(v) is True


def test_q3_equivalence_exhaustive_small():
    for n in (1, 2):
        lits = [l for v in range(1, n + 1) for l in (v, -v)]
        universe = [c for c in itertools.combinations_with_replacement(lits, 3)
                    if not any(-l in c for l in c)]
        for cs in itertools.combinations(universe, 2):
            phi = CnfFormula.of(n, cs)
            for bits in itertools.product([False, True], repeat=n):
                anchor = PA(dict(zip(phi.variables, bits)))
                try:
                    instance = DefsetSatInstance(phi, anchor)
                except ContractViolation:
                    continue
                for k in (0, 1):
                    art = reduce_q2_to_q3(instance, k)
                    assert family_has_defining_set_within(art.output, k) == \
                        has_defining_set_within(instance, k)


def test_artifacts_round_trip_through_dimacs():
    phi = CnfFormula.of(2, [(1, 2, 2)])
    mu = construct_mu(QuantifiedSplit(phi, (1,), (2,)))
    assert parse_cnf(mu.output.to_dimacs()) == mu.output
    mu3 = split_to_3cnf(mu)
    assert parse_cnf(mu3.output.to_dimacs()) == mu3.output
    text = mu3.provenance_text()
    assert text.count("\n") == mu3.output.num_vars
