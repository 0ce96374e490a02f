import itertools
import random
from collections import Counter

import pytest

from defsets.cnf import ContractViolation
from defsets.colordefs import (CapExceeded, DefsetColorInstance,
                               family_has_defining_coloring_within,
                               has_defining_coloring_within,
                               is_defining_coloring_set,
                               min_defining_coloring_family,
                               min_defining_coloring_set)
from defsets.graphs import Coloring, Graph, enumerate_colorings

TRIANGLE = Graph.of(3, [(0, 1), (1, 2), (0, 2)])
STAR = Graph.of(4, [(0, 1), (0, 2), (0, 3)])


def test_instance_validation():
    with pytest.raises(ContractViolation, match="proper"):
        DefsetColorInstance(TRIANGLE, Coloring((0, 0, 1)))
    with pytest.raises(ContractViolation, match="cover"):
        DefsetColorInstance(TRIANGLE, Coloring((0, 1)))
    with pytest.raises(ContractViolation, match="palette"):
        DefsetColorInstance(Graph.of(2, [(0, 1)]), Coloring((0, 2)))


def test_is_defining_coloring_set_examples():
    inst = DefsetColorInstance(TRIANGLE, Coloring((0, 1, 2)))
    # any two vertices of a 3-clique pin the third
    assert is_defining_coloring_set(inst, {0: 0, 1: 1})
    assert not is_defining_coloring_set(inst, {0: 0})
    assert not is_defining_coloring_set(inst, {})
    with pytest.raises(ContractViolation, match="conflicts"):
        is_defining_coloring_set(inst, {0: 1})


def test_min_defining_set_triangle():
    inst = DefsetColorInstance(TRIANGLE, Coloring((0, 1, 2)))
    assert min_defining_coloring_set(inst) == (2, {0: 0, 1: 1})


def test_min_defining_set_star_center_suffices():
    # fixing the hub of a star forces every leaf to the other color
    inst = DefsetColorInstance(STAR, Coloring((0, 1, 1, 1)))
    assert min_defining_coloring_set(inst) == (1, {0: 0})


def test_min_defining_set_single_vertex():
    inst = DefsetColorInstance(Graph.of(1, []), Coloring((0,)))
    assert min_defining_coloring_set(inst) == (0, {})


def test_empty_set_never_defines_with_two_colors():
    # swapping the two palette colors yields a second optimal coloring
    for g in (Graph.of(2, [(0, 1)]), STAR, TRIANGLE):
        anchor = enumerate_colorings(g)[0]
        inst = DefsetColorInstance(g, anchor)
        assert not is_defining_coloring_set(inst, {})
        assert min_defining_coloring_set(inst)[0] >= 1


def test_monotone_supersets_still_define():
    inst = DefsetColorInstance(TRIANGLE, Coloring((0, 1, 2)))
    size, witness = min_defining_coloring_set(inst)
    bigger = dict(witness)
    bigger[2] = 2
    assert is_defining_coloring_set(inst, bigger)


def test_family_min_examples():
    assert min_defining_coloring_family(Graph.of(1, []))[0] == 0
    size, anchor, witness = min_defining_coloring_family(STAR)
    assert size == 1
    assert is_defining_coloring_set(DefsetColorInstance(STAR, anchor), witness)


def test_family_min_bounded_by_every_pair_min():
    g = Graph.of(4, [(0, 1), (1, 2), (2, 3), (0, 3)])  # C4
    fam = min_defining_coloring_family(g)[0]
    for anchor in enumerate_colorings(g):
        assert fam <= min_defining_coloring_set(
            DefsetColorInstance(g, anchor))[0]


def test_forced_vertices_sound():
    for g in (STAR, TRIANGLE, Graph.of(4, [(0, 1), (1, 2), (2, 3)])):
        family = enumerate_colorings(g)
        for anchor in family:
            inst = DefsetColorInstance(g, anchor)
            # a vertex is forced when some member differs from the anchor
            # there and nowhere else
            diffs = [[v for v in range(g.num_vertices)
                      if m.value(v) != anchor.value(v)] for m in family]
            forced = {d[0] for d in diffs if len(d) == 1}
            first = None
            # every forced vertex appears in every defining set, and the
            # first forced superset that defines is the canonical witness
            for size2 in range(g.num_vertices + 1):
                for combo in itertools.combinations(range(g.num_vertices),
                                                    size2):
                    cand = {v: anchor.value(v) for v in combo}
                    if is_defining_coloring_set(inst, cand):
                        assert forced <= set(combo)
                        if first is None:
                            first = cand
            assert min_defining_coloring_set(inst) == (len(first), first)


def test_decision_forms_agree_with_minimum():
    inst = DefsetColorInstance(TRIANGLE, Coloring((0, 1, 2)))
    assert not has_defining_coloring_within(inst, 1)
    assert has_defining_coloring_within(inst, 2)
    assert not family_has_defining_coloring_within(TRIANGLE, 1)
    assert family_has_defining_coloring_within(TRIANGLE, 2)
    assert family_has_defining_coloring_within(Graph.of(1, []), 0)


def test_family_decision_with_required_vertices():
    # hub of the star lies in every defining set of every anchor
    assert family_has_defining_coloring_within(STAR, 1)
    assert not family_has_defining_coloring_within(STAR, 0)


def test_family_decision_matches_colour_product_reference():
    # isolated and pendant vertices lie in every defining set once chi >= 3;
    # the decision form assumes so, and the reference below does not
    rng = random.Random(16)
    for _ in range(12):
        core = rng.randint(2, 5)
        edges = {e for e in itertools.combinations(range(core), 2)
                 if rng.random() < 0.6}
        n = rng.randint(core + 1, 7)
        for v in range(core, n):
            if rng.random() < 0.7:
                edges.add((rng.randrange(v), v))
        g = Graph.of(n, sorted(edges))
        for chi in range(1, n + 1):
            family = [cols for cols in itertools.product(range(chi), repeat=n)
                      if all(cols[u] != cols[v] for u, v in edges)]
            if family:
                break
        fmin = min(len(combo) for size in range(n + 1)
                   for combo in itertools.combinations(range(n), size)
                   if 1 in Counter(tuple(cols[v] for v in combo)
                                   for cols in family).values())
        for k in range(n + 1):
            assert family_has_defining_coloring_within(g, k) == (fmin <= k)


def test_cap_enforced():
    g = Graph.of(30, [])
    inst = DefsetColorInstance(g, Coloring((0,) * 30))
    with pytest.raises(CapExceeded):
        min_defining_coloring_set(inst)
    assert min_defining_coloring_set(inst, cap=30) == (0, {})


def test_oracle_agreement_small():
    from defsets.oracle import oracle_min_defset_coloring, random_chi3_graph
    import random
    rng = random.Random(7)
    for _ in range(15):
        g, _coloring = random_chi3_graph(rng, max_vertices=6)
        anchor = enumerate_colorings(g)[0]
        inst = DefsetColorInstance(g, anchor)
        assert min_defining_coloring_set(inst)[0] == \
            oracle_min_defset_coloring(inst)
