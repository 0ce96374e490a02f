import itertools

import pytest

from defsets.cnf import CnfFormula, ContractViolation, PartialAssignment
from defsets.colordefs import (DefsetColorInstance,
                               family_has_defining_coloring_within,
                               is_defining_coloring_set,
                               min_defining_coloring_set)
from defsets.colorreduce import (FROZEN_GADGET, _gadget_extensions,
                                 _rotate_clause, build_g_phi, build_h,
                                 synthesize_clause_gadget,
                                 verify_clause_gadget)
from defsets.graphs import chromatic_number, is_proper
from defsets.satdefs import DefsetSatInstance, min_defining_set

PA = PartialAssignment.of


def test_gadget_contract_verifies():
    report = verify_clause_gadget(FROZEN_GADGET)
    assert report["mismatches"] == []
    assert report["extendable"] == 7
    assert synthesize_clause_gadget() is FROZEN_GADGET


def test_gadget_extend_cases():
    # (0,1,0): middle slot true -> unique canonical interior
    exts = _gadget_extensions(FROZEN_GADGET, {"u1": 0, "u2": 1, "u3": 0})
    assert len(exts) == 1
    assert exts[0] == FROZEN_GADGET.canonical_interior
    # (1,0,1): satisfied clause with false middle slot still extends
    assert _gadget_extensions(FROZEN_GADGET, {"u1": 1, "u2": 0, "u3": 1})


def test_gadget_force_case():
    # all-false slots: no proper interior coloring at all
    assert _gadget_extensions(FROZEN_GADGET, {"u1": 0, "u2": 0, "u3": 0}) == []
    relaxed = _gadget_extensions(FROZEN_GADGET, {"u1": 0, "u2": 0, "u3": 0},
                                 drop_w0_edge=True)
    assert relaxed and all(e["v8"] == 0 for e in relaxed)


def test_gadget_unique_interior_shared():
    interiors = {tuple(sorted(_gadget_extensions(
        FROZEN_GADGET, {"u1": a, "u2": 1, "u3": b})[0].items()))
        for a, b in itertools.product([0, 1], repeat=2)}
    assert len(interiors) == 1


def test_gadget_extensions_match_full_product_sweep():
    edges = list(FROZEN_GADGET.internal_edges) + list(FROZEN_GADGET.boundary)
    tags = FROZEN_GADGET.internal_vertices
    for bits in itertools.product([0, 1], repeat=3):
        slots = {"w0": 0, "w1": 1, "w2": 2, **dict(zip(("u1", "u2", "u3"), bits))}
        for drop in (False, True):
            kept = [e for e in edges if not (drop and e == ("v8", "w0"))]
            want = []
            for combo in itertools.product(range(3), repeat=len(tags)):
                col = {**slots, **dict(zip(tags, combo))}
                if all(col[a] != col[b] for a, b in kept):
                    want.append(dict(zip(tags, combo)))
            got = _gadget_extensions(
                FROZEN_GADGET, {k: slots[k] for k in ("u1", "u2", "u3")}, drop)
            assert [list(e.items()) for e in got] == \
                [list(e.items()) for e in want]


def test_rotate_clause():
    t = {1: True, 2: False, 3: False}
    assert _rotate_clause((2, 1, 3), t)[1] == 1
    assert _rotate_clause((-2, -3, 1), t)[1] == -2  # first true literal wins
    with pytest.raises(ContractViolation, match="no true literal"):
        _rotate_clause((2, 3, -1), t)


def test_build_g_phi_shape_and_anchor():
    phi = CnfFormula.of(2, [(1, 2, 2)])
    art = build_g_phi(phi, PA({1: True, 2: False}))
    # 3 triangle + 4 pendants + 2*2 literal vertices + 8 interior per clause
    assert art.graph.num_vertices == 3 + 4 + 4 + 8
    assert is_proper(art.graph, art.anchor.as_dict())
    assert chromatic_number(art.graph) == 3
    # pendant tiebreakers carry their fixed colors
    assert art.anchor.colors[3:7] == (1, 2, 0, 2)


def test_build_g_phi_rejects_bad_inputs():
    with pytest.raises(ContractViolation, match="3CNF"):
        build_g_phi(CnfFormula.of(4, [(1, 2, 3, 4)]),
                    PA({v: True for v in range(1, 5)}))
    with pytest.raises(ContractViolation, match="total"):
        build_g_phi(CnfFormula.of(2, [(1, 2, 2)]), PA({1: True}))
    with pytest.raises(ContractViolation, match="no true literal"):
        build_g_phi(CnfFormula.of(1, [(1, 1, 1)]), PA({1: False}))


def test_g_phi_chromatic_three_iff_satisfiable():
    # satisfiable: formula graph stays 3-chromatic
    sat = CnfFormula.of(2, [(1, 2, 2), (-1, 2, 2)])
    art = build_g_phi(sat, PA({1: True, 2: True}))
    assert chromatic_number(art.graph) == 3
    # unsatisfiable: same construction minus rotation needs a fourth color
    unsat = CnfFormula.of(1, [(1, 1, 1), (-1, -1, -1)])
    art = build_g_phi(unsat, None)
    assert art.anchor is None and chromatic_number(art.graph) == 4


def test_g_phi_minimum_shift_toy():
    # coloring pair minimum equals the sat pair minimum plus four
    for clauses, anchor in [
        ([(1, 1, 1)], {1: True}),                  # sat min 0
        ([(1, 2, 2)], {1: True, 2: False}),        # sat min 1
        ([(1, 2, 2), (-1, -2, -2)], {1: True, 2: False}),
    ]:
        phi = CnfFormula.of(max(anchor), clauses)
        t = PA(anchor)
        sat_min = min_defining_set(DefsetSatInstance(phi, t))[0]
        art = build_g_phi(phi, t)
        inst = DefsetColorInstance(art.graph, art.anchor)
        anchor = art.anchor.as_dict()
        for v in range(3, 7):  # the four pendants are forced
            rest = {u: c for u, c in anchor.items() if u != v}
            assert not is_defining_coloring_set(inst, rest, cap=32)
        color_min = min_defining_coloring_set(inst, cap=32)[0]
        assert color_min == sat_min + 4


def test_build_h_shape():
    from defsets.graphs import Graph, Coloring
    tri = Graph.of(3, [(0, 1), (1, 2), (0, 2)])
    c = Coloring((0, 1, 2))
    k = 1
    art = build_h(tri, c, k)
    n = tri.num_vertices
    assert art.graph.num_vertices == n + 3 + 2 * (k + 1) * n + 4
    assert art.budget_out == k + 4
    # the four tiebreakers have degree one
    adj = art.graph.adjacency()
    wp = range(art.graph.num_vertices - 4, art.graph.num_vertices)
    assert all(len(adj[v]) == 1 for v in wp)
    assert chromatic_number(art.graph) == 3


def test_build_h_rejects_bad_inputs():
    from defsets.graphs import Graph, Coloring
    edge = Graph.of(2, [(0, 1)])
    with pytest.raises(ContractViolation, match="chromatic number 3"):
        build_h(edge, Coloring((0, 1)), 0)
    tri = Graph.of(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(ContractViolation, match="proper"):
        build_h(tri, Coloring((0, 0, 1)), 0)
    with pytest.raises(ContractViolation, match="nonnegative"):
        build_h(tri, Coloring((0, 1, 2)), -1)


def test_build_h_law_toy():
    from defsets.colordefs import has_defining_coloring_within
    from defsets.graphs import Graph, Coloring
    tri = Graph.of(3, [(0, 1), (1, 2), (0, 2)])
    c = Coloring((0, 1, 2))
    inst = DefsetColorInstance(tri, c)
    for k in (0, 1, 2):
        art = build_h(tri, c, k)
        assert has_defining_coloring_within(inst, k) == \
            family_has_defining_coloring_within(
                art.graph, art.budget_out, cap=32, chi=3)


def test_provenance_text_covers_all_vertices():
    phi = CnfFormula.of(1, [(1, 1, 1)])
    art = build_g_phi(phi, PA({1: True}))
    text = art.provenance_text()
    assert text.count("\n") == art.graph.num_vertices
    assert "role w0" in text and "role c1-v8" in text
