"""The hitting-set core and its adapters against truth-table and
colour-product sweeps written here, sharing no search code with the
solvers."""

import itertools
import random

from defsets import colordefs, satdefs
from defsets.cnf import CnfFormula, PartialAssignment
from defsets.colordefs import (DefsetColorInstance,
                               has_defining_coloring_within,
                               min_defining_coloring_family,
                               min_defining_coloring_set)
from defsets.core import first_hitting_set
from defsets.graphs import Coloring, Graph
from defsets.satdefs import (DefsetSatInstance, has_defining_set_within,
                             min_defining_set, min_defining_set_family)


def first_defining(anchor, family, positions, forced=()):
    """Lexicographically first smallest superset of `forced` that no other
    member agrees with the anchor on; members and anchor are tuples indexed
    by position."""
    forced = tuple(forced)
    rest = [p for p in positions if p not in forced]
    for size in range(len(rest) + 1):
        hits = [tuple(sorted(forced + combo))
                for combo in itertools.combinations(rest, size)]
        for cand in sorted(hits):
            if all(m == anchor or any(m[p] != anchor[p] for p in cand)
                   for m in family):
                return cand
    raise AssertionError("the anchor itself is always defining")


def forced_positions(anchor, family, positions):
    """Positions at which some member differs from the anchor and nowhere
    else; every defining set contains them."""
    return tuple(p for p in positions
                 if any([q for q in positions if m[q] != anchor[q]] == [p]
                        for m in family))


def sat_instances(count, seed, max_vars=8):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(1, max_vars)
        clauses = [tuple(rng.choice([1, -1]) * rng.randint(1, n)
                         for _ in range(3))
                   for _ in range(rng.randint(1, 3 * n))]
        models = [(None,) + bits
                  for bits in itertools.product([False, True], repeat=n)
                  if all(any(bits[abs(l) - 1] == (l > 0) for l in c)
                         for c in clauses)]
        if models:
            out.append((CnfFormula.of(n, clauses), models, rng.choice(models)))
    return out


def chi3_graphs(count, seed, max_vertices=7):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(3, max_vertices)
        a, b, c = rng.sample(range(n), 3)
        edges = {tuple(sorted(e)) for e in ((a, b), (b, c), (a, c))}
        edges |= {e for e in itertools.combinations(range(n), 2)
                  if rng.random() < 0.35}
        family = [cols for cols in itertools.product(range(3), repeat=n)
                  if all(cols[u] != cols[v] for u, v in edges)]
        if family:  # the triangle keeps chi at 3 or more
            out.append((Graph.of(n, sorted(edges)), family, rng.choice(family)))
    return out


def sat_binding(witness, anchor):
    return tuple((v, anchor[v]) for v in witness)


def test_core_against_brute_force_hitting_sets():
    rng = random.Random(5)
    for _ in range(400):
        n = rng.randint(1, 8)
        diffs = [rng.randrange(1, 1 << n) for _ in range(rng.randint(0, 12))]
        singles = rng.sample(range(n), rng.randint(0, min(2, n)))
        diffs += [1 << p for p in singles]
        upper = rng.choice([None, rng.randint(0, n)])
        asked = []

        def counterexample(mask):
            asked.append(mask)
            return next((d for d in diffs if not d & mask), None)

        def brute(base):
            return next((cand for size in range(n + 1)
                         for cand in itertools.combinations(range(n), size)
                         if set(base) <= set(cand)
                         and (upper is None or size <= upper)
                         and all(any(d >> p & 1 for p in cand)
                                 for d in diffs)),
                        None)

        got = first_hitting_set(range(n), counterexample, upper)
        forced = [p for p in range(n) if 1 << p in diffs]
        assert got == brute(()) == brute(forced)
        # one query per position, then every query but the last returns a
        # mask no earlier query returned
        full = (1 << n) - 1
        assert asked[:n] == [full & ~(1 << p) for p in range(n)]
        wide = set(diffs) - {1 << p for p in range(n)}
        assert len(asked) <= n + len(wide) + 1


def test_sat_pair_witness_and_decision_forms():
    for formula, models, anchor in sat_instances(120, seed=11):
        n = formula.num_vars
        inst = DefsetSatInstance(formula, PartialAssignment.of(
            {v: anchor[v] for v in range(1, n + 1)}))
        want = first_defining(anchor, models, range(1, n + 1))
        size, witness = min_defining_set(inst)
        assert (size, witness.bindings) == (len(want), sat_binding(want, anchor))
        for k in range(n + 1):
            assert has_defining_set_within(inst, k) == (len(want) <= k)


def test_sat_family_tie_break():
    for formula, models, _ in sat_instances(60, seed=12, max_vars=6):
        n = formula.num_vars
        keys = []
        for anchor in models:
            w = first_defining(anchor, models, range(1, n + 1))
            keys.append((len(w), sat_binding(w, anchor),
                         sat_binding(range(1, n + 1), anchor)))
        size, anchor, witness = min_defining_set_family(formula)
        assert (size, witness.bindings, anchor.bindings) == min(keys)


def test_coloring_pair_witness_decision_and_forced_forms():
    for g, family, anchor in chi3_graphs(80, seed=13):
        n = g.num_vertices
        inst = DefsetColorInstance(g, Coloring(anchor))
        want = first_defining(anchor, family, range(n))
        size, witness = min_defining_coloring_set(inst)
        assert (size, sorted(witness)) == (len(want), list(want))
        assert witness == {v: anchor[v] for v in want}
        for k in range(n + 1):
            assert has_defining_coloring_within(inst, k) == (len(want) <= k)
        # the plain minimizer is the forced-superset minimizer
        forced = forced_positions(anchor, family, range(n))
        want = first_defining(anchor, family, range(n), forced)
        assert min_defining_coloring_set(inst) == \
            (len(want), {v: anchor[v] for v in want})


def test_coloring_family_tie_break():
    for g, family, _ in chi3_graphs(50, seed=14, max_vertices=6):
        keys = []
        for anchor in family:
            w = first_defining(anchor, family, range(g.num_vertices))
            keys.append((len(w), tuple((v, anchor[v]) for v in w), anchor))
        size, anchor, witness = min_defining_coloring_family(g)
        assert (size, tuple(sorted(witness.items())), anchor.colors) == min(keys)


def test_one_cap_exceeded_class():
    assert satdefs.CapExceeded is colordefs.CapExceeded


def test_chi_is_computed_once(monkeypatch):
    calls = []
    real = colordefs.chromatic_number
    monkeypatch.setattr(colordefs, "chromatic_number",
                        lambda g: calls.append(g) or real(g))
    g, _, anchor = chi3_graphs(1, seed=15)[0]
    inst = DefsetColorInstance(g, Coloring(anchor))
    min_defining_coloring_set(inst)
    has_defining_coloring_within(inst, 2)
    assert inst.chi == 3 and len(calls) == 1
    min_defining_coloring_family(g)
    assert len(calls) == 2
