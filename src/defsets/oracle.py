"""Independent brute-force oracles and reduction verifiers.

Everything here is deliberately naive and shares no search code with the
solver modules: truth tables and full product sweeps only.  Tests and the
`verify` CLI subcommand cross-check every solver and construction against
these.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from .cnf import CnfFormula, PartialAssignment
from .colordefs import (DefsetColorInstance, family_has_defining_coloring_within,
                        has_defining_coloring_within, is_defining_coloring_set,
                        min_defining_coloring_set)
from .colorreduce import build_g_phi, build_h, synthesize_clause_gadget
from .core import CapExceeded
from .graphs import Coloring, Graph, chromatic_number, enumerate_colorings
from .satdefs import (DefsetSatInstance, QuantifiedSplit, exists_forall_check,
                      exists_uniqueexists_check, family_has_defining_set_within,
                      has_defining_set_within, min_defining_set)
from .satreduce import construct_mu, reduce_q2_to_q3, reduce_unique_to_q2, split_to_3cnf

ORACLE_SAT_CAP = 16
ORACLE_COLOR_CAP = 12


OracleCapExceeded = CapExceeded  # the oracle caps raise the one cap error


def _truth_table_models(formula: CnfFormula) -> List[Tuple[bool, ...]]:
    """Every satisfying total assignment, by sweeping the full truth table."""
    n = formula.num_vars
    models = []
    for bits in itertools.product([False, True], repeat=n):
        ok = True
        for clause in formula.clauses:
            if not any(bits[abs(l) - 1] == (l > 0) for l in clause):
                ok = False
                break
        if ok:
            models.append(bits)
    return models


def oracle_min_defset_sat(instance: DefsetSatInstance) -> int:
    """Exact pair minimum by full truth table plus full subset sweep."""
    n = instance.formula.num_vars
    if n > ORACLE_SAT_CAP:
        raise OracleCapExceeded(f"{n} variables > oracle cap {ORACLE_SAT_CAP}")
    models = _truth_table_models(instance.formula)
    anchor = tuple(bool(instance.anchor.value(v)) for v in range(1, n + 1))
    for size in range(n + 1):
        for combo in itertools.combinations(range(n), size):
            agreeing = [m for m in models
                        if all(m[i] == anchor[i] for i in combo)]
            if len(agreeing) == 1:
                return size
    raise AssertionError("anchor is always defining")  # unreachable


def _all_colorings(g: Graph, k: int) -> List[Tuple[int, ...]]:
    out = []
    for combo in itertools.product(range(k), repeat=g.num_vertices):
        if all(combo[u] != combo[v] for u, v in g.edges):
            out.append(combo)
    return out


def oracle_min_defset_coloring(instance: DefsetColorInstance) -> int:
    """Exact pair minimum by full color-product sweep."""
    n = instance.graph.num_vertices
    if n > ORACLE_COLOR_CAP:
        raise OracleCapExceeded(f"{n} vertices > oracle cap {ORACLE_COLOR_CAP}")
    chi = 0
    for k in range(0 if n == 0 else 1, n + 1):
        if _all_colorings(instance.graph, k):
            chi = k
            break
    family = _all_colorings(instance.graph, chi)
    anchor = instance.anchor.colors
    for size in range(n + 1):
        for combo in itertools.combinations(range(n), size):
            agreeing = [c for c in family
                        if all(c[v] == anchor[v] for v in combo)]
            if len(agreeing) == 1:
                return size
    raise AssertionError("anchor is always defining")  # unreachable


# ---------------------------------------------------------------------------
# instance generators (fixed-seed, parameters recorded in report headers)

def small_clause_universe(num_vars: int) -> List[Tuple[int, int, int]]:
    """All non-tautological 3-literal clauses (duplicates allowed, canonical
    sorted order) over the given variables."""
    lits = [l for v in range(1, num_vars + 1) for l in (v, -v)]
    out = []
    for combo in itertools.combinations_with_replacement(sorted(lits), 3):
        if any(-l in combo for l in combo):
            continue
        out.append(combo)
    return out


def enumerate_small_formulas(num_vars: int, max_clauses: int,
                             distinct_vars_only: bool = False
                             ) -> Iterator[CnfFormula]:
    universe = small_clause_universe(num_vars)
    if distinct_vars_only:
        universe = [c for c in universe
                    if len({abs(l) for l in c}) == len(c)]
    for size in range(max_clauses + 1):
        for clauses in itertools.combinations(universe, size):
            yield CnfFormula.of(num_vars, clauses)


def random_3cnf(rng: random.Random, num_vars: int, num_clauses: int) -> CnfFormula:
    clauses = []
    for _ in range(num_clauses):
        clause = tuple(rng.choice([1, -1]) * rng.randint(1, num_vars)
                       for _ in range(3))
        clauses.append(clause)
    return CnfFormula.of(num_vars, clauses)


def first_proper_partial(formula: CnfFormula,
                         y_vars: Tuple[int, ...]) -> Optional[PartialAssignment]:
    """Lexicographically first proper partial assignment over the y-block."""
    for bits in itertools.product([False, True], repeat=len(y_vars)):
        t = PartialAssignment.of(dict(zip(y_vars, bits)))
        vals = t.as_dict()
        if all(any(vals.get(abs(l)) == (l > 0) for l in c)
               for c in formula.clauses):
            return t
    return None


# ---------------------------------------------------------------------------
# reduction verification

@dataclass
class VerifyReport:
    name: str
    params: Dict[str, object]
    instances: int = 0
    mismatches: List[str] = field(default_factory=list)
    wall_time: float = 0.0
    notes: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary_line(self) -> str:
        return (f"VERIFY {self.name} instances={self.instances} "
                f"mismatches={len(self.mismatches)}")

    def text(self) -> str:
        """Structured report; byte-identical for identical seed and caps
        (timing is kept out of the body for that reason)."""
        lines = [f"verify {self.name}"]
        for key in sorted(self.params):
            lines.append(f"  param {key}={self.params[key]}")
        lines += [f"  note {n}" for n in self.notes]
        lines += [f"  MISMATCH {m}" for m in self.mismatches]
        lines.append(self.summary_line())
        return "\n".join(lines) + "\n"


def _splits(num_vars: int) -> Iterator[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    variables = list(range(1, num_vars + 1))
    for mask in itertools.product([0, 1], repeat=num_vars):
        xs = tuple(v for v, b in zip(variables, mask) if b)
        ys = tuple(v for v, b in zip(variables, mask) if not b)
        yield xs, ys


def verify_mu(max_vars: int = 3, max_clauses: int = 2) -> VerifyReport:
    """Both sides of the escape-literal equivalence, exhaustively."""
    report = VerifyReport("mu", {"max_vars": max_vars, "max_clauses": max_clauses,
                                 "universe": "distinct-variable clauses"})
    start = time.perf_counter()
    for n in range(1, max_vars + 1):
        for phi in enumerate_small_formulas(n, max_clauses, distinct_vars_only=True):
            for xs, ys in _splits(n):
                split = QuantifiedSplit(phi, xs, ys)
                lhs = exists_forall_check(split)
                mu = construct_mu(split)
                rhs = exists_uniqueexists_check(mu.split())
                report.instances += 1
                if lhs != rhs:
                    report.mismatches.append(
                        f"phi={phi.clauses} x={xs}: forall={lhs} unique={rhs}")
    report.wall_time = time.perf_counter() - start
    return report


def verify_cprime() -> VerifyReport:
    """The six-clause gadget tally plus the 3CNF-splitting equivalence."""
    report = VerifyReport("cprime", {"boundary_cases": 16})
    start = time.perf_counter()
    # local tally over a generic clause: a1=1 a2=2 a3=3 z=4 selector v=5
    unique, none = 0, 0
    for bits in itertools.product([False, True], repeat=4):
        fixed = dict(zip(range(1, 5), bits))
        six = _clause_gadget_formula()
        exts = [v for v in (False, True)
                if _eval_clauses(six, {**fixed, 5: v})]
        report.instances += 1
        if len(exts) == 1:
            unique += 1
        elif len(exts) == 0:
            none += 1
        else:
            report.mismatches.append(f"boundary {bits}: {len(exts)} extensions")
    if (unique, none) != (15, 1):
        report.mismatches.append(f"tally unique={unique} none={none}, want 15/1")
    report.notes.append(f"tally unique={unique} none={none}")
    # dropping the sixth clause leaves v free at (F,T,T,F)
    five = _clause_gadget_formula()[:-1]
    fixed = {1: False, 2: True, 3: True, 4: False}
    exts = [v for v in (False, True) if _eval_clauses(five, {**fixed, 5: v})]
    if len(exts) != 2:
        report.mismatches.append(
            f"five-clause gadget pins v at (F,T,T,F): {len(exts)} extensions")
    # equivalence mu <-> mu' on the small exhaustive sweep
    for n in range(1, 3):
        for phi in enumerate_small_formulas(n, 2, distinct_vars_only=(n == 3)):
            for xs, ys in _splits(n):
                mu = construct_mu(QuantifiedSplit(phi, xs, ys))
                mu3 = split_to_3cnf(mu)
                lhs = exists_uniqueexists_check(mu.split())
                rhs = exists_uniqueexists_check(mu3.split())
                report.instances += 1
                if lhs != rhs:
                    report.mismatches.append(
                        f"phi={phi.clauses} x={xs}: mu={lhs} mu'={rhs}")
    report.wall_time = time.perf_counter() - start
    return report


def _clause_gadget_formula() -> List[Tuple[int, ...]]:
    """The six clauses over a1=1, a2=2, a3=3, z=4, selector v=5."""
    a1, a2, a3, z, v = 1, 2, 3, 4, 5
    return [(a1, a2, v), (a3, z, -v), (-a1, -z, v), (-a2, -z, v),
            (-a1, -a3, v), (-a2, -a3, v)]


def _eval_clauses(clauses, values: Dict[int, bool]) -> bool:
    return all(any(values[abs(l)] == (l > 0) for l in c) for c in clauses)


def verify_q2(count: int = 200, seed: int = 2024, max_vars: int = 4,
              max_clauses: int = 4) -> VerifyReport:
    report = VerifyReport("q2", {"count": count, "seed": seed,
                                 "max_vars": max_vars, "max_clauses": max_clauses})
    start = time.perf_counter()
    rng = random.Random(seed)
    while report.instances < count:
        n = rng.randint(1, max_vars)
        phi = random_3cnf(rng, n, rng.randint(1, max_clauses))
        nx = rng.randint(0, n - 1)
        variables = list(range(1, n + 1))
        rng.shuffle(variables)
        xs, ys = tuple(sorted(variables[:nx])), tuple(sorted(variables[nx:]))
        t = first_proper_partial(phi, ys)
        if t is None:
            continue
        split = QuantifiedSplit(phi, xs, ys, t)
        lhs = exists_uniqueexists_check(split)
        instance, _ = reduce_unique_to_q2(split)
        rhs = has_defining_set_within(instance, len(xs))
        report.instances += 1
        if lhs != rhs:
            report.mismatches.append(
                f"phi={phi.clauses} x={xs} t={t.bindings}: "
                f"source={lhs} target={rhs}")
    report.wall_time = time.perf_counter() - start
    return report


def verify_q3(count: int = 200, seed: int = 2025, max_vars: int = 4,
              max_clauses: int = 4, budgets: Tuple[int, ...] = (0, 1, 2)
              ) -> VerifyReport:
    report = VerifyReport("q3", {"count": count, "seed": seed,
                                 "max_vars": max_vars, "max_clauses": max_clauses,
                                 "budgets": budgets})
    start = time.perf_counter()
    rng = random.Random(seed)
    produced = 0
    while produced < count:
        n = rng.randint(1, max_vars)
        phi = random_3cnf(rng, n, rng.randint(1, max_clauses))
        models = _truth_table_models(phi)
        if not models:
            continue
        bits = rng.choice(models)
        t = PartialAssignment.of({v: bits[v - 1] for v in range(1, n + 1)})
        instance = DefsetSatInstance(phi, t)
        k = budgets[produced % len(budgets)]
        art = reduce_q2_to_q3(instance, k)
        lhs = has_defining_set_within(instance, k)
        rhs = family_has_defining_set_within(art.output, k)
        produced += 1
        report.instances += 1
        if lhs != rhs:
            report.mismatches.append(
                f"phi={phi.clauses} t={t.bindings} k={k}: pair={lhs} family={rhs}")
    report.wall_time = time.perf_counter() - start
    return report


def verify_gphi(max_vars: int = 2, max_clauses: int = 2) -> VerifyReport:
    """The +4 law and the chromatic-number criterion, exhaustively over the
    small clause universe."""
    report = VerifyReport("gphi", {"max_vars": max_vars,
                                   "max_clauses": max_clauses,
                                   "universe": "non-tautological 3-literal clauses"})
    start = time.perf_counter()
    synthesize_clause_gadget()
    for n in range(1, max_vars + 1):
        for phi in enumerate_small_formulas(n, max_clauses):
            models = _truth_table_models(phi)
            if not models:
                chi = chromatic_number(build_g_phi(phi, None).graph)
                report.instances += 1
                if chi < 4:
                    report.mismatches.append(
                        f"unsat phi={phi.clauses}: chi(G)={chi} < 4")
                continue
            for bits in models:
                t = PartialAssignment.of(
                    {v: bits[v - 1] for v in range(1, n + 1)})
                art = build_g_phi(phi, t)
                report.instances += 1
                chi = chromatic_number(art.graph)
                if chi != 3:
                    report.mismatches.append(
                        f"sat phi={phi.clauses}: chi(G)={chi} != 3")
                    continue
                inst = DefsetColorInstance(art.graph, art.anchor)
                anchor = art.anchor.as_dict()
                wprimes = [v for v in anchor
                           if art.graph.label_of(v).startswith("w'")]
                if any(is_defining_coloring_set(
                        inst, {u: c for u, c in anchor.items() if u != v},
                        cap=64) for v in wprimes):
                    report.mismatches.append(
                        f"phi={phi.clauses} t={t.bindings}: some w' vertex "
                        f"avoidable in a defining set")
                    continue
                color_min, _ = min_defining_coloring_set(inst, cap=64)
                sat_min, _ = min_defining_set(DefsetSatInstance(phi, t))
                if color_min != sat_min + 4:
                    report.mismatches.append(
                        f"phi={phi.clauses} t={t.bindings}: "
                        f"coloring min {color_min} != sat min {sat_min} + 4")
    report.wall_time = time.perf_counter() - start
    return report


def random_chi3_graph(rng: random.Random, max_vertices: int = 6
                      ) -> Tuple[Graph, Coloring]:
    """Seeded random graph with chromatic number 3, plus one of its optimal
    colorings (chosen at random among the enumeration)."""
    while True:
        n = rng.randint(3, max_vertices)
        edges = set()
        # seed a triangle so chi >= 3 is reachable
        verts = list(range(n))
        rng.shuffle(verts)
        a, b, c = verts[:3]
        edges |= {(min(a, b), max(a, b)), (min(b, c), max(b, c)),
                  (min(a, c), max(a, c))}
        for u, v in itertools.combinations(range(n), 2):
            if rng.random() < 0.35:
                edges.add((u, v))
        g = Graph.of(n, sorted(edges))
        if chromatic_number(g) != 3:
            continue
        colorings = enumerate_colorings(g, chi=3)
        return g, colorings[rng.randrange(len(colorings))]


def verify_h(count: int = 20, seed: int = 2026, max_vertices: int = 6,
             budgets: Tuple[int, ...] = (0, 1)) -> VerifyReport:
    report = VerifyReport("h", {"count": count, "seed": seed,
                                "max_vertices": max_vertices, "budgets": budgets})
    start = time.perf_counter()
    rng = random.Random(seed)
    for i in range(count):
        g, c = random_chi3_graph(rng, max_vertices)
        k = budgets[i % len(budgets)]
        art = build_h(g, c, k)
        h = art.graph
        report.instances += 1
        if chromatic_number(h) != 3:
            report.mismatches.append(f"instance {i}: chi(H) != 3")
            continue
        wprimes = tuple(v for v in range(h.num_vertices)
                        if h.label_of(v).startswith("w'"))
        degs = [sum(1 for e in h.edges if v in e) for v in wprimes]
        if degs != [1, 1, 1, 1]:
            report.mismatches.append(f"instance {i}: w' degrees {degs}")
            continue
        lhs = has_defining_coloring_within(DefsetColorInstance(g, c), k)
        rhs = family_has_defining_coloring_within(h, k + 4, cap=64, chi=3)
        if lhs != rhs:
            report.mismatches.append(
                f"instance {i} (n={g.num_vertices}, k={k}): "
                f"pair={lhs} family={rhs}")
    report.wall_time = time.perf_counter() - start
    return report


VERIFIERS = {
    "mu": verify_mu,
    "cprime": verify_cprime,
    "q2": verify_q2,
    "q3": verify_q3,
    "gphi": verify_gphi,
    "h": verify_h,
}


def verify_reduction(name: str, **params) -> VerifyReport:
    if name not in VERIFIERS:
        raise ValueError(f"unknown reduction {name!r}; "
                         f"choose from {sorted(VERIFIERS)}")
    return VERIFIERS[name](**params)
