"""End-to-end acceptance suite.

Each test exercises one contract of the library at desk scale against an
independent brute-force oracle and prints a single pass/fail line (visible
with pytest -s or in captured output on failure).
"""

import functools
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from defsets.cnf import CnfFormula, PartialAssignment
from defsets.colordefs import (DefsetColorInstance, is_defining_coloring_set,
                               min_defining_coloring_set)
from defsets.graphs import Graph, chromatic_number, enumerate_colorings
from defsets.oracle import (VERIFIERS, first_proper_partial,
                            oracle_min_defset_coloring, oracle_min_defset_sat,
                            random_3cnf, random_chi3_graph, verify_reduction)
from defsets.satdefs import DefsetSatInstance, is_defining_set, min_defining_set

PA = PartialAssignment.of
ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "perfbench" / "golden"


@pytest.fixture(scope="session")
def verified():
    """verified(name) is the report of `verify_reduction(name)` at default
    parameters; each verifier runs at most once per session."""
    return functools.cache(verify_reduction)


def report(criterion: int, label: str, ok: bool) -> None:
    print(f"CRITERION {criterion} {label}: {'PASS' if ok else 'FAIL'}",
          file=sys.stderr)
    assert ok, f"criterion {criterion} ({label}) failed"


def test_criterion_1_gadget_tally(verified):
    r = verified("cprime")
    ok = r.ok and any("unique=15" in n and "none=1" in n for n in r.notes)
    report(1, "clause-gadget tally 15 unique / 1 none", ok)


def test_criterion_2_escape_literal_equivalence(verified):
    r = verified("mu")
    report(2, "exists-forall vs unique-extension equivalence", r.ok)


def test_criterion_3_pair_budget_reduction_law(verified):
    r = verified("q2")
    ok = r.ok and r.instances >= 200
    report(3, "pair-minimum reduction law on 200 seeded formulas", ok)


def test_criterion_4_family_budget_reduction_law(verified):
    r = verified("q3")
    ok = r.ok and r.instances >= 200
    report(4, "family-minimum padding law on 200 seeded formulas", ok)


def test_criterion_5_formula_graph_shift_law(verified):
    r = verified("gphi")
    report(5, "formula-graph +4 law and chromatic criterion", r.ok)


def test_criterion_6_padded_graph_shift_law(verified):
    r = verified("h")
    ok = r.ok and r.instances >= 20
    report(6, "anchor-erasing graph +4 law on 20 instances", ok)


def _seeded_sat_instances(count, max_vars, seed):
    rng = random.Random(seed)
    produced = 0
    while produced < count:
        n = rng.randint(2, max_vars)
        phi = random_3cnf(rng, n, rng.randint(1, 2 * n))
        anchor = first_proper_partial(phi, tuple(phi.variables))
        if anchor is None:
            continue
        produced += 1
        yield DefsetSatInstance(phi, anchor)


def test_criterion_7_solver_oracle_agreement():
    ok = True
    for inst in _seeded_sat_instances(500, max_vars=8, seed=70):
        if min_defining_set(inst)[0] != oracle_min_defset_sat(inst):
            ok = False
            break
    rng = random.Random(71)
    for _ in range(200):
        g, c = random_chi3_graph(rng, max_vertices=8)
        inst = DefsetColorInstance(g, c)
        if min_defining_coloring_set(inst)[0] != oracle_min_defset_coloring(inst):
            ok = False
            break
    report(7, "solver-oracle agreement (500 formulas, 200 graphs)", ok)


def test_criterion_8_reports_match_golden_copies(verified):
    # every default report is byte-identical to its committed golden copy
    ok = all(verified(name).text() == (GOLDEN / f"verify_{name}.txt").read_text()
             for name in VERIFIERS)
    # and so is the CLI's, from fresh interpreters under two hash seeds
    want = (GOLDEN / "verify_mu.txt").read_text()
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [str(ROOT / "src"),
                                 os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-m", "defsets.cli", "verify",
                              "mu"], capture_output=True, text=True, env=env)
        ok = ok and run.returncode == 0 and run.stdout == want
    report(8, "byte-identical reports: golden copies, fresh interpreters", ok)


def test_criterion_9_symmetry_floor():
    graphs = [
        Graph.of(2, [(0, 1)]),
        Graph.of(3, [(0, 1), (1, 2), (0, 2)]),
        Graph.of(4, [(0, 1), (0, 2), (0, 3)]),
        Graph.of(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
        Graph.of(5, [(i, (i + 1) % 5) for i in range(5)]),
        Graph.of(4, list(itertools.combinations(range(4), 2))),
    ]
    ok = True
    for g in graphs:
        assert chromatic_number(g) >= 2
        for anchor in enumerate_colorings(g):
            inst = DefsetColorInstance(g, anchor)
            if is_defining_coloring_set(inst, {}):
                ok = False
            if min_defining_coloring_set(inst)[0] < 1:
                ok = False
    # mirrored on the formula side: any formula with >= 2 models
    two = DefsetSatInstance(CnfFormula.of(2, [(1, 2)]), PA({1: True, 2: True}))
    if is_defining_set(two, PA({})) or min_defining_set(two)[0] < 1:
        ok = False
    report(9, "palette symmetry forces nonempty defining sets", ok)
