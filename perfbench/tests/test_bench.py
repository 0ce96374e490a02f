"""Tests of the benchmark itself: its references, its failure accounting and
the metric names it emits.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import itertools
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads as w  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _shrink_verify(commands):
    """verify-chain without its two slowest verifiers, for a quick smoke."""
    return [c for c in commands if c.argv[1] not in ("h", "q3")]


def _answer(workload, trace=0, mutate=None):
    if workload == "verify-chain" and mutate is None:
        mutate = _shrink_verify
    return run.answer(workload, 3, 0.0, trace, rounds=1, mutate=mutate)


def test_min_hitting_set_matches_naive_sweep():
    rng = random.Random(0)
    for _ in range(300):
        n = rng.randint(1, 7)
        diffs = [rng.randrange(1, 1 << n) for _ in range(rng.randint(0, 6))]
        naive = next(combo for size in range(n + 1)
                     for combo in itertools.combinations(range(n), size)
                     if all(d & sum(1 << p for p in combo) for d in diffs))
        assert w.min_hitting_set(diffs, n) == naive


def test_references_agree_with_the_oracles():
    from defsets.cnf import CnfFormula, PartialAssignment
    from defsets.colordefs import DefsetColorInstance
    from defsets.graphs import Coloring, Graph
    from defsets.oracle import (oracle_min_defset_coloring,
                                oracle_min_defset_sat)
    from defsets.satdefs import DefsetSatInstance

    rng = random.Random(1)
    for _ in range(30):
        n = rng.randint(3, 9)
        cols = w.sat_columns(n)
        clauses, _, models, anchor, _ = w._sat_formula(rng, n, 2 * n, 1, 1 << n,
                                                       cols)
        inst = DefsetSatInstance(CnfFormula.of(n, clauses), PartialAssignment.of(
            {v: bool((anchor >> (v - 1)) & 1) for v in range(1, n + 1)}))
        assert len(w.sat_pair_min(n, models, anchor)) == \
            oracle_min_defset_sat(inst)
    for _ in range(20):
        n = rng.randint(4, 9)
        edges, family = w.planted_graph(rng, n, 0.5, 1, 10 ** 6)
        anchor = family[rng.randrange(len(family))]
        inst = DefsetColorInstance(Graph.of(n, edges), Coloring(anchor))
        assert len(w.color_witness(n, family, anchor)) == \
            oracle_min_defset_coloring(inst)


def test_rounds_are_a_function_of_the_seed():
    for workload in ("sat-min", "color-min"):
        a, b = w.make_round(workload, 5, 2), w.make_round(workload, 5, 2)
        assert [c.files for c in a] == [c.files for c in b]
        assert [c.files for c in a] != [c.files for c in w.make_round(workload, 6, 2)]


@pytest.mark.parametrize("workload", ["sat-min", "color-min", "verify-chain"])
def test_seed_code_answers_every_command(workload):
    result = _answer(workload)
    assert result["records"] and all(ok for *_, ok in result["records"]), \
        result["failures"]


@pytest.mark.parametrize("workload,field", [("sat-min", "min_size"),
                                            ("sat-min", "model_count_hint"),
                                            ("color-min", "witness")])
def test_corrupted_reference_counts_as_failure(workload, field):
    def corrupt(commands):
        target = next(c for c in commands if field in c.expect)
        target.expect[field] += "0"
        return commands

    result = _answer(workload, mutate=corrupt)
    assert run.by_kind(result)["fail_frac"] > 0


def test_corrupted_verify_report_counts_as_failure():
    def corrupt(commands):
        commands = _shrink_verify(commands)
        for cmd in commands:  # the warm-up command carries no reference
            if cmd.report is not None:
                cmd.report = cmd.report.replace("mismatches=0", "mismatches=1")
        return commands

    result = _answer("verify-chain", mutate=corrupt)
    assert run.by_kind(result)["fail_frac"] > 0


@pytest.mark.parametrize("workload", ["sat-min", "color-min", "verify-chain"])
def test_smoke_pool_emits_every_metric(workload):
    def keep_heavy(commands):  # verify h is verify-chain's heavy command
        return [c for c in commands if c.argv[1] != "q3"]

    mutate = keep_heavy if workload == "verify-chain" else None
    e2e = run.end_to_end(_answer(workload, mutate=mutate), setup_s=0.1)
    assert set(e2e) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value, _ in e2e.values())
    traced = _answer(workload, trace=1)
    layers = set(traced["layers"]) | {"trace.speed_ratio"}
    assert layers == {m["name"] for m in SPEC["per_layer"]}


def test_layers_stay_on_their_side():
    sat = _answer("sat-min", trace=1)["layers"]
    color = _answer("color-min", trace=1)["layers"]
    for name, value in sat.items():
        if name.startswith(("graphs.", "colordefs.", "colorreduce.")):
            assert value == 0, name
    for name, value in color.items():
        if name.startswith(("cnf.", "satdefs.", "satreduce.")):
            assert value == 0, name
    assert sat["cnf.evaluate.calls"] > sat["cnf.queries"] > 0
    assert color["graphs.queries"] > 0 and color["graphs.chi.calls"] > 0


def test_run_prints_the_contract_line():
    for trace in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", "sat-min",
             "--seed", "4", "--seconds", "0.01", "--trace", trace],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        assert proc.returncode == 0, proc.stderr
        line = json.loads(proc.stdout.splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
        kind = "per_layer" if trace == "1" else "end_to_end"
        assert set(line["metrics"]) == {m["name"] for m in SPEC[kind]}


def test_run_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sat-min", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
