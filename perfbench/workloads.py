"""Seeded instance generators and independent reference answers.

Nothing here imports `defsets`: inputs come from the benchmark's own
generators (so a change under `src/` cannot change them) and every expected
answer comes from a truth table or a colour-product sweep over bitmasks,
never from the solver under test.

A workload is an endless stream of identical-shaped *rounds*; round `i` of
seed `s` is a pure function of `(workload, s, i)`.  A run answers rounds
until its time is up, so faster code answers more of the same stream.
"""

from __future__ import annotations

import functools
import itertools
import random
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

HINT_LIMIT = 100  # the CLI's model_count_hint enumerates at most this many
RECORD_SPLIT = re.compile(r" (?=[a-z_]+=)")
VERIFY_NAMES = ("mu", "cprime", "q2", "q3", "gphi", "h")


@dataclass(frozen=True)
class Workload:
    jobs: int
    sizes: Dict[str, str]
    # rounds one worker process may answer; verify-chain's rounds are all the
    # same fixed pass, so each gets a fresh worker
    rounds_per_worker: Optional[int] = None


WORKLOADS = {
    "sat-min": Workload(
        jobs=1,
        sizes={"check": "4 per round, a yes and a no on each of: 14 vars with "
                        "28 clauses (100-2000 models) / 56 clauses (2-40)",
               "min": "2 per round, 11 vars: 22 clauses (40-400 models, "
                      "min 5-6) / 44 clauses (2-30 models, min 1-3)",
               "family-min": "2 per round, 7 vars, 14 clauses, 8-24 models"},
    ),
    "color-min": Workload(
        jobs=1,
        sizes={"check": "4 per round, a yes and a no on each of: 12 vertices, "
                        "p=0.35 (300-3000 colorings) / p=0.6 (12-300)",
               "min": "2 per round, 12 vertices: p=0.35 (300-3000 colorings, "
                      "min 7-8) / p=0.6 (12-300 colorings)",
               "family-min": "1 per round, 7 vertices, p=0.5, 40-80 colorings"},
    ),
    "verify-chain": Workload(
        jobs=2,
        sizes={"verify": "one pass: mu cprime q2 q3 gphi h at their default "
                         "seeds, in seeded order"},
        rounds_per_worker=1),
}


@dataclass
class Command:
    """One CLI invocation with the files it reads and its reference answer."""

    kind: str                 # check | min | family-min | verify
    argv: List[str]           # arguments after the files are placed
    files: Dict[str, str]     # file name -> contents
    exit_code: int
    expect: Dict[str, str] = field(default_factory=dict)  # record fields
    anchor: Optional[str] = None  # sat family-min: expected "anchor:" line
    report: Optional[str] = None  # verify: expected report text


# ---------------------------------------------------------------------------
# minimum defining sets over a family of position vectors

def min_hitting_set(diffs: List[int], n: int) -> Tuple[int, ...]:
    """Lexicographically first smallest position set meeting every nonzero
    difference mask (positions 0..n-1).  A set S fixes the anchor iff no
    other member differs from it only outside S."""
    # bit T of `within` is set iff some difference mask is a subset of T;
    # the subset-sum closure runs one big-int shift per position
    within = 0
    for d in diffs:
        within |= 1 << d
    cols = sat_columns(n)
    everything = (1 << (1 << n)) - 1
    for p in range(n):
        within |= (within & (everything ^ cols[p + 1])) << (1 << p)
    full = (1 << n) - 1
    for size in range(n + 1):
        for combo in itertools.combinations(range(n), size):
            mask = 0
            for p in combo:
                mask |= 1 << p
            if not (within >> (full ^ mask)) & 1:
                return combo
    raise AssertionError("the full position set always hits every mask")


# ---------------------------------------------------------------------------
# CNF side: truth tables as Python big-int bitsets over all 2^n assignments

@functools.cache
def sat_columns(n: int) -> List[int]:
    """cols[v] has bit a set iff variable v is true in assignment a, where
    bit v-1 of a holds the value of variable v."""
    total = 1 << n
    cols = [0]
    for v in range(1, n + 1):
        half = 1 << (v - 1)
        cols.append(int(("1" * half + "0" * half) * (total // (2 * half)), 2))
    return cols


def sat_models(n: int, clauses, cols: List[int]) -> int:
    full = (1 << (1 << n)) - 1
    table = full
    for clause in clauses:
        c = 0
        for lit in clause:
            c |= cols[lit] if lit > 0 else full ^ cols[-lit]
        table &= c
    return table


def bits_of(x: int) -> List[int]:
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return out


def agreeing(table: int, n: int, cols: List[int], fixed: Dict[int, bool]) -> int:
    full = (1 << (1 << n)) - 1
    for v, b in fixed.items():
        table &= cols[v] if b else full ^ cols[v]
    return table


def lits(variables, model: int) -> List[int]:
    return [v if (model >> (v - 1)) & 1 else -v for v in variables]


def fmt_lits(literals) -> str:
    return " ".join(str(l) for l in list(literals) + [0])


def random_3cnf(rng: random.Random, n: int, m: int) -> List[Tuple[int, int, int]]:
    clauses = []
    for _ in range(m):
        vs = rng.sample(range(1, n + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return clauses


def cnf_text(n: int, clauses) -> str:
    return "".join([f"p cnf {n} {len(clauses)}\n"]
                   + [" ".join(map(str, c)) + " 0\n" for c in clauses])


def sat_pair_min(n: int, models: List[int], anchor: int) -> Tuple[int, ...]:
    """Canonical witness (0-based positions) of (family, anchor)."""
    return min_hitting_set([m ^ anchor for m in models if m != anchor], n)


def _sat_formula(rng, n, m, lo, hi, cols, min_band=None):
    """Rejection-sample a formula whose model count lies in [lo, hi] (and,
    with min_band, an anchor whose minimum lies in it)."""
    while True:
        clauses = random_3cnf(rng, n, m)
        table = sat_models(n, clauses, cols)
        count = table.bit_count()
        if not lo <= count <= hi:
            continue
        models = bits_of(table)
        anchor = models[rng.randrange(len(models))]
        if min_band is None:
            return clauses, table, models, anchor, None
        witness = sat_pair_min(n, models, anchor)
        if min_band[0] <= len(witness) <= min_band[1]:
            return clauses, table, models, anchor, witness


def sat_checks(rng, n, m, lo, hi) -> List[Command]:
    """A "yes" and a "no" check on one formula and anchor: grow a restriction
    of the anchor along a random order until it defines the anchor, then
    drop the last variable added."""
    cols = sat_columns(n)
    clauses, table, _, anchor, _ = _sat_formula(rng, n, m, lo, hi, cols)
    order = list(range(1, n + 1))
    rng.shuffle(order)
    fixed: Dict[int, bool] = {}
    for v in order:
        if agreeing(table, n, cols, fixed).bit_count() == 1:
            break
        fixed[v] = bool((anchor >> (v - 1)) & 1)
    shrunk = dict(fixed)
    if shrunk:  # with a single model only the "yes" check exists
        del shrunk[list(shrunk)[-1]]
    out = []
    for cand in (fixed, shrunk):
        count = agreeing(table, n, cols, cand).bit_count()
        answer = "yes" if count == 1 else "no"
        out.append(Command(
            "check", ["sat", "check", "F", "A", "C"],
            {"F": cnf_text(n, clauses),
             "A": fmt_lits(lits(range(1, n + 1), anchor)),
             "C": fmt_lits(sorted((v if b else -v for v, b in cand.items()),
                                  key=abs))},
            0 if answer == "yes" else 1,
            {"question": "sat-check", "answer": answer,
             "model_count_hint": str(min(count, HINT_LIMIT))}))
    return out


def sat_min(rng, n, m, lo, hi, min_band) -> Command:
    cols = sat_columns(n)
    clauses, _, models, anchor, witness = _sat_formula(
        rng, n, m, lo, hi, cols, min_band)
    wvars = [p + 1 for p in witness]
    return Command(
        "min", ["sat", "min", "F", "A"],
        {"F": cnf_text(n, clauses), "A": fmt_lits(lits(range(1, n + 1), anchor))},
        0,
        {"question": "sat-min", "answer": "yes", "min_size": str(len(witness)),
         "witness": fmt_lits(lits(wvars, anchor)),
         "model_count_hint": str(min(len(models), HINT_LIMIT))})


def sat_family_min(rng, n, m, lo, hi) -> Command:
    cols = sat_columns(n)
    clauses, _, models, _, _ = _sat_formula(rng, n, m, lo, hi, cols)
    best = None
    for anchor in models:
        wvars = [p + 1 for p in sat_pair_min(n, models, anchor)]
        # the CLI's tie-break: (size, witness bindings, anchor bindings)
        key = (len(wvars), tuple((v, bool((anchor >> (v - 1)) & 1)) for v in wvars),
               tuple(bool((anchor >> (v - 1)) & 1) for v in range(1, n + 1)))
        if best is None or key < best[0]:
            best = (key, anchor, wvars)
    _, anchor, wvars = best
    return Command(
        "family-min", ["sat", "family-min", "F"], {"F": cnf_text(n, clauses)},
        0,
        {"question": "sat-family-min", "answer": "yes",
         "min_size": str(len(wvars)), "witness": fmt_lits(lits(wvars, anchor)),
         "model_count_hint": str(min(len(models), HINT_LIMIT))},
        anchor=fmt_lits(lits(range(1, n + 1), anchor)))


# ---------------------------------------------------------------------------
# coloring side: colour-product sweep with pruning on earlier neighbours

def all_colorings(n: int, edges, k: int) -> List[Tuple[int, ...]]:
    earlier = [[u for u, v in edges if v == w] for w in range(n)]  # u < v
    partial: List[Tuple[int, ...]] = [()]
    for back in earlier:
        grown = []
        for p in partial:
            used = {p[u] for u in back}
            grown.extend(p + (c,) for c in range(k) if c not in used)
        partial = grown
    return partial


def planted_graph(rng, n, p, lo, hi):
    """Planted 3-partition with cross edges at density p; keep graphs with
    an odd cycle (so chi = 3) and a coloring count in [lo, hi]."""
    while True:
        part = [rng.randrange(3) for _ in range(n)]
        edges = [(u, v) for u, v in itertools.combinations(range(n), 2)
                 if part[u] != part[v] and rng.random() < p]
        if not edges or all_colorings(n, edges, 2):
            continue
        family = all_colorings(n, edges, 3)
        if lo <= len(family) <= hi:
            return edges, family


def graph_text(n: int, edges) -> str:
    return "".join([f"p edge {n} {len(edges)}\n"]
                   + [f"e {u + 1} {v + 1}\n" for u, v in edges])


def coloring_text(items) -> str:
    return "".join(f"v {v + 1} {c}\n" for v, c in items)


def color_diffs(family, anchor) -> List[int]:
    out = set()
    for c in family:
        d = 0
        for v, (x, y) in enumerate(zip(c, anchor)):
            if x != y:
                d |= 1 << v
        out.add(d)
    out.discard(0)
    return list(out)


def color_checks(rng, n, p, lo, hi) -> List[Command]:
    """A "yes" and a "no" check on one graph and anchor, built as on the
    SAT side."""
    edges, family = planted_graph(rng, n, p, lo, hi)
    anchor = family[rng.randrange(len(family))]
    order = list(range(n))
    rng.shuffle(order)
    fixed: Dict[int, int] = {}
    members = family
    for v in order:
        if len(members) == 1:
            break
        fixed[v] = anchor[v]
        members = [c for c in members if c[v] == anchor[v]]
    shrunk = dict(fixed)
    if shrunk:
        del shrunk[list(shrunk)[-1]]
    out = []
    for cand in (fixed, shrunk):
        count = sum(all(c[v] == x for v, x in cand.items()) for c in family)
        answer = "yes" if count == 1 else "no"
        out.append(Command(
            "check", ["color", "check", "G", "K", "C"],
            {"G": graph_text(n, edges), "K": coloring_text(enumerate(anchor)),
             "C": coloring_text(sorted(cand.items()))},
            0 if answer == "yes" else 1,
            {"question": "color-check", "answer": answer}))
    return out


def color_witness(n, family, anchor) -> Tuple[int, ...]:
    return min_hitting_set(color_diffs(family, anchor), n)


def color_min(rng, n, p, lo, hi, min_band) -> Command:
    while True:
        edges, family = planted_graph(rng, n, p, lo, hi)
        anchor = family[rng.randrange(len(family))]
        witness = color_witness(n, family, anchor)
        if min_band[0] <= len(witness) <= min_band[1]:
            break
    return Command(
        "min", ["color", "min", "G", "K"],
        {"G": graph_text(n, edges), "K": coloring_text(enumerate(anchor))},
        0,
        {"question": "color-min", "answer": "yes", "min_size": str(len(witness)),
         "witness": " ".join(f"{v}:{anchor[v]}" for v in witness)})


def color_family_min(rng, n, p, lo, hi) -> Command:
    edges, family = planted_graph(rng, n, p, lo, hi)
    best = None
    for anchor in family:
        witness = color_witness(n, family, anchor)
        key = (len(witness), tuple((v, anchor[v]) for v in witness), anchor)
        if best is None or key < best:
            best = key
    size, items, _ = best
    return Command(
        "family-min", ["color", "family-min", "G"], {"G": graph_text(n, edges)},
        0,
        {"question": "color-family-min", "answer": "yes", "min_size": str(size),
         "witness": " ".join(f"{v}:{c}" for v, c in items)})


# ---------------------------------------------------------------------------
# rounds

def _rng(workload: str, seed: int, index: int) -> random.Random:
    # string seeds hash deterministically (sha512) across processes
    return random.Random(f"{workload}/{seed}/{index}")


def make_round(workload: str, seed: int, index: int,
               golden: Optional[Dict[str, str]] = None) -> List[Command]:
    """The commands of round `index` of a workload, with reference answers.
    Negative indices give warm-up rounds, disjoint from the pool."""
    rng = _rng(workload, seed, index)
    if workload == "sat-min":
        return [*sat_checks(rng, 14, 28, 100, 2000),
                *sat_checks(rng, 14, 56, 2, 40),
                sat_min(rng, 11, 22, 40, 400, (5, 6)),
                sat_min(rng, 11, 44, 2, 30, (1, 3)),
                sat_family_min(rng, 7, 14, 8, 24),
                sat_family_min(rng, 7, 14, 8, 24)]
    if workload == "color-min":
        return [*color_checks(rng, 12, 0.35, 300, 3000),
                *color_checks(rng, 12, 0.6, 12, 300),
                color_min(rng, 12, 0.35, 300, 3000, (7, 8)),
                color_min(rng, 12, 0.6, 12, 300, (1, 12)),  # any minimum
                color_family_min(rng, 7, 0.5, 40, 80)]
    if workload == "verify-chain":
        if index < 0:  # warm-up: q2 at a seed that is never a default seed
            return [Command("verify", ["verify", "q2", "--seed",
                                       str(5000 + seed % 1000)], {}, 0)]
        names = list(VERIFY_NAMES)
        rng.shuffle(names)
        return [Command("verify", ["verify", name], {}, 0,
                        report=None if golden is None else golden[name])
                for name in names]
    raise KeyError(workload)


def is_heavy(cmd: Command) -> bool:
    """Heavy commands: the minimizers, and `verify h` on verify-chain."""
    return cmd.kind in ("min", "family-min") or cmd.argv[:2] == ["verify", "h"]


def check_output(cmd: Command, code: Optional[int], out: str) -> Optional[str]:
    """None when the CLI's answer matches the reference, else the reason."""
    if code != cmd.exit_code:
        return f"exit code {code}, want {cmd.exit_code}"
    if cmd.kind == "verify":
        if cmd.report is not None and out != cmd.report:
            return "verify report differs from the reference"
        return None
    lines = out.splitlines()
    if not lines:
        return "no output"
    fields = dict(part.split("=", 1) for part in RECORD_SPLIT.split(lines[0])
                  if "=" in part)
    for key, want in cmd.expect.items():
        # the count hint is optional output; the answer fields are not
        if key == "model_count_hint" and key not in fields:
            continue
        if fields.get(key) != want:
            return f"{key}={fields.get(key)!r}, want {want!r}"
    if cmd.anchor is not None and lines[1:2] != [f"anchor: {cmd.anchor}"]:
        return f"anchor line {lines[1:2]}, want {cmd.anchor!r}"
    return None
