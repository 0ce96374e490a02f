"""Graph-side reductions: the per-clause 3-coloring gadget, the formula graph
with its canonical coloring, and the anchor-erasing padded graph.

The clause gadget is a frozen constant.  It was found once by bounded search
over edge sets extending a two-stage OR chain, and its behavioral contract
(EXTEND / FORCE / UNIQUE below) is re-verified exhaustively by the test suite
and on every import of the verifier.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .cnf import (CnfFormula, ContractViolation, PartialAssignment,
                  normalize_width)
from .graphs import Coloring, Graph, chromatic_number, is_proper

INTERIOR_TAGS = ("v1", "v2", "v3", "v4", "v5", "v6", "v7", "v8")
BOUNDARY_SLOTS = ("u1", "u2", "u3", "w0", "w1", "w2")


@dataclass(frozen=True)
class ClauseGadget:
    """A 3-coloring OR gadget with three literal slots and a triangle anchor.

    Interior colors use the palette {0,1,2}; literal slots carry 0 (false) or
    1 (true).  Contract, machine-checked by verify_clause_gadget:

      EXTEND  every slot coloring over {0,1} other than all-zero admits a
              proper interior extension;
      FORCE   with all slots zero there is no extension, and dropping the
              v8-w0 edge pins v8 to color 0;
      UNIQUE  whenever slot u2 is colored 1 the interior extension is unique,
              and it is the same coloring for every such slot combination.
    """

    internal_vertices: Tuple[str, ...]
    internal_edges: Tuple[Tuple[str, str], ...]
    boundary: Tuple[Tuple[str, str], ...]  # (interior tag, boundary slot)

    @property
    def canonical_interior(self) -> Dict[str, int]:
        return dict(CANONICAL_INTERIOR)


# Two chained OR stages (v1,v2 -> v3; v3,v5 -> v8) plus an indicator pair
# v6 = NOT(u2), v7 = copy of u2.  The v1-v6 / v5-v6 ties are what collapse
# the interior to a single coloring once u2 is colored 1.
FROZEN_GADGET = ClauseGadget(
    internal_vertices=INTERIOR_TAGS,
    internal_edges=(
        ("v1", "v2"), ("v1", "v3"), ("v2", "v3"),
        ("v3", "v4"), ("v4", "v5"), ("v4", "v8"), ("v5", "v8"),
        ("v6", "v7"), ("v1", "v6"), ("v5", "v6"),
    ),
    boundary=(
        ("v1", "u1"), ("v2", "u2"), ("v5", "u3"), ("v6", "u2"),
        ("v3", "w2"), ("v6", "w2"), ("v7", "w2"),
        ("v8", "w0"), ("v8", "w2"),
    ),
)

# interior coloring forced whenever slot u2 is colored 1
CANONICAL_INTERIOR: Tuple[Tuple[str, int], ...] = (
    ("v1", 2), ("v2", 0), ("v3", 1), ("v4", 0),
    ("v5", 2), ("v6", 0), ("v7", 1), ("v8", 1),
)


@functools.cache
def synthesize_clause_gadget() -> ClauseGadget:
    """The shipped gadget, contract-verified (once per process) before it is
    handed out."""
    report = verify_clause_gadget(FROZEN_GADGET)
    if report["mismatches"]:
        raise AssertionError(f"frozen gadget fails its contract: {report}")
    return FROZEN_GADGET


def _gadget_extensions(gadget: ClauseGadget, slots: Dict[str, int],
                       drop_w0_edge: bool = False) -> List[Dict[str, int]]:
    """All proper interior colorings for fixed slot colors (w's at 0,1,2),
    lexicographic in the interior color vector.  Exhaustive: partial
    colorings grow one interior vertex at a time, in tag order."""
    tags = gadget.internal_vertices
    at = {tag: i for i, tag in enumerate(tags)}
    # an edge is checked once its later interior end is colored; an edge
    # between two fixed vertices (index -1) at the last interior vertex
    checks: List[List[Tuple[str, str]]] = [[] for _ in tags]
    for a, b in gadget.internal_edges + gadget.boundary:
        if not (drop_w0_edge and (a, b) == ("v8", "w0")):
            checks[max(at.get(a, -1), at.get(b, -1))].append((a, b))
    partial = [{"w0": 0, "w1": 1, "w2": 2, **slots}]
    for tag, edges in zip(tags, checks):
        partial = [col for part in partial
                   for col in ({**part, tag: c} for c in range(3))
                   if all(col[a] != col[b] for a, b in edges)]
    return [{tag: col[tag] for tag in tags} for col in partial]


def verify_clause_gadget(gadget: ClauseGadget) -> Dict[str, object]:
    """Exhaustive contract check.  Returns a tally report; mismatches lists
    every violated case."""
    mismatches: List[str] = []
    unique_interiors = set()
    extendable = 0
    for c1, c2, c3 in itertools.product([0, 1], repeat=3):
        slots = {"u1": c1, "u2": c2, "u3": c3}
        exts = _gadget_extensions(gadget, slots)
        if (c1, c2, c3) == (0, 0, 0):
            if exts:
                mismatches.append("FORCE: all-zero slots are extendable")
            relaxed = _gadget_extensions(gadget, slots, drop_w0_edge=True)
            if not relaxed:
                mismatches.append("FORCE: relaxed gadget is uncolorable")
            if any(e["v8"] != 0 for e in relaxed):
                mismatches.append("FORCE: v8 not pinned to 0 at all-zero slots")
            continue
        if not exts:
            mismatches.append(f"EXTEND: no extension at slots {(c1, c2, c3)}")
            continue
        extendable += 1
        if c2 == 1:
            if len(exts) != 1:
                mismatches.append(
                    f"UNIQUE: {len(exts)} extensions at slots {(c1, c2, c3)}")
            unique_interiors.add(tuple(sorted(exts[0].items())))
    if len(unique_interiors) != 1:
        mismatches.append("UNIQUE: interior varies across u2=1 slot combinations")
    elif next(iter(unique_interiors)) != tuple(sorted(CANONICAL_INTERIOR)):
        mismatches.append("UNIQUE: interior differs from the frozen canonical one")
    return {"extendable": extendable, "mismatches": mismatches}


@dataclass(frozen=True)
class ColoringArtifact:
    graph: Graph
    anchor: Optional[Coloring]
    budget_out: Optional[int] = None

    def provenance_text(self) -> str:
        out = []
        for v in range(self.graph.num_vertices):
            out.append(f"vertex {v} role {self.graph.label_of(v)}\n")
        return "".join(out)


def _rotate_clause(clause: Tuple[int, ...], t: Dict[int, bool]) -> Tuple[int, ...]:
    """Cyclic rotation placing the first true literal in the middle slot."""
    for j, lit in enumerate(clause):
        if t[abs(lit)] == (lit > 0):
            return (clause[(j + 2) % 3], clause[j], clause[(j + 1) % 3])
    raise ContractViolation(f"clause {clause} has no true literal under the anchor")


def build_g_phi(phi: CnfFormula,
                t: Optional[PartialAssignment]) -> ColoringArtifact:
    """Formula graph: anchor triangle, four pendant tiebreakers, a literal
    vertex pair per variable, and one frozen clause gadget per clause.
    Returns the graph with its canonical coloring c_t.  With t None (say,
    for an unsatisfiable formula) clause slots keep their file order
    instead of rotating onto a true literal, and there is no coloring."""
    if phi.width > 3:
        raise ContractViolation(f"input must be 3CNF, got width {phi.width}")
    if t is not None and set(t.support) != set(phi.variables):
        raise ContractViolation("anchor must be total")
    tmap = {} if t is None else t.as_dict()
    phi3 = normalize_width(phi, 3)

    labels: Dict[int, str] = {}
    colors: Dict[int, int] = {}
    edges = set()
    next_v = 0

    def add_vertex(label: str, color: int) -> int:
        nonlocal next_v
        v = next_v
        next_v += 1
        labels[v] = label
        colors[v] = color
        return v

    def add_edge(a: int, b: int) -> None:
        edges.add((min(a, b), max(a, b)))

    w = [add_vertex(f"w{i}", i) for i in range(3)]
    add_edge(w[0], w[1]); add_edge(w[1], w[2]); add_edge(w[0], w[2])
    wp_colors = [1, 2, 0, 2]
    wp = [add_vertex(f"w'{i + 1}", wp_colors[i]) for i in range(4)]
    add_edge(wp[0], w[0]); add_edge(wp[1], w[0])
    add_edge(wp[2], w[1]); add_edge(wp[3], w[1])

    upos: Dict[int, int] = {}
    uneg: Dict[int, int] = {}
    for x in phi.variables:
        cx = 1 if tmap.get(x) else 0
        upos[x] = add_vertex(f"u_x{x}", cx)
        uneg[x] = add_vertex(f"u_~x{x}", 1 - cx)
        add_edge(upos[x], uneg[x])
        add_edge(upos[x], w[2])
        add_edge(uneg[x], w[2])

    gadget = synthesize_clause_gadget()
    canon = dict(CANONICAL_INTERIOR)
    for ci, clause in enumerate(phi3.clauses, start=1):
        a1, a2, a3 = clause if t is None else _rotate_clause(clause, tmap)
        slot_vertex = {}
        for slot, lit in (("u1", a1), ("u2", a2), ("u3", a3)):
            slot_vertex[slot] = upos[abs(lit)] if lit > 0 else uneg[abs(lit)]
        slot_vertex.update({"w0": w[0], "w1": w[1], "w2": w[2]})
        interior = {tag: add_vertex(f"c{ci}-{tag}", canon[tag])
                    for tag in gadget.internal_vertices}
        for a, b in gadget.internal_edges:
            add_edge(interior[a], interior[b])
        for tag, slot in gadget.boundary:
            add_edge(interior[tag], slot_vertex[slot])

    g = Graph.of(next_v, sorted(edges), labels)
    if t is None:
        return ColoringArtifact(g, None)
    anchor = Coloring.of(colors, next_v)
    if not is_proper(g, anchor.as_dict()):
        raise ContractViolation("constructed coloring c_t is not proper")
    return ColoringArtifact(g, anchor)


def build_h(g: Graph, c: Coloring, k: int) -> ColoringArtifact:
    """Anchor-erasing padding: disjoint triangle, k+1 pendant pairs per
    vertex and wrong color, four degree-one tiebreakers.  The family minimum
    of the result tracks the pair minimum of (g, c) shifted by 4."""
    if k < 0:
        raise ContractViolation("budget must be nonnegative")
    if chromatic_number(g) != 3:
        raise ContractViolation("build_h requires a graph with chromatic number 3")
    cmap = c.as_dict()
    if not is_proper(g, cmap):
        raise ContractViolation("coloring is not proper")
    if any(col not in (0, 1, 2) for col in cmap.values()):
        raise ContractViolation("coloring must use palette {0,1,2}")

    labels: Dict[int, str] = {v: g.label_of(v) for v in range(g.num_vertices)}
    edges = set((min(a, b), max(a, b)) for a, b in g.edges)
    next_v = g.num_vertices

    def add_vertex(label: str) -> int:
        nonlocal next_v
        v = next_v
        next_v += 1
        labels[v] = label
        return v

    def add_edge(a: int, b: int) -> None:
        edges.add((min(a, b), max(a, b)))

    w = [add_vertex(f"w{i}") for i in range(3)]
    add_edge(w[0], w[1]); add_edge(w[1], w[2]); add_edge(w[0], w[2])
    for u in range(g.num_vertices):
        for cj in sorted(set(range(3)) - {cmap[u]}):
            for s in range(1, k + 2):
                p = add_vertex(f"pad-{u}-{cj}-{s}")
                add_edge(p, u)
                add_edge(p, w[cj])
    wp = [add_vertex(f"w'{i + 1}") for i in range(4)]
    add_edge(wp[0], w[0]); add_edge(wp[1], w[0])
    add_edge(wp[2], w[1]); add_edge(wp[3], w[1])

    h = Graph.of(next_v, sorted(edges), labels)
    return ColoringArtifact(h, None, budget_out=k + 4)
