"""Defining-set checkers and exact minimizers over optimal graph colorings.

Mirrors the SAT-side solvers: the family is the set of all chi(G)-colorings
(labeled, so color permutations are distinct members), the anchor is one of
them, and candidates are restrictions of the anchor.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from .cnf import ContractViolation
from .core import (CapExceeded, diff_mask, family_first_hitting_set,
                   first_hitting_set)
from .graphs import (Coloring, Graph, chromatic_number, count_colorings,
                     enumerate_colorings, is_proper)

DEFAULT_VERTEX_CAP = 24


@dataclass(frozen=True)
class DefsetColorInstance:
    graph: Graph
    anchor: Coloring
    budget: Optional[int] = None
    chi: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.anchor.colors) != self.graph.num_vertices:
            raise ContractViolation("anchor does not cover the vertex set")
        if not is_proper(self.graph, self.anchor.as_dict()):
            raise ContractViolation("anchor coloring is not proper")
        chi = chromatic_number(self.graph)
        if self.anchor.colors and max(self.anchor.colors) >= chi:
            raise ContractViolation(
                f"anchor uses colors outside the optimal palette [0,{chi - 1}]")
        if min(self.anchor.colors, default=0) < 0:
            raise ContractViolation("negative color in anchor")
        object.__setattr__(self, "chi", chi)


def _check_cap(n: int, cap: int) -> None:
    if n > cap:
        raise CapExceeded(
            f"graph has {n} vertices, above the cap of {cap}; "
            f"raise the cap explicitly if you really want this")


def is_defining_coloring_set(instance: DefsetColorInstance,
                             candidate: Dict[int, int],
                             cap: int = DEFAULT_VERTEX_CAP) -> bool:
    """True iff the anchor is the unique optimal coloring extending candidate."""
    _check_cap(instance.graph.num_vertices, cap)
    if not instance.anchor.extends(candidate):
        raise ContractViolation("candidate conflicts with the anchor")
    hits = enumerate_colorings(instance.graph, candidate, limit=2,
                               chi=instance.chi)
    return len(hits) == 1


def _pair_witness(instance: DefsetColorInstance,
                  upper: Optional[int] = None) -> Optional[Dict[int, int]]:
    """Canonical defining set within `upper`; each query asks for one
    optimal coloring other than the anchor."""
    anchor = instance.anchor.colors

    def counterexample(mask: int) -> Optional[int]:
        fixed = {v: c for v, c in enumerate(anchor) if mask >> v & 1}
        others = enumerate_colorings(instance.graph, fixed, limit=2,
                                     chi=instance.chi)
        return next((d for d in (diff_mask(o.colors, anchor, range(len(anchor)))
                                 for o in others) if d), None)

    verts = first_hitting_set(range(len(anchor)), counterexample, upper=upper)
    return None if verts is None else {v: anchor[v] for v in verts}


def min_defining_coloring_set(instance: DefsetColorInstance,
                              cap: int = DEFAULT_VERTEX_CAP
                              ) -> Tuple[int, Dict[int, int]]:
    """Smallest defining set of (colorings, anchor): size plus the canonical
    witness (lexicographically smallest vertex subset of that size)."""
    _check_cap(instance.graph.num_vertices, cap)
    witness = _pair_witness(instance)
    return len(witness), witness


def has_defining_coloring_within(instance: DefsetColorInstance, k: int,
                                 cap: int = DEFAULT_VERTEX_CAP) -> bool:
    """Decision form of Q2 for colorings."""
    _check_cap(instance.graph.num_vertices, cap)
    return _pair_witness(instance, upper=k) is not None


def family_has_defining_coloring_within(g: Graph, k: int,
                                        cap: int = DEFAULT_VERTEX_CAP,
                                        chi: Optional[int] = None) -> bool:
    """Decision form of Q3 for colorings: sweep partial colorings directly.
    A partial coloring with exactly one proper optimal extension is a
    defining set of that extension.

    A vertex of degree at most chi-2 lies in every defining set of every
    member: its neighbors block at most chi-2 colors, so a color other than
    its own is left to recolor it with.  Only subsets containing these
    vertices are swept, which keeps padded instances tractable."""
    _check_cap(g.num_vertices, cap)
    if chi is None:
        chi = chromatic_number(g)
    adj = g.adjacency()
    req = tuple(v for v in range(g.num_vertices) if len(adj[v]) <= chi - 2)
    if len(req) > k:
        return False
    rest = [v for v in range(g.num_vertices) if v not in req]
    for extra in range(min(k - len(req), len(rest)) + 1):
        for combo in itertools.combinations(rest, extra):
            verts = req + combo
            for cols in itertools.product(range(chi), repeat=len(verts)):
                cand = dict(zip(verts, cols))
                if not is_proper(g, cand):
                    continue
                if count_colorings(g, cand, limit=2, chi=chi) == 1:
                    return True
    return False


def min_defining_coloring_family(g: Graph, cap: int = DEFAULT_VERTEX_CAP
                                 ) -> Tuple[int, Coloring, Dict[int, int]]:
    """Minimum of min_defining_coloring_set over all optimal colorings.
    Ties broken lexicographically on (witness items, anchor vector).
    The family is enumerated once and asked no further queries."""
    _check_cap(g.num_vertices, cap)
    chi = chromatic_number(g)
    anchors = enumerate_colorings(g, chi=chi)
    if not anchors:
        raise ContractViolation("graph admits no optimal coloring")  # unreachable
    i, verts = family_first_hitting_set([a.colors for a in anchors],
                                        range(g.num_vertices))
    return len(verts), anchors[i], {v: anchors[i].colors[v] for v in verts}
