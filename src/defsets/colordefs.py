"""Defining-set checkers and exact minimizers over optimal graph colorings.

Mirrors the SAT-side solvers: the family is the set of all chi(G)-colorings
(labeled, so color permutations are distinct members), the anchor is one of
them, and candidates are restrictions of the anchor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from .cnf import ContractViolation
from .core import (DEFAULT_CAP, CapExceeded, check_cap,
                   family_first_hitting_set, family_has_defining_within,
                   pair_witness)
from .graphs import (Coloring, Graph, chromatic_number, enumerate_colorings,
                     is_proper)


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


def _members(g: Graph, chi: int):
    """The family callback: at most two optimal colorings agreeing with
    `fixed`, none when `fixed` is not proper."""
    return lambda fixed: [c.colors for c in enumerate_colorings(
        g, fixed, limit=2, chi=chi)]


def is_defining_coloring_set(instance: DefsetColorInstance,
                             candidate: Dict[int, int],
                             cap: int = DEFAULT_CAP) -> bool:
    """True iff the anchor is the unique optimal coloring extending candidate."""
    check_cap(instance.graph.num_vertices, cap, "vertices")
    if not instance.anchor.extends(candidate):
        raise ContractViolation("candidate conflicts with the anchor")
    return len(enumerate_colorings(instance.graph, candidate, limit=2,
                                   chi=instance.chi)) == 1


def min_defining_coloring_set(instance: DefsetColorInstance,
                              cap: int = DEFAULT_CAP
                              ) -> Tuple[int, Dict[int, int]]:
    """Smallest defining set of (colorings, anchor): size plus the canonical
    witness (lexicographically smallest vertex subset of that size)."""
    check_cap(instance.graph.num_vertices, cap, "vertices")
    verts = pair_witness(range(instance.graph.num_vertices),
                         instance.anchor.colors,
                         _members(instance.graph, instance.chi))
    return len(verts), {v: instance.anchor.colors[v] for v in verts}


def has_defining_coloring_within(instance: DefsetColorInstance, k: int,
                                 cap: int = DEFAULT_CAP) -> bool:
    """Decision form of Q2 for colorings."""
    check_cap(instance.graph.num_vertices, cap, "vertices")
    return pair_witness(range(instance.graph.num_vertices),
                        instance.anchor.colors,
                        _members(instance.graph, instance.chi),
                        upper=k) is not None


def family_has_defining_coloring_within(g: Graph, k: int,
                                        cap: int = DEFAULT_CAP,
                                        chi: Optional[int] = None) -> bool:
    """Decision form of Q3 for colorings.

    A vertex of degree at most chi-2 lies in every defining set of every
    member: its neighbors block at most chi-2 colors, so a color other than
    its own is left to recolor it with.  Only subsets containing these
    vertices are swept, which keeps padded instances tractable."""
    check_cap(g.num_vertices, cap, "vertices")
    if chi is None:
        chi = chromatic_number(g)
    forced = tuple(v for v, nbrs in enumerate(g.adjacency())
                   if len(nbrs) <= chi - 2)
    members = _members(g, chi)
    # swept maps may clash; is_proper rejects those before any search (pair
    # queries fix part of a proper anchor, so they skip the check)
    return family_has_defining_within(
        range(g.num_vertices), range(chi),
        lambda fixed: members(fixed) if is_proper(g, fixed) else [], k, forced)


def min_defining_coloring_family(g: Graph, cap: int = DEFAULT_CAP
                                 ) -> Tuple[int, Coloring, Dict[int, int]]:
    """Minimum of min_defining_coloring_set over all optimal colorings.
    Ties broken lexicographically on (witness items, anchor vector).
    The family is enumerated once and asked no further queries."""
    check_cap(g.num_vertices, cap, "vertices")
    chi = chromatic_number(g)
    anchors = enumerate_colorings(g, chi=chi)
    i, verts = family_first_hitting_set([a.colors for a in anchors],
                                        range(g.num_vertices))
    return len(verts), anchors[i], {v: anchors[i].colors[v] for v in verts}
