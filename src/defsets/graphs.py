"""Graphs, proper colorings, exact chromatic number, coloring enumeration.

Vertices are 0-based internally; the DIMACS edge format on disk is 1-based.
Colorings are labeled: permuting the palette yields a different coloring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .cnf import ContractViolation
from .core import check_cap

DEFAULT_VERTEX_CAP = 64


class GraphError(Exception):
    """Malformed graph or coloring input."""


@dataclass(frozen=True)
class Graph:
    num_vertices: int
    edges: Tuple[Tuple[int, int], ...]
    labels: Optional[Tuple[Tuple[int, str], ...]] = None

    def __post_init__(self):
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
                raise GraphError(f"edge ({u},{v}) out of range")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise GraphError(f"duplicate edge ({u},{v})")
            seen.add(key)

    @staticmethod
    def of(num_vertices: int, edges: Sequence[Tuple[int, int]],
           labels: Optional[Dict[int, str]] = None) -> "Graph":
        canon = tuple(sorted((min(u, v), max(u, v)) for u, v in edges))
        lab = tuple(sorted(labels.items())) if labels else None
        return Graph(num_vertices, canon, lab)

    def adjacency(self) -> List[List[int]]:
        adj: List[List[int]] = [[] for _ in range(self.num_vertices)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def label_of(self, v: int) -> str:
        if self.labels:
            for u, name in self.labels:
                if u == v:
                    return name
        return f"v{v}"

    def to_dimacs(self) -> str:
        lines = [f"p edge {self.num_vertices} {len(self.edges)}"]
        for u, v in self.edges:
            lines.append(f"e {u + 1} {v + 1}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Coloring:
    """Total map vertex -> color.  Partial colorings are plain dicts."""

    colors: Tuple[int, ...]

    @staticmethod
    def of(mapping: Dict[int, int], num_vertices: int) -> "Coloring":
        if sorted(mapping) != list(range(num_vertices)):
            raise ContractViolation("coloring must be total")
        return Coloring(tuple(mapping[v] for v in range(num_vertices)))

    def value(self, v: int) -> int:
        return self.colors[v]

    def as_dict(self) -> Dict[int, int]:
        return dict(enumerate(self.colors))

    def extends(self, partial: Dict[int, int]) -> bool:
        return all(self.colors[v] == c for v, c in partial.items())


def _ints(tokens: Sequence[str], lineno: int) -> List[int]:
    try:
        return [int(tok) for tok in tokens]
    except ValueError:
        raise GraphError(f"line {lineno}: non-integer token in {tokens}")


def parse_graph(text: str) -> Graph:
    """Parse a DIMACS edge document (`p edge n m`, `e u v` lines, 1-based).
    Raises GraphError naming the bad line."""
    num_vertices = header_line = None
    edges: List[Tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if len(parts) != 4 or parts[1] not in ("edge", "edges"):
                raise GraphError(f"line {lineno}: malformed header {line!r}")
            num_vertices, declared = _ints(parts[2:], lineno)
            header_line = lineno
            if num_vertices < 0 or declared < 0:
                raise GraphError(f"line {lineno}: negative counts in header")
        elif parts[0] == "e":
            if num_vertices is None:
                raise GraphError(f"line {lineno}: edge before header")
            if len(parts) != 3:
                raise GraphError(f"line {lineno}: malformed edge line")
            u, v = (x - 1 for x in _ints(parts[1:], lineno))
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise GraphError(f"line {lineno}: vertex out of range")
            edges.append((u, v))
        else:
            raise GraphError(f"line {lineno}: unrecognized line {line!r}")
    if num_vertices is None:
        raise GraphError("missing 'p edge' header")
    if declared != len(edges):
        raise GraphError(f"line {header_line}: header declares {declared} edges, "
                         f"found {len(edges)}")
    return Graph.of(num_vertices, edges)


def parse_coloring(text: str) -> Dict[int, int]:
    """Parse `v <vertex> <color>` lines (1-based vertices) into a partial map.
    Raises GraphError naming the bad line."""
    out: Dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if len(parts) != 3 or parts[0] != "v":
            raise GraphError(f"line {lineno}: expected 'v <vertex> <color>'")
        vertex, color = _ints(parts[1:], lineno)
        if vertex < 1 or color < 0:
            raise GraphError(f"line {lineno}: vertex below 1 or negative color")
        if vertex - 1 in out:
            raise GraphError(f"line {lineno}: vertex {vertex} colored twice")
        out[vertex - 1] = color
    return out


def format_coloring(partial: Dict[int, int]) -> str:
    return "".join(f"v {v + 1} {c}\n" for v, c in sorted(partial.items()))


def is_proper(g: Graph, partial: Dict[int, int]) -> bool:
    return all(partial.get(u) is None or partial.get(v) is None
               or partial[u] != partial[v] for u, v in g.edges)


def _colorings(g: Graph, num_colors: int,
               fixed: Dict[int, int]) -> Iterator[Tuple[int, ...]]:
    """Backtracking sweep over proper total colorings with the given palette,
    lexicographic in the vertex-color vector."""
    adj = g.adjacency()
    assigned: Dict[int, int] = dict(fixed)
    for v, c in fixed.items():
        if not (0 <= v < g.num_vertices):
            raise ContractViolation(f"fixed vertex {v} out of range")
        if not (0 <= c < num_colors):
            raise ContractViolation(f"fixed color {c} outside palette")

    def rec(v: int) -> Iterator[Tuple[int, ...]]:
        if v == g.num_vertices:
            yield tuple(assigned[u] for u in range(g.num_vertices))
            return
        if v in fixed:
            if any(assigned.get(u) == assigned[v] for u in adj[v]):
                return
            yield from rec(v + 1)
            return
        forbidden = {assigned[u] for u in adj[v] if u in assigned}
        for c in range(num_colors):
            if c in forbidden:
                continue
            assigned[v] = c
            yield from rec(v + 1)
            del assigned[v]

    yield from rec(0)


def is_k_colorable(g: Graph, k: int) -> bool:
    return next(_colorings(g, k, {}), None) is not None


def chromatic_number(g: Graph, cap: int = DEFAULT_VERTEX_CAP) -> int:
    """Exact chromatic number by iterative deepening over k."""
    check_cap(g.num_vertices, cap, "vertices")
    if g.num_vertices == 0:
        return 0
    for k in range(1, g.num_vertices + 1):
        if is_k_colorable(g, k):
            return k
    raise AssertionError("n colors always suffice")  # unreachable


def enumerate_colorings(g: Graph, fixed: Optional[Dict[int, int]] = None,
                        limit: int = 1 << 30,
                        chi: Optional[int] = None) -> List[Coloring]:
    """All proper chi(g)-colorings extending fixed, lexicographic, capped.
    Pass chi to skip recomputing the chromatic number."""
    fixed = fixed or {}
    if chi is None:
        chi = chromatic_number(g)
    out: List[Coloring] = []
    for vec in _colorings(g, chi, fixed):
        out.append(Coloring(vec))
        if len(out) >= limit:
            break
    return out

