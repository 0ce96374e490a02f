import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defsets.graphs import (Coloring, Graph, GraphError, chromatic_number,
                            enumerate_colorings, format_coloring,
                            is_k_colorable, is_proper, parse_coloring,
                            parse_graph)

TRIANGLE = Graph.of(3, [(0, 1), (1, 2), (0, 2)])


def test_graph_validation():
    with pytest.raises(GraphError, match="self-loop"):
        Graph.of(2, [(1, 1)])
    with pytest.raises(GraphError, match="out of range"):
        Graph.of(2, [(0, 2)])
    with pytest.raises(GraphError, match="duplicate"):
        Graph(2, ((0, 1), (1, 0)))


def test_graph_of_canonicalizes():
    g = Graph.of(3, [(2, 0), (1, 0)])
    assert g.edges == ((0, 1), (0, 2))


def test_parse_graph_examples():
    g = parse_graph("c a triangle\np edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
    assert g == TRIANGLE
    with pytest.raises(GraphError, match="header"):
        parse_graph("e 1 2\n")
    with pytest.raises(GraphError, match="out of range"):
        parse_graph("p edge 2 1\ne 1 3\n")


@pytest.mark.parametrize("text, line", [
    ("p edge -1 0\n", 1),
    ("p edge 3 x\n", 1),
    ("c three vertices\np edge 3 5\ne 1 2\n", 2),
    ("p edge 3 1\ne 1 y\n", 2),
])
def test_parse_graph_rejects_bad_input_naming_the_line(text, line):
    with pytest.raises(GraphError, match=f"line {line}:"):
        parse_graph(text)


@pytest.mark.parametrize("text, line", [
    ("v 0 -3\n", 1),
    ("v 1 -3\n", 1),
    ("v 1 0\nv 2 1\nv 1 2\n", 3),
    ("v 1 z\n", 1),
])
def test_parse_coloring_rejects_bad_input_naming_the_line(text, line):
    with pytest.raises(GraphError, match=f"line {line}:"):
        parse_coloring(text)


NUMBERS = ["-1", "0", "1", "2", "3", "x", "1.5"]


def dimacs_like_text():
    line = st.one_of(
        st.tuples(st.sampled_from(["p edge", "e", "v"]), st.sampled_from(NUMBERS),
                  st.sampled_from(NUMBERS)).map(" ".join),
        st.lists(st.sampled_from(["p", "edge", "e", "v", "c"] + NUMBERS),
                 max_size=5).map(" ".join))
    return st.one_of(st.text(max_size=30),
                     st.lists(line, max_size=6).map("\n".join))


@settings(max_examples=60, deadline=None)
@given(dimacs_like_text())
def test_parse_graph_parses_or_raises_graph_error(text):
    try:
        g = parse_graph(text)
    except GraphError:
        return
    assert g.num_vertices >= 0
    assert parse_graph(g.to_dimacs()) == g


@settings(max_examples=60, deadline=None)
@given(dimacs_like_text())
def test_parse_coloring_parses_or_raises_graph_error(text):
    try:
        partial = parse_coloring(text)
    except GraphError:
        return
    assert all(v >= 0 and c >= 0 for v, c in partial.items())
    assert len(partial) == sum(line.split()[:1] == ["v"]
                               for line in text.splitlines())


def test_graph_dimacs_round_trip():
    g = Graph.of(4, [(0, 1), (2, 3), (0, 3)])
    assert parse_graph(g.to_dimacs()) == g


def test_coloring_round_trip():
    partial = {0: 1, 2: 0}
    assert parse_coloring(format_coloring(partial)) == partial
    assert parse_coloring("v 1 2\nv 3 0\n") == {0: 2, 2: 0}
    with pytest.raises(GraphError):
        parse_coloring("x 1 2\n")


def test_is_proper_examples():
    assert is_proper(TRIANGLE, {0: 0, 1: 1, 2: 2})
    assert not is_proper(TRIANGLE, {0: 0, 1: 0})
    assert is_proper(TRIANGLE, {0: 0})  # partial maps never clash by default


def test_chromatic_number_examples():
    assert chromatic_number(Graph.of(1, [])) == 1
    assert chromatic_number(Graph.of(3, [])) == 1
    assert chromatic_number(Graph.of(2, [(0, 1)])) == 2
    assert chromatic_number(TRIANGLE) == 3
    c5 = Graph.of(5, [(i, (i + 1) % 5) for i in range(5)])
    assert chromatic_number(c5) == 3
    k4 = Graph.of(4, list(itertools.combinations(range(4), 2)))
    assert chromatic_number(k4) == 4
    assert chromatic_number(Graph.of(0, [])) == 0


def test_enumerate_colorings_examples():
    # triangle: all 3! labeled colorings of a 3-clique
    assert len(enumerate_colorings(TRIANGLE)) == 6
    # fixing one vertex of an edge in a 2-color palette pins the other
    edge = Graph.of(2, [(0, 1)])
    hits = enumerate_colorings(edge, {0: 0})
    assert [c.colors for c in hits] == [(0, 1)]
    # limit stops early
    assert len(enumerate_colorings(TRIANGLE, limit=2)) == 2


def test_enumerate_is_lexicographic():
    edge = Graph.of(2, [(0, 1)])
    assert [c.colors for c in enumerate_colorings(edge)] == [(0, 1), (1, 0)]


def test_coloring_extends():
    c = Coloring((0, 1, 2))
    assert c.extends({1: 1})
    assert not c.extends({1: 0})
    assert c.extends({})


def graph_strategy(max_vertices=6):
    def build(n):
        pairs = list(itertools.combinations(range(n), 2))
        return st.lists(st.sampled_from(pairs) if pairs else st.nothing(),
                        max_size=len(pairs), unique=True).map(
            lambda es: Graph.of(n, es))
    return st.integers(1, max_vertices).flatmap(build)


@settings(max_examples=50, deadline=None)
@given(graph_strategy())
def test_chromatic_bounds(g):
    chi = chromatic_number(g)
    degrees = [len(a) for a in g.adjacency()]
    assert 1 <= chi <= max(degrees, default=0) + 1  # greedy upper bound
    if g.edges:
        assert chi >= 2
    assert not is_k_colorable(g, chi - 1) if chi > 0 else True


@settings(max_examples=40, deadline=None)
@given(graph_strategy(max_vertices=5))
def test_coloring_count_divisible_by_palette_permutations(g):
    chi = chromatic_number(g)
    hits = enumerate_colorings(g, chi=chi)
    assert all(is_proper(g, c.as_dict()) for c in hits)
    # permuting the palette maps optimal colorings to optimal colorings,
    # and every color appears in an optimal coloring, so chi! divides the count
    assert len(hits) % math.factorial(chi) == 0


@settings(max_examples=40, deadline=None)
@given(graph_strategy(max_vertices=5))
def test_enumeration_matches_product_sweep(g):
    chi = chromatic_number(g)
    swept = [vec for vec in itertools.product(range(chi), repeat=g.num_vertices)
             if all(vec[u] != vec[v] for u, v in g.edges)]
    assert [c.colors for c in enumerate_colorings(g, chi=chi)] == swept
