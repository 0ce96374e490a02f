import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defsets.cnf import (CnfError, CnfFormula, Eval, PartialAssignment,
                         enumerate_proper, evaluate, format_assignment,
                         is_proper_partial, normalize_width, parse_assignment,
                         parse_cnf)

PA = PartialAssignment.of


def test_parse_basic():
    f = parse_cnf("p cnf 2 1\n1 2 0")
    assert f.num_vars == 2
    assert f.clauses == ((1, 2),)


def test_parse_duplicate_literal_width():
    f = parse_cnf("p cnf 1 1\n1 1 1 0")
    assert f.clauses == ((1, 1, 1),)
    assert f.width == 1


def test_parse_literal_out_of_range():
    with pytest.raises(CnfError, match="out of range"):
        parse_cnf("p cnf 2 1\n3 0")


def test_parse_errors_name_line():
    with pytest.raises(CnfError, match="line 2"):
        parse_cnf("p cnf 2 1\n0")
    with pytest.raises(CnfError, match="header"):
        parse_cnf("p dnf 2 1\n1 0")
    with pytest.raises(CnfError):
        parse_cnf("c only a comment\n")


def test_parse_comments_and_clause_count_check():
    f = parse_cnf("c hi\np cnf 2 2\n1 0\nc mid\n-2 0\n")
    assert len(f.clauses) == 2
    with pytest.raises(CnfError, match="declares"):
        parse_cnf("p cnf 2 2\n1 0\n")


def test_dimacs_round_trip():
    f = parse_cnf("p cnf 3 2\n1 -2 3 0\n-1 0\n")
    assert parse_cnf(f.to_dimacs()) == f


def test_assignment_format_round_trip():
    t = PA({1: True, 2: False, 3: True})
    assert parse_assignment(format_assignment(t)) == t
    assert parse_assignment("1 -2 3 0") == t


def test_parse_assignment_rejects_bad_tokens_naming_the_line():
    with pytest.raises(CnfError, match="line 2: bad token"):
        parse_assignment("1 -2\n3 x 0")
    with pytest.raises(CnfError, match="line 1: conflicting"):
        parse_assignment("1 -1 0")


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    st.text(max_size=30),
    st.lists(st.sampled_from(["0", "1", "-1", "2", "-3", "x", "1.5", "\n"]),
             max_size=8).map(" ".join)))
def test_parse_assignment_parses_or_raises_cnf_error(text):
    try:
        t = parse_assignment(text)
    except CnfError:
        return
    assert all(v > 0 for v in t.support)
    assert parse_assignment(format_assignment(t)) == t


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    st.text(max_size=30),
    st.lists(st.lists(st.sampled_from(["p", "cnf", "c", "x", "0", "1", "-1",
                                       "2", "-2", "3"]), max_size=5)
             .map(" ".join), max_size=5).map("\n".join)))
def test_parse_cnf_parses_or_raises_cnf_error(text):
    try:
        f = parse_cnf(text)
    except CnfError:
        return
    assert parse_cnf(f.to_dimacs()) == f


def test_evaluate_examples():
    f = CnfFormula.of(2, [(1, 2)])
    assert evaluate(f, PA({1: True})) is Eval.SATISFIED
    assert evaluate(f, PA({1: False, 2: False})) is Eval.FALSIFIED
    g = CnfFormula.of(1, [(1,), (-1,)])
    assert evaluate(g, PA({})) is Eval.UNDETERMINED


def test_is_proper_partial_examples():
    # the escape-literal construction: z true plus all y true covers everything
    mu = CnfFormula.of(3, [(1, 2, 3), (-3, 2)])  # x=1, y=2, z=3
    assert is_proper_partial(mu, PA({3: True, 2: True}))
    f = CnfFormula.of(2, [(1, 2)])
    assert is_proper_partial(f, PA({1: True, 2: False}))
    assert not is_proper_partial(f, PA({2: False}))


def test_enumerate_proper_examples():
    f = CnfFormula.of(2, [(1, 2)])
    models = enumerate_proper(f, PA({}), limit=8)
    assert [m.as_dict() for m in models] == [
        {1: False, 2: True}, {1: True, 2: False}, {1: True, 2: True}]
    g = CnfFormula.of(2, [(1,), (-1, 2)])
    assert [m.as_dict() for m in enumerate_proper(g)] == [{1: True, 2: True}]
    assert enumerate_proper(CnfFormula.of(1, [(1,), (-1,)])) == []


def test_enumerate_respects_limit_and_fixed():
    f = CnfFormula.of(3, [])
    assert len(enumerate_proper(f)) == 8
    assert len(enumerate_proper(f, limit=3)) == 3
    fixed = PA({2: True})
    assert all(m.value(2) for m in enumerate_proper(f, fixed))


def test_zero_variable_formula():
    f = CnfFormula.of(0, [])
    assert enumerate_proper(f) == [PA({})]
    assert evaluate(f, PA({})) is Eval.SATISFIED


def clause_strategy(n):
    lit = st.integers(1, n).flatmap(
        lambda v: st.sampled_from([v, -v]))
    return st.lists(lit, min_size=1, max_size=3).map(tuple)


def formula_strategy(max_vars=4, max_clauses=4):
    return st.integers(1, max_vars).flatmap(
        lambda n: st.lists(clause_strategy(n), min_size=0,
                           max_size=max_clauses).map(
            lambda cs: CnfFormula.of(n, cs)))


@settings(max_examples=60, deadline=None)
@given(formula_strategy())
def test_total_assignments_never_undetermined(f):
    for bits in itertools.product([False, True], repeat=f.num_vars):
        t = PA(dict(zip(f.variables, bits)))
        assert evaluate(f, t) in (Eval.SATISFIED, Eval.FALSIFIED)


@settings(max_examples=60, deadline=None)
@given(formula_strategy())
def test_enumerate_matches_truth_table(f):
    swept = [bits for bits in itertools.product([False, True], repeat=f.num_vars)
             if all(any(bits[abs(l) - 1] == (l > 0) for l in c)
                    for c in f.clauses)]
    assert len(enumerate_proper(f)) == len(swept)


@settings(max_examples=60, deadline=None)
@given(formula_strategy())
def test_duplicate_literals_do_not_change_models(f):
    doubled = CnfFormula.of(f.num_vars, [c + c for c in f.clauses])
    assert enumerate_proper(f) == enumerate_proper(doubled)


@settings(max_examples=40, deadline=None)
@given(formula_strategy(max_vars=3, max_clauses=3))
def test_proper_partial_implies_all_extensions_satisfy(f):
    for size in range(f.num_vars + 1):
        for combo in itertools.combinations(list(f.variables), size):
            for bits in itertools.product([False, True], repeat=size):
                t = PA(dict(zip(combo, bits)))
                if is_proper_partial(f, t):
                    total = 2 ** (f.num_vars - size)
                    assert len(enumerate_proper(f, t, limit=total + 1)) == total


def test_normalize_width_pads_and_preserves_models():
    f = CnfFormula.of(2, [(1,), (1, 2)])
    g = normalize_width(f, 3)
    assert all(len(c) == 3 for c in g.clauses)
    assert enumerate_proper(f) == enumerate_proper(g)
    with pytest.raises(CnfError):
        normalize_width(CnfFormula.of(3, [(1, 2, 3)]), 2)
