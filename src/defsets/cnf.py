"""CNF formulas and (partial) truth assignments.

Variables are 1-based integers.  A literal is a signed variable index
(negative = negated).  Clauses may contain duplicate literals; evaluation
ignores them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterator, List, Optional, Sequence, Tuple


class CnfError(Exception):
    """Malformed formula or assignment input."""


class ContractViolation(Exception):
    """A caller broke an operation's precondition."""


class Eval(Enum):
    SATISFIED = "satisfied"
    FALSIFIED = "falsified"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class PartialAssignment:
    """Sparse map variable -> bool.  Total when its support covers a formula."""

    bindings: Tuple[Tuple[int, bool], ...]

    @staticmethod
    def of(mapping: Dict[int, bool]) -> "PartialAssignment":
        return PartialAssignment(tuple(sorted(mapping.items())))

    def as_dict(self) -> Dict[int, bool]:
        return dict(self.bindings)

    @property
    def support(self) -> Tuple[int, ...]:
        return tuple(v for v, _ in self.bindings)

    def value(self, var: int) -> Optional[bool]:
        for v, b in self.bindings:
            if v == var:
                return b
        return None

    def extends(self, other: "PartialAssignment") -> bool:
        """True if self agrees with other on all of other's support."""
        mine = self.as_dict()
        return all(v in mine and mine[v] == b for v, b in other.bindings)

    def restrict(self, variables: Sequence[int]) -> "PartialAssignment":
        keep = set(variables)
        return PartialAssignment(tuple((v, b) for v, b in self.bindings if v in keep))

    def merged(self, other: "PartialAssignment") -> "PartialAssignment":
        m = self.as_dict()
        for v, b in other.bindings:
            if v in m and m[v] != b:
                raise ContractViolation(f"conflicting binding for variable {v}")
            m[v] = b
        return PartialAssignment.of(m)

    def __len__(self) -> int:
        return len(self.bindings)


EMPTY_ASSIGNMENT = PartialAssignment(())


@dataclass(frozen=True)
class CnfFormula:
    num_vars: int
    clauses: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        if self.num_vars < 0:
            raise CnfError("negative variable count")
        for i, clause in enumerate(self.clauses):
            if not clause:
                raise CnfError(f"clause {i + 1} is empty")
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise CnfError(f"literal {lit} out of range in clause {i + 1}")

    @staticmethod
    def of(num_vars: int, clauses: Sequence[Sequence[int]]) -> "CnfFormula":
        return CnfFormula(num_vars, tuple(tuple(c) for c in clauses))

    @property
    def variables(self) -> range:
        return range(1, self.num_vars + 1)

    @property
    def width(self) -> int:
        """Max distinct-literal clause size."""
        return max((len(set(c)) for c in self.clauses), default=0)

    def to_dimacs(self) -> str:
        lines = [f"p cnf {self.num_vars} {len(self.clauses)}"]
        for clause in self.clauses:
            lines.append(" ".join(str(l) for l in clause) + " 0")
        return "\n".join(lines) + "\n"


def parse_cnf(text: str) -> CnfFormula:
    """Parse a DIMACS cnf document.  Raises CnfError naming the bad line."""
    num_vars = None
    declared_clauses = None
    clauses: List[Tuple[int, ...]] = []
    pending: List[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c") or line.startswith("%"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise CnfError(f"line {lineno}: malformed header {line!r}")
            try:
                num_vars, declared_clauses = int(parts[2]), int(parts[3])
            except ValueError:
                raise CnfError(f"line {lineno}: malformed header {line!r}")
            if num_vars < 0 or declared_clauses < 0:
                raise CnfError(f"line {lineno}: negative counts in header")
            continue
        if num_vars is None:
            raise CnfError(f"line {lineno}: clause before 'p cnf' header")
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise CnfError(f"line {lineno}: bad token {tok!r}")
            if lit == 0:
                if not pending:
                    raise CnfError(f"line {lineno}: empty clause")
                clauses.append(tuple(pending))
                pending = []
            else:
                if abs(lit) > num_vars:
                    raise CnfError(f"line {lineno}: literal {lit} out of range")
                pending.append(lit)
    if num_vars is None:
        raise CnfError("missing 'p cnf' header")
    if pending:
        raise CnfError("unterminated clause at end of input")
    if declared_clauses is not None and declared_clauses != len(clauses):
        raise CnfError(
            f"header declares {declared_clauses} clauses, found {len(clauses)}")
    return CnfFormula(num_vars, tuple(clauses))


def parse_assignment(text: str) -> PartialAssignment:
    """Parse signed integers terminated by 0 (positive = true).  Raises
    CnfError naming the bad line."""
    bindings: Dict[int, bool] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise CnfError(f"line {lineno}: bad token {tok!r}")
            if lit == 0:
                return PartialAssignment.of(bindings)
            var, val = abs(lit), lit > 0
            if bindings.get(var, val) != val:
                raise CnfError(
                    f"line {lineno}: conflicting values for variable {var}")
            bindings[var] = val
    return PartialAssignment.of(bindings)


def format_assignment(t: PartialAssignment) -> str:
    lits = [v if b else -v for v, b in t.bindings]
    return " ".join(str(l) for l in lits + [0])


def evaluate(formula: CnfFormula, assignment: PartialAssignment) -> Eval:
    """Three-valued clause-by-clause evaluation under a partial assignment."""
    t = assignment.as_dict()
    undetermined = False
    for clause in formula.clauses:
        has_true = False
        has_unbound = False
        for lit in clause:
            val = t.get(abs(lit))
            if val is None:
                has_unbound = True
            elif val == (lit > 0):
                has_true = True
                break
        if has_true:
            continue
        if has_unbound:
            undetermined = True
        else:
            return Eval.FALSIFIED
    return Eval.UNDETERMINED if undetermined else Eval.SATISFIED


def is_proper_partial(formula: CnfFormula, t: PartialAssignment) -> bool:
    """True iff every clause already has a true literal bound by t."""
    vals = t.as_dict()
    for clause in formula.clauses:
        if not any(vals.get(abs(lit)) == (lit > 0) for lit in clause):
            return False
    return True


def _extensions(formula: CnfFormula, fixed: PartialAssignment) -> Iterator[PartialAssignment]:
    """Backtracking sweep over total satisfying extensions, lexicographic
    in the variable-value vector (false < true)."""
    values: Dict[int, bool] = fixed.as_dict()
    for v in values:
        if v < 1 or v > formula.num_vars:
            raise ContractViolation(f"fixed variable {v} outside formula range")
    free = [v for v in formula.variables if v not in values]

    def consistent() -> bool:
        return evaluate(formula, PartialAssignment.of(values)) is not Eval.FALSIFIED

    def rec(i: int) -> Iterator[PartialAssignment]:
        if not consistent():
            return
        if i == len(free):
            total = PartialAssignment.of(values)
            if evaluate(formula, total) is Eval.SATISFIED:
                yield total
            return
        var = free[i]
        for val in (False, True):
            values[var] = val
            yield from rec(i + 1)
        del values[var]

    yield from rec(0)


def enumerate_proper(formula: CnfFormula, fixed: PartialAssignment = EMPTY_ASSIGNMENT,
                     limit: int = 1 << 30) -> List[PartialAssignment]:
    """All (up to limit) total satisfying assignments extending fixed,
    in lexicographic order."""
    if limit < 1:
        raise ContractViolation("limit must be >= 1")
    out: List[PartialAssignment] = []
    for model in _extensions(formula, fixed):
        out.append(model)
        if len(out) >= limit:
            break
    return out


def normalize_width(formula: CnfFormula, k: int) -> CnfFormula:
    """Pad clauses shorter than k by duplicating their first literal.
    Leaves the family of satisfying assignments unchanged."""
    if formula.width > k:
        raise CnfError(f"formula has width {formula.width} > {k}")
    padded = []
    for clause in formula.clauses:
        c = list(clause)
        while len(c) < k:
            c.append(c[0])
        padded.append(tuple(c))
    return CnfFormula(formula.num_vars, tuple(padded))
