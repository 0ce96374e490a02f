"""Executable SAT-side reductions.

Each construction returns a ReductionArtifact: the output formula, a
provenance tag for every output variable, and (when the construction defines
one) the anchor assignment of the target instance.  Anchors are validated at
build time so a transcription bug fails loudly instead of corrupting
downstream sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .cnf import (CnfFormula, ContractViolation, Eval, PartialAssignment,
                  evaluate, is_proper_partial)
from .satdefs import DefsetSatInstance, QuantifiedSplit


@dataclass(frozen=True)
class ReductionArtifact:
    output: CnfFormula
    provenance: Tuple[Tuple[int, str], ...]  # output variable -> role tag
    anchor_out: Optional[PartialAssignment] = None
    budget_out: Optional[int] = None
    x_vars_out: Tuple[int, ...] = ()
    y_vars_out: Tuple[int, ...] = ()

    def __post_init__(self):
        covered = [v for v, _ in self.provenance]
        if sorted(covered) != list(self.output.variables):
            raise ContractViolation("provenance must cover every output variable once")

    def provenance_text(self) -> str:
        return "".join(f"var {v} role {tag}\n" for v, tag in self.provenance)

    def split(self) -> QuantifiedSplit:
        """View the artifact as a quantified instance (x-block outer,
        y-block inner, anchor over the y-block)."""
        return QuantifiedSplit(self.output, self.x_vars_out, self.y_vars_out,
                               self.anchor_out)


def construct_mu(split: QuantifiedSplit) -> ReductionArtifact:
    """Wrap a 3CNF into the 4CNF whose unique-extension behaviour mirrors the
    exists-forall question: every original clause gets an escape literal z,
    and z being true forces every y variable true."""
    phi = split.formula
    if phi.width > 3:
        raise ContractViolation(f"input must be 3CNF, got width {phi.width}")
    if split.anchor_t is not None:
        raise ContractViolation("construct_mu takes a bare exists-forall split")
    z = phi.num_vars + 1
    clauses: List[Tuple[int, ...]] = [c + (z,) for c in phi.clauses]
    clauses += [(-z, y) for y in split.y_vars]
    provenance = [(v, "original-x") for v in split.x_vars]
    provenance += [(v, "original-y") for v in split.y_vars]
    provenance.append((z, "z"))
    anchor = PartialAssignment.of({z: True, **{y: True for y in split.y_vars}})
    out = CnfFormula(z, tuple(clauses))
    if not is_proper_partial(out, anchor):
        raise ContractViolation("mu anchor failed its properness check")
    return ReductionArtifact(out, tuple(sorted(provenance)), anchor_out=anchor,
                             x_vars_out=tuple(split.x_vars),
                             y_vars_out=tuple(sorted(split.y_vars) + [z]))


def split_to_3cnf(mu: ReductionArtifact) -> ReductionArtifact:
    """Rewrite each 4-literal clause (C v z) of a construct_mu output into the
    six-clause 3CNF gadget with one fresh selector variable per clause.

    The sixth clause is what pins the selector once the boundary literals are
    fixed; dropping it leaves the selector free for some boundaries."""
    roles = dict(mu.provenance)
    z_vars = [v for v, tag in mu.provenance if tag == "z"]
    if len(z_vars) != 1 or mu.anchor_out is None:
        raise ContractViolation("input is not a construct_mu artifact")
    z = z_vars[0]
    wide = [c for c in mu.output.clauses if len(c) == 4 and c[3] == z]
    narrow = [c for c in mu.output.clauses if len(c) == 2 and c[0] == -z]
    if len(wide) + len(narrow) != len(mu.output.clauses):
        raise ContractViolation("input clauses are not in the (C v z) / (-z v y) shape")

    next_var = mu.output.num_vars
    clauses: List[Tuple[int, ...]] = []
    provenance = list(mu.provenance)
    anchor = mu.anchor_out.as_dict()
    for idx, clause in enumerate(wide, start=1):
        a1, a2, a3 = clause[0], clause[1], clause[2]
        next_var += 1
        v = next_var
        clauses += [
            (a1, a2, v),
            (a3, z, -v),
            (-a1, -z, v),
            (-a2, -z, v),
            (-a1, -a3, v),
            (-a2, -a3, v),
        ]
        provenance.append((v, f"gadget-interior-v{idx}"))
        anchor[v] = True
    clauses += narrow
    out = CnfFormula(next_var, tuple(clauses))
    anchor_pa = PartialAssignment.of(anchor)
    if not is_proper_partial(out, anchor_pa):
        raise ContractViolation("mu' anchor failed its properness check")
    fresh = tuple(range(mu.output.num_vars + 1, next_var + 1))
    return ReductionArtifact(out, tuple(sorted(provenance)), anchor_out=anchor_pa,
                             x_vars_out=mu.x_vars_out,
                             y_vars_out=tuple(sorted(mu.y_vars_out + fresh)))


def reduce_unique_to_q2(split: QuantifiedSplit
                        ) -> Tuple[DefsetSatInstance, Dict[int, Tuple[int, int]]]:
    """Turn an exists-unique-exists instance into a defining-set instance.

    Every x variable becomes a positive/negative indicator pair (v, v'), a
    clause chain over fresh w variables detects the y-block leaving its
    anchor values, and the final chain variable gates the pair-consistency
    clauses.  The source budget is the size of the x-block.

    Output variables are renumbered compactly: y-block first (sorted), then
    the v/v' pairs interleaved, then the w chain.  Returns the instance plus
    a map source x variable -> (v index, v' index).
    """
    instance, pair, _ = _unique_to_q2(split)
    return instance, pair


def _unique_to_q2(split: QuantifiedSplit):
    """reduce_unique_to_q2, plus the sorted provenance tags of the output."""
    phi = split.formula
    if phi.width > 3:
        raise ContractViolation(f"input must be 3CNF, got width {phi.width}")
    if split.anchor_t is None:
        raise ContractViolation("reduce_unique_to_q2 needs the y-anchor")
    t = split.anchor_t.as_dict()
    ys = sorted(split.y_vars)
    m = len(ys)
    if m == 0:
        raise ContractViolation(
            "empty y-block: the chain construction is undefined for m = 0")
    k = len(split.x_vars)

    y_new = {y: j for j, y in enumerate(ys, start=1)}
    pair: Dict[int, Tuple[int, int]] = {}
    provenance: List[Tuple[int, str]] = [
        (y_new[y], f"original-y-{y}") for y in ys]
    next_var = m
    for i, x in enumerate(sorted(split.x_vars), start=1):
        v, vp = next_var + 1, next_var + 2
        next_var += 2
        pair[x] = (v, vp)
        provenance += [(v, f"v-pair-{i}"), (vp, f"v'-pair-{i}")]
    num_chain = max(m - 1, 1)
    w = list(range(next_var + 1, next_var + 1 + num_chain))
    next_var += num_chain
    provenance += [(wi, f"w-chain-{j}") for j, wi in enumerate(w, start=1)]

    def rewrite(lit: int) -> int:
        var = abs(lit)
        if var in pair:
            v, vp = pair[var]
            return v if lit > 0 else vp
        new = y_new[var]
        return new if lit > 0 else -new

    clauses: List[Tuple[int, ...]] = [
        tuple(rewrite(l) for l in c) for c in phi.clauses]

    # a_j is the literal that becomes true when y_j leaves its anchor value
    a = [y_new[y] if not t[y] else -y_new[y] for y in ys]
    if m == 1:
        clauses.append((a[0], a[0], w[0]))
    else:
        clauses.append((a[0], a[1], w[0]))
        for j in range(2, m):
            clauses.append((-w[j - 2], a[j], w[j - 1]))
    w_last = w[-1]
    for x in sorted(split.x_vars):
        v, vp = pair[x]
        clauses += [(-w_last, v, -vp), (-w_last, -v, vp)]

    anchor_map: Dict[int, bool] = {y_new[y]: t[y] for y in ys}
    for v, vp in pair.values():
        anchor_map[v] = False
        anchor_map[vp] = False
    for wi in w:
        anchor_map[wi] = True
    out = CnfFormula(next_var, tuple(clauses))
    anchor = PartialAssignment.of(anchor_map)
    if evaluate(out, anchor) is not Eval.SATISFIED:
        raise ContractViolation("constructed anchor does not satisfy the output")
    instance = DefsetSatInstance(out, anchor, budget=k)
    return instance, pair, tuple(sorted(provenance))


def q2_artifact(split: QuantifiedSplit) -> ReductionArtifact:
    """ReductionArtifact view of reduce_unique_to_q2 (for CLI/provenance)."""
    instance, _, provenance = _unique_to_q2(split)
    return ReductionArtifact(instance.formula, provenance,
                             anchor_out=instance.anchor,
                             budget_out=instance.budget)


def reduce_q2_to_q3(instance: DefsetSatInstance, k: int) -> ReductionArtifact:
    """Pad a pair instance so the family minimum equals the pair minimum:
    k+1 fresh variables per original variable, each tied to the anchor value
    of its variable by a binary clause."""
    if k < 0:
        raise ContractViolation("budget must be nonnegative")
    phi = instance.formula
    if phi.width > 3:
        raise ContractViolation(f"input must be 3CNF, got width {phi.width}")
    t = instance.anchor.as_dict()
    n = phi.num_vars
    clauses: List[Tuple[int, ...]] = list(phi.clauses)
    provenance: List[Tuple[int, str]] = [(x, "original-x") for x in phi.variables]
    anchor = dict(t)
    next_var = n
    for i in range(1, n + 1):
        xlit = -i if t[i] else i
        for j in range(1, k + 2):
            next_var += 1
            clauses.append((xlit, next_var))
            provenance.append((next_var, f"pad-y-{i}-{j}"))
            anchor[next_var] = True
    out = CnfFormula(next_var, tuple(clauses))
    anchor_pa = PartialAssignment.of(anchor)
    if evaluate(out, anchor_pa) is not Eval.SATISFIED:
        raise ContractViolation("padded anchor does not satisfy the output")
    return ReductionArtifact(out, tuple(sorted(provenance)), anchor_out=anchor_pa,
                             budget_out=k)
