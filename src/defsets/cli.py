"""Command-line front end: parse, solve, reduce, verify.

Exit codes: 0 = success / answer yes, 1 = answer no (decision forms and
verification mismatches), 2 = error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

from .cnf import (CnfError, ContractViolation, enumerate_proper,
                  format_assignment, parse_assignment, parse_cnf)
from .colordefs import (DefsetColorInstance, is_defining_coloring_set,
                        min_defining_coloring_family, min_defining_coloring_set)
from .colorreduce import build_g_phi, build_h
from .core import DEFAULT_CAP, CapExceeded
from .graphs import (Coloring, GraphError, format_coloring, parse_coloring,
                     parse_graph)
from .oracle import VERIFIERS, first_proper_partial, verify_reduction
from .satdefs import (DefsetSatInstance, QuantifiedSplit, is_defining_set,
                      min_defining_set, min_defining_set_family)
from .satreduce import (construct_mu, q2_artifact, reduce_q2_to_q3,
                        split_to_3cnf)


@dataclass
class RunConfig:
    subcommand: str
    args: argparse.Namespace
    lines: List[str] = field(default_factory=list)

    def emit(self, text: str) -> None:
        self.lines.append(text)

    def record(self, question: str, answer: str, min_size: Optional[int] = None,
               witness: str = "", model_count_hint: Optional[int] = None) -> None:
        if self.args.format == "record":
            parts = [f"question={question}", f"answer={answer}"]
            if min_size is not None:
                parts.append(f"min_size={min_size}")
            if witness:
                parts.append(f"witness={witness}")
            if model_count_hint is not None:
                parts.append(f"model_count_hint={model_count_hint}")
            self.emit(" ".join(parts))
        else:
            self.emit(f"{question}: {answer}"
                      + (f" (min_size={min_size})" if min_size is not None else "")
                      + (f" witness: {witness}" if witness else ""))


def _read(path: str) -> str:
    return Path(path).read_text()


def _write_out(args, text: str, lines: List[str]) -> None:
    if getattr(args, "out", None):
        Path(args.out).write_text(text)
        lines.append(f"wrote {args.out}")
    else:
        lines.append(text.rstrip("\n"))


def _sat_instance(args) -> DefsetSatInstance:
    formula = parse_cnf(_read(args.formula))
    anchor = parse_assignment(_read(args.anchor))
    return DefsetSatInstance(formula, anchor)


def _color_instance(args) -> DefsetColorInstance:
    g = parse_graph(_read(args.graph))
    cmap = parse_coloring(_read(args.coloring))
    anchor = Coloring.of(cmap, g.num_vertices)
    return DefsetColorInstance(g, anchor)


def _split_from_args(args, formula, anchor_t=None) -> QuantifiedSplit:
    xs = tuple(int(v) for v in args.x_vars.split(",")) if args.x_vars else ()
    ys = tuple(v for v in formula.variables if v not in xs)
    return QuantifiedSplit(formula, xs, ys, anchor_t)


def dispatch(config: RunConfig) -> int:
    args = config.args
    sub = config.subcommand
    cap = args.max_vars
    vcap = args.max_vertices

    if sub == "sat-check":
        inst = _sat_instance(args)
        cand = parse_assignment(_read(args.candidate))
        ans = is_defining_set(inst, cand, cap=cap)
        hint = len(enumerate_proper(inst.formula, cand, limit=100))
        config.record("sat-check", "yes" if ans else "no",
                      model_count_hint=hint)
        return 0 if ans else 1

    if sub == "sat-min":
        inst = _sat_instance(args)
        size, witness = min_defining_set(inst, cap=cap)
        hint = len(enumerate_proper(inst.formula, limit=100))
        config.record("sat-min", "yes" if args.k is None or size <= args.k else "no",
                      min_size=size, witness=format_assignment(witness),
                      model_count_hint=hint)
        return 0 if args.k is None or size <= args.k else 1

    if sub == "sat-family-min":
        formula = parse_cnf(_read(args.formula))
        size, anchor, witness = min_defining_set_family(formula, cap=cap)
        hint = len(enumerate_proper(formula, limit=100))
        config.record("sat-family-min",
                      "yes" if args.k is None or size <= args.k else "no",
                      min_size=size, witness=format_assignment(witness),
                      model_count_hint=hint)
        config.emit(f"anchor: {format_assignment(anchor)}")
        return 0 if args.k is None or size <= args.k else 1

    if sub == "color-check":
        inst = _color_instance(args)
        cand = parse_coloring(_read(args.candidate))
        ans = is_defining_coloring_set(inst, cand, cap=vcap)
        config.record("color-check", "yes" if ans else "no")
        return 0 if ans else 1

    if sub == "color-min":
        inst = _color_instance(args)
        size, witness = min_defining_coloring_set(inst, cap=vcap)
        wtext = " ".join(f"{v}:{c}" for v, c in sorted(witness.items()))
        config.record("color-min",
                      "yes" if args.k is None or size <= args.k else "no",
                      min_size=size, witness=wtext)
        return 0 if args.k is None or size <= args.k else 1

    if sub == "color-family-min":
        g = parse_graph(_read(args.graph))
        size, anchor, witness = min_defining_coloring_family(g, cap=vcap)
        wtext = " ".join(f"{v}:{c}" for v, c in sorted(witness.items()))
        config.record("color-family-min",
                      "yes" if args.k is None or size <= args.k else "no",
                      min_size=size, witness=wtext)
        return 0 if args.k is None or size <= args.k else 1

    if sub in ("reduce-mu", "reduce-split3"):
        formula = parse_cnf(_read(args.formula))
        split = _split_from_args(args, formula)
        art = construct_mu(split)
        if sub == "reduce-split3":
            art = split_to_3cnf(art)
        _write_out(args, art.output.to_dimacs(), config.lines)
        if args.provenance_out:
            Path(args.provenance_out).write_text(art.provenance_text())
        config.emit(f"anchor: {format_assignment(art.anchor_out)}")
        return 0

    if sub == "reduce-q2":
        formula = parse_cnf(_read(args.formula))
        split = _split_from_args(args, formula)
        if args.anchor:
            t = parse_assignment(_read(args.anchor))
        else:
            t = first_proper_partial(formula, split.y_vars)
            if t is None:
                raise ContractViolation(
                    "no proper partial assignment exists over the y-block; "
                    "provide --anchor or change --x-vars")
        art = q2_artifact(_split_from_args(args, formula, t))
        _write_out(args, art.output.to_dimacs(), config.lines)
        if args.provenance_out:
            Path(args.provenance_out).write_text(art.provenance_text())
        config.emit(f"anchor: {format_assignment(art.anchor_out)}")
        config.emit(f"budget: {art.budget_out}")
        return 0

    if sub == "reduce-q3":
        inst = _sat_instance(args)
        art = reduce_q2_to_q3(inst, args.k if args.k is not None else 0)
        _write_out(args, art.output.to_dimacs(), config.lines)
        if args.provenance_out:
            Path(args.provenance_out).write_text(art.provenance_text())
        config.emit(f"anchor: {format_assignment(art.anchor_out)}")
        return 0

    if sub == "reduce-gphi":
        formula = parse_cnf(_read(args.formula))
        t = parse_assignment(_read(args.anchor))
        art = build_g_phi(formula, t)
        _write_out(args, art.graph.to_dimacs(), config.lines)
        config.emit(format_coloring(art.anchor.as_dict()).rstrip("\n"))
        if args.provenance_out:
            Path(args.provenance_out).write_text(art.provenance_text())
        return 0

    if sub == "reduce-h":
        g = parse_graph(_read(args.graph))
        cmap = parse_coloring(_read(args.coloring))
        c = Coloring.of(cmap, g.num_vertices)
        art = build_h(g, c, args.k if args.k is not None else 0)
        _write_out(args, art.graph.to_dimacs(), config.lines)
        if args.provenance_out:
            Path(args.provenance_out).write_text(art.provenance_text())
        config.emit(f"budget: {art.budget_out}")
        return 0

    if sub == "verify":
        params = {}
        if args.seed is not None:
            params["seed"] = args.seed
        report = verify_reduction(args.reduction, **params)
        config.emit(report.text().rstrip("\n"))
        return 0 if report.ok else 1

    raise AssertionError(f"unhandled subcommand {sub}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="defsets",
        description="Defining sets of CNF satisfying assignments and of "
                    "optimal graph colorings: checkers, exact minimizers, "
                    "reductions, and brute-force verification.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--k", type=int, default=None,
                        help="budget for decision forms")
    common.add_argument("--max-vars", type=int, default=DEFAULT_CAP)
    common.add_argument("--max-vertices", type=int, default=DEFAULT_CAP)
    common.add_argument("--jobs", type=int, default=1,
                        help="accepted for compatibility; ignored")
    common.add_argument("--format", choices=["text", "record"], default="text")
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--provenance-out", default=None)
    common.add_argument("--out", default=None, help="write main output to file")

    subs = parser.add_subparsers(dest="command", required=True)

    sat = subs.add_parser("sat").add_subparsers(dest="action", required=True)
    p = sat.add_parser("check", parents=[common])
    p.add_argument("formula"); p.add_argument("anchor"); p.add_argument("candidate")
    p = sat.add_parser("min", parents=[common])
    p.add_argument("formula"); p.add_argument("anchor")
    p = sat.add_parser("family-min", parents=[common])
    p.add_argument("formula")

    color = subs.add_parser("color").add_subparsers(dest="action", required=True)
    p = color.add_parser("check", parents=[common])
    p.add_argument("graph"); p.add_argument("coloring"); p.add_argument("candidate")
    p = color.add_parser("min", parents=[common])
    p.add_argument("graph"); p.add_argument("coloring")
    p = color.add_parser("family-min", parents=[common])
    p.add_argument("graph")

    reduce_ = subs.add_parser("reduce").add_subparsers(dest="action", required=True)
    for name in ("mu", "split3"):
        p = reduce_.add_parser(name, parents=[common])
        p.add_argument("formula")
        p.add_argument("--x-vars", default="", help="comma-separated outer block")
    p = reduce_.add_parser("q2", parents=[common])
    p.add_argument("formula")
    p.add_argument("--x-vars", default="")
    p.add_argument("--anchor", default=None,
                   help="proper partial assignment file over the y-block")
    p = reduce_.add_parser("q3", parents=[common])
    p.add_argument("formula"); p.add_argument("anchor")
    p = reduce_.add_parser("gphi", parents=[common])
    p.add_argument("formula"); p.add_argument("anchor")
    p = reduce_.add_parser("h", parents=[common])
    p.add_argument("graph"); p.add_argument("coloring")

    p = subs.add_parser("verify", parents=[common])
    p.add_argument("reduction", choices=sorted(VERIFIERS))
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    sub = args.command if args.command == "verify" else f"{args.command}-{args.action}"
    config = RunConfig(sub, args)
    try:
        code = dispatch(config)
    except (CnfError, GraphError, ContractViolation, CapExceeded,
            FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in config.lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
