"""Command line interface.

Graphs travel between subcommands as JSON on stdin/stdout, so pipelines
compose: `antiforce gen path --k 4 | antiforce power --m 2 | antiforce af`.

Exit codes: 0 success, 1 usage or input error, 2 budget exhaustion,
3 internal invariant failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from fractions import Fraction

from . import graph as graphio
from .antiforcing import af_subset_search, af_via_matchings, is_anti_forcing_set
from .budget import DEFAULT_MAX_NODES, DEFAULT_MAX_SECONDS, BudgetExceededError, parse_budget
from .families import FAMILIES, build
from .formulas import evaluate_formula
from .graph import MAX_ORDER, power
from .harness import (
    COLUMNS,
    STATUSES,
    InternalInvariantError,
    default_sweep_spec,
    emit_report,
    format_value,
    parse_range,
    run_sweep,
)
from .matching import count_pms_excluding, edge_indices, enumerate_perfect_matchings


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # No message repeats an argument's text, which may be unbounded:
    # argparse's own messages for a bad choice or a stray argument do.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)

    def _check_value(self, action: argparse.Action, value: object) -> None:
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(str, action.choices))
            raise argparse.ArgumentError(action, f"invalid choice, expected one of: {choices}")

    def parse_args(self, args=None, namespace=None):  # type: ignore[override]
        parsed, extra = self.parse_known_args(args, namespace)
        if extra:
            raise UsageError(f"{len(extra)} unrecognized argument(s), see --help")
        return parsed


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected an integer") from None


def _range(text: str) -> tuple[int, ...]:
    try:
        return parse_range(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build_parser() -> _Parser:
    parser = _Parser(prog="antiforce")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    # The allowance of each solve, shared by every subcommand that searches.
    budget_flag = argparse.ArgumentParser(add_help=False)
    budget_flag.add_argument(
        "--budget",
        default=f"{DEFAULT_MAX_NODES}:{DEFAULT_MAX_SECONDS}",
        metavar="NODES[:SECONDS]",
        help="search allowance of each solve (default: %(default)s)",
    )

    p_gen = sub.add_parser("gen", help="emit a family graph as JSON")
    p_gen.add_argument("family", choices=sorted(FAMILIES))
    p_gen.add_argument("--k", type=_integer, required=True)

    p_pow = sub.add_parser("power", help="raise the stdin graph to a distance power")
    p_pow.add_argument("--m", type=_integer, required=True)

    p_pm = sub.add_parser("pm", parents=[budget_flag], help="perfect matchings of the stdin graph")
    mode = p_pm.add_mutually_exclusive_group()
    mode.add_argument("--count", action="store_true")
    mode.add_argument("--unique", action="store_true")
    p_pm.add_argument("--cap", type=_integer, default=None)

    p_af = sub.add_parser(
        "af", parents=[budget_flag], help="anti-forcing number of the stdin graph"
    )
    p_af.add_argument("--method", choices=("subset", "matchings"), default="matchings")

    p_formula = sub.add_parser("formula", help="closed-form value for a family")
    p_formula.add_argument("family", choices=sorted(FAMILIES))
    p_formula.add_argument("--k", type=_integer, required=True)
    p_formula.add_argument("--m", type=_integer, required=True)

    p_verify = sub.add_parser(
        "verify", parents=[budget_flag], help="sweep a family against the oracle"
    )
    p_verify.add_argument("family", choices=sorted(FAMILIES))
    p_verify.add_argument("--k-range", type=_range, default=None, metavar="A[:B[:STEP]]")
    p_verify.add_argument("--m-range", type=_range, default=None, metavar="A[:B[:STEP]]")
    p_verify.add_argument("--format", choices=("csv", "json"), default="csv")
    p_verify.add_argument("--out", type=str, default=None)
    p_verify.add_argument("--workers", type=_integer, default=1)

    p_report = sub.add_parser("report", help="re-emit a JSON record array from stdin")
    p_report.add_argument("--format", choices=("csv", "json"), required=True)
    p_report.add_argument("--out", type=str, default=None)

    return parser


def _read_graph() -> graphio.Graph:
    text = sys.stdin.read()
    if not text.strip():
        raise UsageError("expected a graph on stdin (JSON or 'n m' edge list)")
    return graphio.loads(text)


def _cmd_gen(args: argparse.Namespace) -> int:
    print(graphio.to_json(build(args.family, args.k)))
    return 0


def _cmd_power(args: argparse.Namespace) -> int:
    print(graphio.to_json(power(_read_graph(), args.m)))
    return 0


def _cmd_pm(args: argparse.Namespace) -> int:
    if args.cap is not None and (args.count or args.unique):
        raise UsageError("--cap applies only to the matching list; drop it")
    g = _read_graph()
    budget = parse_budget(args.budget)
    if args.unique:
        doc = {"unique": count_pms_excluding(g, cap=2, budget=budget) == 1}
    elif args.count:
        doc = {"count": count_pms_excluding(g, budget=budget)}
    else:
        matchings = enumerate_perfect_matchings(g, cap=args.cap, budget=budget)
        doc = {"matchings": [[list(g.sorted_edges[i]) for i in edge_indices(m)] for m in matchings]}
    print(json.dumps(doc))
    return 0


def _cmd_af(args: argparse.Namespace) -> int:
    g = _read_graph()
    budget = parse_budget(args.budget)
    run = af_subset_search if args.method == "subset" else af_via_matchings
    result = run(g, budget)
    if result.method != "convention_no_pm":
        # The re-check charges the solve's budget; running out there still
        # leaves the value the solve found as both bounds.
        try:
            verified = is_anti_forcing_set(g, result.witness, budget)
        except BudgetExceededError as exc:
            exc.lower = exc.upper = result.value
            raise
        if not verified:
            raise InternalInvariantError(f"unverifiable witness from {result.method}")
    print(
        json.dumps(
            {
                "value": result.value,
                "witness": [list(e) for e in sorted(result.witness)],
                "method": result.method,
            }
        )
    )
    return 0


def _cmd_formula(args: argparse.Namespace) -> int:
    res = evaluate_formula(args.family, args.k, args.m)
    if res is None:
        raise UsageError(f"no closed form for family {args.family!r}")
    value = res.value
    doc = {
        "value": format_value(value) if isinstance(value, Fraction) else value,
        "kind": res.kind,
        "case": res.case,
        "applicability": res.applicability,
    }
    if res.kind == "bounds":
        doc.update(lower=format_value(res.lower), upper=format_value(res.upper))
    print(json.dumps(doc))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.workers < 1:
        raise UsageError("--workers must be >= 1")
    default = default_sweep_spec(args.family)
    spec = replace(
        default,
        k_values=args.k_range or default.k_values,
        m_values=args.m_range or default.m_values,
        budget=parse_budget(args.budget),
    )
    records = run_sweep(spec, workers=args.workers)
    text = emit_report(records, fmt=args.format, path=args.out)
    if args.out is None:
        sys.stdout.write(text)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    try:
        docs = json.loads(sys.stdin.read())
    except json.JSONDecodeError as exc:
        raise UsageError(f"stdin is not a JSON record array: {exc}") from None
    if not isinstance(docs, list) or not all(isinstance(d, dict) for d in docs):
        raise UsageError("expected a JSON array of record objects")
    for doc in docs:
        missing = [c for c in COLUMNS if c not in doc]
        if missing:
            raise UsageError(f"record missing keys: {missing}")
        if doc["status"] not in STATUSES:
            raise UsageError("record column 'status' is not a known status")
        bad = [c for c, t in COLUMNS.items() if type(doc[c]) is bool or not isinstance(doc[c], t)]
        if bad:
            raise UsageError(
                f"record column {bad[0]!r} has a bad value: {graphio._shown(doc[bad[0]])}"
            )
    text = emit_report(docs, fmt=args.format, path=args.out)
    if args.out is None:
        sys.stdout.write(text)
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "power": _cmd_power,
    "pm": _cmd_pm,
    "af": _cmd_af,
    "formula": _cmd_formula,
    "verify": _cmd_verify,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    # The matching searches recurse once per matched edge, up to
    # MAX_ORDER / 2 deep: past the default limit of 1,000 frames.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 4 * MAX_ORDER))
    try:
        return _run(argv)
    finally:
        sys.setrecursionlimit(limit)


def _run(argv: list[str] | None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help(sys.stderr)
            return 1
        return _COMMANDS[args.command](args)
    except (UsageError, ValueError, OSError) as exc:
        print(f"antiforce: {exc}", file=sys.stderr)
        return 1
    except RecursionError as exc:
        print(f"antiforce: input too deep: {exc}", file=sys.stderr)
        return 1
    except BudgetExceededError as exc:
        bounds = []
        if exc.lower is not None:
            bounds.append(f"value >= {exc.lower}")
        if exc.upper is not None:
            bounds.append(f"value <= {exc.upper}")
        hint = f" ({', '.join(bounds)})" if bounds else ""
        print(f"antiforce: budget exhausted{hint}", file=sys.stderr)
        return 2
    except (InternalInvariantError, AssertionError) as exc:
        print(f"antiforce: internal invariant failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
