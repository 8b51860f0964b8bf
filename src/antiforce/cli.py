"""Command line interface.

Graphs travel between subcommands as JSON on stdin/stdout, so pipelines
compose: `antiforce gen path --k 4 | antiforce power --m 2 | antiforce af`.

Exit codes: 0 success, 1 usage or input error, 2 budget exhaustion,
3 internal invariant failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction

from . import graph as graphio
from .antiforcing import af_subset_search, af_via_matchings
from .budget import DEFAULT_MAX_NODES, DEFAULT_MAX_SECONDS, Budget, BudgetExceededError
from .families import FAMILIES, build
from .formulas import evaluate_formula
from .graph import MAX_ORDER, _shown, power
from .harness import (
    COLUMNS,
    STATUSES,
    InternalInvariantError,
    default_sweep_spec,
    emit_report,
    format_value,
    run_sweep,
    solve_verified,
)
from .matching import count_pms_excluding, edge_indices, enumerate_perfect_matchings


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # No message repeats an argument's text, which may be unbounded: argparse's own do
    # for a bad choice, an ambiguous prefix, a stray argument or a value on a bare flag.
    def error(self, message: str) -> None:  # type: ignore[override]
        head, ignored, _ = message.partition(": ignored explicit argument ")
        raise UsageError(head + ": takes no value" if ignored else message)

    def _get_option_tuples(self, option_string: str) -> list:  # type: ignore[override]
        matches = super()._get_option_tuples(option_string)
        if len(matches) > 1:
            raise UsageError("ambiguous option, could match " + ", ".join(t[1] for t in matches))
        return matches

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


def parse_range(text: str) -> tuple[int, ...]:
    """Inclusive integer range A, A:B, or A:B:STEP, of at most MAX_ORDER values."""
    try:
        nums = [int(p) for p in text.split(":")]
    except ValueError:
        nums = []
    if not 1 <= len(nums) <= 3:
        raise argparse.ArgumentTypeError("bad range, expected integers A[:B[:STEP]]")
    if len(nums) == 1:
        return (nums[0],)
    step = nums[2] if len(nums) == 3 else 1
    if step < 1:
        raise argparse.ArgumentTypeError(f"range step must be >= 1, got {_shown(step)}")
    if not 0 <= (nums[1] - nums[0]) // step < MAX_ORDER:
        raise argparse.ArgumentTypeError(f"range must hold 1 to {MAX_ORDER} values")
    return tuple(range(nums[0], nums[1] + 1, step))


def parse_budget(text: str) -> tuple[int, float]:
    """The caps of ``NODES`` or ``NODES:SECONDS``; a command builds its Budget from them."""
    nodes, colon, seconds = text.partition(":")
    try:
        caps = int(nodes), float(seconds) if colon else DEFAULT_MAX_SECONDS
    except ValueError:
        raise argparse.ArgumentTypeError(
            "bad budget, expected NODES[:SECONDS], an integer and a number"
        ) from None
    if not (caps[0] > 0 and caps[1] > 0):  # as Budget checks them; rejects NaN too
        raise argparse.ArgumentTypeError("budget caps must be positive")
    return caps


def _build_parser() -> _Parser:
    parser = _Parser(prog="antiforce")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    # The allowance of each solve, shared by every subcommand that searches.
    budget_flag = argparse.ArgumentParser(add_help=False)
    budget_flag.add_argument(
        "--budget",
        type=parse_budget,
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
    p_verify.add_argument("--k-range", type=parse_range, default=None, metavar="A[:B[:STEP]]")
    p_verify.add_argument("--m-range", type=parse_range, default=None, metavar="A[:B[:STEP]]")
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
    budget = Budget(*args.budget)
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
    run = af_subset_search if args.method == "subset" else af_via_matchings
    result = solve_verified(g, run, Budget(*args.budget))
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
        budget=Budget(*args.budget),
    )
    return _emit(run_sweep(spec, workers=args.workers), args)


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
    return _emit(docs, args)


def _emit(records: list[dict[str, object]], args: argparse.Namespace) -> int:
    """Write the report to stdout or --out, then its per-status counts to stderr."""
    text = emit_report(records, args.format)
    if args.out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:  # named by its option: the path may be unbounded
            raise UsageError(f"cannot write --out: {exc.strerror}") from None
    counts = Counter(rec["status"] for rec in records)
    summary = " ".join(f"{s}={counts[s]}" for s in STATUSES if counts[s])
    print(f"records={len(records)} {summary}".rstrip(), file=sys.stderr)
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
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a reader that has gone shows here, not at exit
        return code
    except BrokenPipeError:
        # Nobody reads stdout any more: the exit flush goes to the null
        # device, and there is nothing to tell.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
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
