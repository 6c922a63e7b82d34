"""Command-line front end.

Subcommands: peel, zariski, invariants, pencil, example, search,
selftest.  Output is canonical JSON by default or an aligned text
table with --format table.  Each report is assembled once, in
`_report` or in the layer it names, and `jsonio.dumps` emits it; the
table is rendered from the parsed JSON text, so both formats show the
same values.  Exit codes: 0 on success, 1 on input errors (including
argument errors), 2 on internal failures.

Start-up loads only the core every command shares: jsonio, through
which each report is read and written (it loads the lattice, dualgraph
and linalg layers), and peeling, which is all `peel` adds.  Every
other layer is imported inside the branch that runs it.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from gettext import gettext
from typing import Optional, Sequence

from . import __version__
from .errors import InputError, InternalError
from .jsonio import (dumps, load_classes, load_graph, load_model,
                     parse_class_arg, record_fields, render_table,
                     run_manifest)
from .lattice import INTEGER_RE, parse_rational
from .peeling import bark


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, arguments=None, **kwargs):
        super().__init__(*args, add_help=arguments is None, **kwargs)
        # argparse reads -1,2 or -1:1 as an unknown option, and only a lone
        # number as a value; no option here starts with -<digit>
        self._negative_number_matcher = re.compile(r"-[0-9]")
        # adds this parser's arguments, -h first, when it first parses, so
        # that a run builds the arguments of the commands it names alone
        self._arguments = arguments

    # argparse reaches a subcommand's parser through this method too
    def parse_known_args(self, args=None, namespace=None):
        if self._arguments:
            arguments, self._arguments = self._arguments, None
            # the call argparse makes for add_help, so -h stays first
            self.add_argument("-h", "--help", action="help",
                              default=argparse.SUPPRESS,
                              help=gettext("show this help message and exit"))
            arguments(self)
        return super().parse_known_args(args, namespace)

    # argparse exits with status 2 on bad arguments; bad arguments are
    # input errors here, so route them through InputError instead
    def error(self, message):
        raise InputError(message)


def _int(text: str) -> int:
    """An integer argument, spelled as parse_rational reads an int."""
    if not INTEGER_RE.fullmatch(text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return parse_rational(text)


def _span(text: str, name: str) -> tuple[int, int]:
    """LO:HI, or N for N:N; each part spelled as for `_int`."""
    parts = text.split(":")
    if len(parts) > 2 or not all(map(INTEGER_RE.fullmatch, parts)):
        raise InputError(f"--{name} expects LO:HI (got {text!r})")
    return parse_rational(parts[0]), parse_rational(parts[-1])


def _manifest(sp):
    sp.add_argument("--manifest", metavar="PATH",
                    help="write a reproducibility manifest here")


def _common(sp):
    sp.add_argument("--format", choices=["json", "table"], default="json")
    _manifest(sp)


def _peel_arguments(sp):
    sp.add_argument("graph", help="dual graph JSON file")
    _common(sp)


def _zariski_arguments(sp):
    sp.add_argument("model", help="surface model JSON file")
    sp.add_argument("--class", dest="cls", required=True,
                    help="comma-separated coefficients")
    sp.add_argument("--candidates", required=True,
                    help="JSON file with an array of candidate classes")
    _common(sp)


def _invariants_arguments(sp):
    sp.add_argument("model", help="surface model JSON file")
    sp.add_argument("graph", help="dual graph JSON file")
    sp.add_argument("--class", dest="cls", required=True,
                    help="boundary class, comma-separated")
    _common(sp)


def _pencil_arguments(sp):
    sp.add_argument("model", help="surface model JSON file")
    sp.add_argument("--divisor", required=True,
                    help="boundary class, comma-separated")
    sp.add_argument("--candidates", required=True,
                    help="JSON file with fixed-part candidates")
    _common(sp)


def _example_arguments(sp):
    # a known prog spares argparse formatting the usage to derive it
    sp.add_subparsers(dest="action", required=True, prog=sp.prog).add_parser(
        "run", arguments=_example_run_arguments)


def _example_run_arguments(sp):
    sp.add_argument("name", choices=["ex2", "ex3"])
    sp.add_argument("--a", type=_int, default=None,
                    help="family parameter for ex3 (default 2)")
    _common(sp)


def _search_arguments(sp):
    sp.add_argument("family", choices=["ex4"])
    sp.add_argument("--g", required=True, metavar="LO:HI")
    sp.add_argument("--x", required=True, metavar="LO:HI")
    sp.add_argument("--y", required=True, metavar="LO:HI")
    _common(sp)


def _selftest_arguments(sp):
    sp.add_argument("--criterion", type=_int, action="append", default=None,
                    help="run only this criterion (repeatable)")
    _manifest(sp)


def build_parser() -> _Parser:
    """The `logpair` parser.  Every subcommand is registered with its
    help text and adds its arguments when it first parses."""
    p = _Parser(prog="logpair",
                description="exact intersection-theory toolkit for "
                            "boundary pairs on rational surface models")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True, prog=p.prog)
    for name, text, arguments in (
            ("peel", "bark of a dual graph", _peel_arguments),
            ("zariski", "decompose a class against candidate curves",
             _zariski_arguments),
            ("invariants", "log invariants and identity checks",
             _invariants_arguments),
            ("pencil", "adjoint system analysis", _pencil_arguments),
            ("example", "run a bundled configuration", _example_arguments),
            ("search", "inequality grid search", _search_arguments),
            ("selftest", "run the acceptance checks", _selftest_arguments)):
        sub.add_parser(name, help=text, arguments=arguments)
    return p


def _flatten(obj, prefix: str, rows: list) -> None:
    if isinstance(obj, dict):
        for k in sorted(obj):
            _flatten(obj[k], f"{prefix}.{k}" if prefix else str(k), rows)
        return
    if isinstance(obj, list):
        if all(not isinstance(v, (dict, list)) for v in obj):
            rows.append((prefix, "[" + ", ".join(_scalar(v)
                                                 for v in obj) + "]"))
            return
        for i, v in enumerate(obj):
            _flatten(v, f"{prefix}[{i}]", rows)
        return
    rows.append((prefix, _scalar(obj)))


def _scalar(v) -> str:
    if isinstance(v, bool):
        return "yes" if v else "no"
    if v is None:
        return "-"
    return str(v)


def _search_table(result: dict) -> str:
    headers = ["g", "e", "x", "y", "a", "k", "dim_positive", "big",
               "effective", "fixed_part", "feasible"]
    rows = [[_scalar(r[h] if h in r else r["inequalities"][h])
             for h in headers] for r in result["rows"]]
    out = render_table(headers, rows)
    ref = result["reference_claim"]
    out += (f"\nrows: {result['row_count']}, feasible: "
            f"{result['feasible_count']}\n")
    out += (f"reference instance g={ref['g']} e={ref['e']} x={ref['x']} "
            f"y={ref['y']}: computed feasible = "
            f"{'yes' if ref['computed_feasible'] else 'no'}"
            f"{' (disagrees with the circulated claim)' if ref['discrepancy'] else ''}\n")
    iv = result.get("interval_x8_y1")
    if iv:
        nonempty = [row["g"] for row in iv["per_g"] if row["nonempty"]]
        variant = [row["g"] for row in iv["per_g"]
                   if row["variant_nonempty"]]
        out += ("integer window at x=8, y=1 nonempty for g in "
                f"{_compact_span(nonempty)}; variant threshold gives "
                f"{_compact_span(variant)}\n")
    return out


def _compact_span(values: list) -> str:
    if not values:
        return "(none)"
    runs = []
    start = prev = values[0]
    for v in values[1:]:
        if v == prev + 1:
            prev = v
            continue
        runs.append((start, prev))
        start = prev = v
    runs.append((start, prev))
    return ", ".join(f"{a}" if a == b else f"{a}..{b}" for a, b in runs)


def _report(args) -> tuple[object, list[str]]:
    """(report, input file paths) for a report subcommand."""
    if args.command == "peel":
        bk = bark(load_graph(args.graph))
        return {
            **record_fields(bk, omit=("report",)),
            "segments": [
                record_fields(s, omit=("reason", "coefficients"))
                for s in bk.report.admissible_segments],
            "excluded": [
                record_fields(s, omit=("attach", "coefficients"))
                for s in bk.report.excluded],
        }, [args.graph]

    if args.command == "zariski":
        from .zariski import verify_decomposition, zariski_decompose
        model = load_model(args.model)
        cls = parse_class_arg(args.cls, model)
        candidates = load_classes(args.candidates, model)
        z = zariski_decompose(model, cls, candidates)
        checks = verify_decomposition(model, cls, candidates, z)
        return {
            **record_fields(z),
            "checks": {**record_fields(checks), "all_ok": checks.all_ok},
        }, [args.model, args.candidates]

    if args.command == "invariants":
        from .invariants import invariant_report
        model = load_model(args.model)
        graph = load_graph(args.graph)
        rep = invariant_report(model, parse_class_arg(args.cls, model),
                               graph)
        ebr = rep.euler_bound
        return {
            **record_fields(rep.invariants),
            "boundary_square": rep.boundary_square,
            "checks": {
                "noether": rep.noether_holds,
                "euler_hypothesis": ebr.hypothesis_holds,
                "euler_conclusion": ebr.conclusion_holds,
                "euler_strong_conclusion": ebr.strong_conclusion_holds,
                "chi_omega_log": ebr.chi_omega_log,
                "bmy": rep.bmy_holds,
            },
            "bark_square": rep.bark.gram_square,
            "p_sq": rep.p_sq,
        }, [args.model, args.graph]

    if args.command == "pencil":
        from .pencil import analyze_adjoint_system
        model = load_model(args.model)
        boundary = parse_class_arg(args.divisor, model)
        candidates = load_classes(args.candidates, model)
        return (analyze_adjoint_system(model, boundary, candidates),
                [args.model, args.candidates])

    if args.command == "example":
        from .examples import run_example
        return run_example(args.name, args.a), []

    if args.command == "search":
        from .search import run_search
        return run_search(_span(args.g, "g"), _span(args.x, "x"),
                          _span(args.y, "y")), []

    raise InternalError(f"unhandled command {args.command!r}")


def _selftest(args) -> tuple[str, int]:
    from .selftest import run_all
    results = run_all(only=args.criterion)
    if not results:
        raise InputError("no matching criterion")
    lines = [r.line() for r in results]
    ok = all(r.passed for r in results)
    lines.append("all criteria passed" if ok
                 else "FAILED criteria: "
                      + ", ".join(str(r.number) for r in results
                                  if not r.passed))
    return "\n".join(lines) + "\n", (0 if ok else 2)


def _run(args) -> tuple[str, int, list[str]]:
    """Returns (output text, exit code, input file paths)."""
    if args.command == "selftest":
        text, code = _selftest(args)
        return text, code, []
    report, inputs = _report(args)
    if args.format == "json":
        return dumps(report), 0, inputs
    tree = json.loads(dumps(report))
    if args.command == "search":
        return _search_table(tree), 0, inputs
    rows: list = []
    _flatten(tree, "", rows)
    return render_table(["field", "value"], rows), 0, inputs


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        text, code, inputs = _run(args)
        sys.stdout.write(text)
        if args.manifest:
            doc = run_manifest(argv, inputs, text, __version__)
            try:
                with open(args.manifest, "w", encoding="utf-8") as fh:
                    fh.write(dumps(doc))
            except OSError as exc:
                raise InputError(f"cannot write {args.manifest}: {exc}")
        return code
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InternalError, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
