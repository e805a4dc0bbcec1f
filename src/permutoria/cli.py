"""Command-line front end.

Subcommands: count, series, discover, biject, tableau, verify.  All output
is deterministic for fixed flags; the verify command exits nonzero exactly
when a non-conjecture suite fails.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bijections as bj
from . import counting as ct
from . import gengraph as gg
from . import involutions as iv
from . import tableau as tb
from .errors import LimitExceeded, PermutoriaError
from .kernels import engine_name
from .limits import DEFAULT_LIMITS, enforce
from .permcore import PatternSet
from .series import RationalExpr, expand_rational, series_from_cells
from .verify import CONJECTURE_SUITES, MAX_BOX_CELLS, MAX_LETTERS, SUITES, Scale, run_suite


def _parse_dcr(text: str) -> tuple[int, int, int]:
    try:
        d, c, r = (int(x) for x in text.split(","))
    except ValueError:
        d = c = r = -1
    if min(d, c, r) < 0:
        raise argparse.ArgumentTypeError(
            f"expected d,c,r as three integers >= 0, got {text!r}"
        )
    return d, c, r


def _parse_orders(text: str) -> tuple[int, int, int]:
    try:
        parts = [int(x) for x in text.split(",")]
    except ValueError:
        parts = []
    if not 1 <= len(parts) <= 3 or min(parts) < 0:
        raise argparse.ArgumentTypeError(
            f"expected one to three integer orders x,y,z >= 0, got {text!r}"
        )
    try:
        enforce(DEFAULT_LIMITS, "series_order", "order", max(parts))
    except LimitExceeded as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return tuple(parts + [0] * (3 - len(parts)))  # type: ignore[return-value]


def _at_least(low: int, high: int | None = None):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low or (high is not None and value > high):
            within = f">= {low}" if high is None else f"in {low}..{high}"
            raise argparse.ArgumentTypeError(f"expected an integer {within}, got {text!r}")
        return value

    return parse


def _parse_formula(text: str) -> RationalExpr:
    try:
        return RationalExpr.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a formula ({exc})") from None


def _parse_tail(text: str) -> tuple[int, ...]:
    """The tail tau of the patterns 12tau and 21tau: a permutation of 3..m."""
    if sorted(text) != [str(k) for k in range(3, len(text) + 3)]:
        raise argparse.ArgumentTypeError(
            f"expected a permutation of 3..m as digits, e.g. 34 or 534, got {text!r}"
        )
    return tuple(int(ch) for ch in text)


def _parse_box(text: str) -> tuple[int, int]:
    rows, sep, cols = text.partition("x")
    if not (sep and rows.isdecimal() and cols.isdecimal() and min(int(rows), int(cols)) >= 1):
        raise argparse.ArgumentTypeError(
            f"expected ROWSxCOLS with both sides >= 1, e.g. 4x4, got {text!r}"
        )
    if int(rows) * int(cols) > MAX_BOX_CELLS:
        raise argparse.ArgumentTypeError(
            f"expected a box of at most {MAX_BOX_CELLS} cells, got {text!r}"
        )
    return int(rows), int(cols)


def _parse_tableau(text: str) -> tb.SkewTableau:
    try:
        return tb.SkewTableau.from_json(text)
    except (ValueError, KeyError, TypeError, PermutoriaError) as exc:
        raise argparse.ArgumentTypeError(
            f"not a JSON tableau ({type(exc).__name__}: {exc})"
        ) from exc


def _emit_table(rows: list[tuple[str, int]], fmt: str):
    if fmt == "json":
        print(json.dumps({key: value for key, value in rows}))
    else:
        for key, value in rows:
            print(f"{key}\t{value}")


def cmd_count(args) -> int:
    limits = DEFAULT_LIMITS
    patterns = args.patterns
    rows: list[tuple[str, int]] = []
    if args.sequence:
        # the terms are the x-coefficients of series that series_order caps
        enforce(limits, "series_order", "n", args.n)
        ns = range(args.n + 1) if args.upto else [args.n]
        for n in ns:
            rows.append((str(n), ct.sequence(args.sequence, n)))
        _emit_table(rows, args.format)
        return 0
    if args.dcr is not None:
        if patterns is None:
            raise SystemExit("--dcr requires --patterns")
        d, c, r = args.dcr
        rows.append((f"{d},{c},{r}", ct.count_extended(d, c, r, patterns, limits)))
    else:
        ns = range(args.n + 1) if args.upto else [args.n]
        for n in ns:
            if args.da:
                rows.append((str(n), ct.count_da(n, patterns, limits)))
            else:
                if patterns is None:
                    raise SystemExit("--patterns is required unless --da is given")
                rows.append((str(n), ct.count_avoiders(n, patterns, limits)))
    _emit_table(rows, args.format)
    return 0


def cmd_series(args) -> int:
    orders = args.orders
    total = args.total if args.total is not None else min(
        sum(orders), DEFAULT_LIMITS.extended
    )
    if args.formula:
        series = expand_rational(args.formula, orders)
    elif args.brute:
        if not args.patterns:
            raise SystemExit("--brute requires --patterns")
        cells = ct.extended_table(args.patterns, total, DEFAULT_LIMITS)
        series = series_from_cells(cells, orders)
    else:
        raise SystemExit("need --formula or --brute")
    items = [(m, v) for m, v in series.items() if sum(m) <= total]
    if args.format == "json":
        print(json.dumps({f"{a},{b},{c}": v for (a, b, c), v in items}))
    else:
        print(f"# orders={orders[0]},{orders[1]},{orders[2]} total<={total}")
        for (a, b, c), v in items:
            print(f"{a},{b},{c}\t{v}")
    return 0


def cmd_discover(args) -> int:
    patterns = args.patterns
    graph, _ = gg.discover_graph(
        patterns, args.rule, args.depth, args.fingerprint_depth, DEFAULT_LIMITS
    )
    if args.validate:
        ok, disc = gg.validate_graph(graph, patterns, args.rule, args.validate, DEFAULT_LIMITS)
        print(f"# validated to horizon {args.validate}: {'ok' if ok else disc}", file=sys.stderr)
    if args.format == "dot":
        print(graph.to_dot())
    else:
        print(graph.to_json())
    return 0


def cmd_biject(args) -> int:
    limits = DEFAULT_LIMITS
    rows = []
    if args.name == "phi":
        for w in ct.enumerate_avoiders(args.n, PatternSet.parse("1234"), limits):
            rows.append((w, bj.phi(w)))
    elif args.name == "theta":
        for w in ct.enumerate_da(args.n, PatternSet.parse("2413"), limits):
            rows.append((w, bj.theta(w)))
    elif args.name == "psi":
        head = PatternSet([(1, 2) + args.tau])
        for w in ct.enumerate_da(args.n, head, limits):
            rows.append((w, bj.psi(w, args.tau)))
    else:
        raise SystemExit(f"unknown bijection {args.name}")
    for source, image in rows:
        src = ",".join(map(str, source)) if isinstance(source, tuple) else source
        img = ",".join(map(str, image)) if isinstance(image, tuple) else image
        print(f"{src}\t{img}")
    return 0


def cmd_tableau(args) -> int:
    t = args.input
    ops = {
        "jdt": iv.jdt,
        "evacuate": iv.schuetzenberger,
        "reversal": iv.reversal,
        "rotate": tb.rotate,
        "omega": iv.omega,
    }
    if args.op == "rsk":
        p, q = iv.rsk_tableau(t)
        print(p.to_json())
        print(q.to_json())
        return 0
    if args.op == "rec":
        print(json.dumps([list(row) for row in tb.recording_matrix(t)]))
        return 0
    result = ops[args.op](t)
    if args.pretty:
        print(result.pretty())
    else:
        print(result.to_json())
    return 0


def cmd_verify(args) -> int:
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    scale = Scale(box=args.box, letters=args.letters)
    worst = 0
    for name in names:
        report = run_suite(name, scale)
        if args.format == "json":
            print(json.dumps(report.to_json_dict()))
        else:
            print(f"== {report.suite} [{report.universe}]")
            for row in report.rows:
                print(f"   {row}")
            print(f"   => {report.passed} passed, {report.failed} failed")
        if report.failed and name not in CONJECTURE_SUITES:
            worst = 1
    return worst


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """Report a usage error in one line, as every other input error is."""
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="permutoria",
        description="Pattern-avoiding permutations, generating graphs and tableau involutions",
    )
    parser.add_argument("--version", action="store_true", help="print version and engine")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("count", help="count avoiders or named sequences")
    p.add_argument(
        "--patterns", type=PatternSet.parse, help="comma-separated patterns, e.g. 2413,3142"
    )
    p.add_argument("--n", type=_at_least(0), default=0)
    p.add_argument("--upto", action="store_true", help="emit all sizes 0..n")
    p.add_argument("--da", action="store_true", help="doubly alternating avoiders")
    p.add_argument("--dcr", type=_parse_dcr, help="extended cell d,c,r")
    p.add_argument(
        "--sequence",
        choices=sorted(ct.SEQUENCES),
        help="emit a named sequence instead of counting",
    )
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("series", help="expand a formula or a brute-force table")
    p.add_argument("--formula", type=_parse_formula, help="expression in x, y, z and c(x)")
    p.add_argument("--brute", action="store_true")
    p.add_argument("--patterns", type=PatternSet.parse)
    p.add_argument("--orders", type=_parse_orders, default=(6, 4, 4))
    p.add_argument("--total", type=_at_least(0), help="total-degree cap (default: extended limit)")
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("discover", help="discover a generating graph")
    p.add_argument("--patterns", type=PatternSet.parse, required=True)
    p.add_argument(
        "--rule",
        choices=("standard", "standard-extended", "alt-extended"),
        default="standard-extended",
    )
    p.add_argument("--depth", type=_at_least(0), default=6)
    p.add_argument("--fingerprint-depth", type=_at_least(1), default=4)
    p.add_argument("--validate", type=_at_least(0), help="horizon for brute-force validation")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.set_defaults(func=cmd_discover)

    p = sub.add_parser("biject", help="tabulate one of the explicit bijections")
    p.add_argument("--name", choices=("phi", "theta", "psi"), required=True)
    p.add_argument("--n", type=_at_least(0), required=True)
    p.add_argument("--tau", type=_parse_tail, default="34", help="pattern tail for psi, e.g. 34")
    p.set_defaults(func=cmd_biject)

    p = sub.add_parser("tableau", help="apply a tableau map to a JSON tableau")
    p.add_argument(
        "--op",
        choices=("jdt", "evacuate", "reversal", "rotate", "omega", "rsk", "rec"),
        required=True,
    )
    p.add_argument("--input", type=_parse_tableau, required=True, help="JSON tableau")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_tableau)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", help="suite name or 'all'")
    p.add_argument(
        "--box", type=_parse_box, default="4x4",
        help=f"bounding box for tableau suites, e.g. 4x4, at most {MAX_BOX_CELLS} cells",
    )
    p.add_argument("--letters", type=_at_least(1, MAX_LETTERS), default=4)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.version:
        from . import __version__

        print(f"permutoria {__version__} ({engine_name()} kernels)")
        return 0
    if not getattr(args, "command", None):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except PermutoriaError as exc:
        print(f"permutoria: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
