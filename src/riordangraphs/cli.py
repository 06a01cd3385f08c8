"""Command-line front end.

Subcommands: graph, metric, verify, scan, reproduce.  Exit codes:
0 = verified / no violations, 1 = mathematical discrepancy found,
2 = usage or resource error, 130 = interrupted; each refusal, and an
interrupt, is one `error:` line.  All output is line-oriented UTF-8.
graph, metric, verify and scan are priced by `errors._guard` before
anything is built: scans at --budget, the others at DEFAULT_BUDGET.

The grammar holds every rule on a command line's shape: a command takes
only the arguments it reads (a metric's, claim's or conjecture's after
its name), none abbreviated, and one graph descriptor flag if it
measures the caller's graph.  An --aseq literal names the polynomial
A(z) with those coefficients: it is zero-extended on the right to
whatever length the requested order needs.  Library calls proper are
stricter and never extend.
"""

from __future__ import annotations

import argparse
import os
import sys

# analysis, search and golden are imported by the commands that run them,
# so that every other command starts without them
from .errors import (
    DEFAULT_BUDGET, DisconnectedError, IoViolationError, RiordanError, UsageError, _guard,
)
from .binseries import BinarySeries, from_bitstring
from .riordan import ASequence, RiordanPair, _io_length
from .rgraph import Graph, _require_clique_order, build, build_bell_aseq, catalan_graph, pascal_graph

FAMILIES = ("catalan", "pascal")
# reproduce target -> (Catalan order, reversed labels, golden printer)
MATRICES = {
    "figure1": (6, False, "printed_cg6"),
    "example-cg8r": (8, True, "printed_cg8_reverse"),
}


class _Parser(argparse.ArgumentParser):
    """Every parser: no abbreviated flags, and a refusal is a UsageError."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


def _descriptor(args, flags: tuple[str, ...]) -> tuple[str, object]:
    """The descriptor flag given among `flags` (the parser admits one), with its value."""
    return next((f, getattr(args, f)) for f in flags if getattr(args, f) is not None)


def _aseq(flag: str, value, order: int) -> ASequence:
    """The A-sequence a descriptor names, zero-extended to determine
    graphs of `order`: catalan is all ones, pascal 11, --aseq-ones N
    is N ones."""
    length = _io_length(order)
    if flag == "family":
        value = "1" * length if value == "catalan" else "11"
    elif flag == "aseq_ones":
        value = [1] * value
    a = ASequence(value)  # a malformed literal is reported as given
    return ASequence(a.bits + (0,) * (length - len(a)))


def _graph_from_args(args, n: int) -> Graph:
    flag, value = _descriptor(args, ("family", "g", "aseq"))
    _guard(1, (max(n, 0),), DEFAULT_BUDGET)  # the builder refuses an order below 1
    if getattr(args, "metric", None) == "clique":  # `graph` has no metric
        _require_clique_order(n)
    if flag == "family":
        return catalan_graph(n) if value == "catalan" else pascal_graph(n)
    if flag == "g":
        # widened to order n's need; a malformed literal is reported as given
        g = BinarySeries(from_bitstring(value).bits, max(len(value), n - 1))
        return build(RiordanPair(g, BinarySeries(g.bits << 1, g.precision)), n)
    return build_bell_aseq(_aseq(flag, value, n), n)


def _add_descriptor(p: argparse.ArgumentParser, graph: bool) -> None:
    """Exactly one graph descriptor: --family or --aseq, or --g too for
    `graph` and `metric`, which also take the order -n."""
    d = p.add_mutually_exclusive_group(required=True)
    d.add_argument("--family", choices=FAMILIES, help="named graph family")
    if graph:
        d.add_argument("--g", metavar="BITS", help="g coefficients; Bell pair (g, zg)")
    d.add_argument("--aseq", metavar="BITS", help="binary A-sequence (a0 first)")
    if graph:
        p.add_argument("-n", type=int, required=True, help="graph order")


def _cmd_graph(args) -> int:
    G = _graph_from_args(args, args.n)
    if args.reverse:
        G = G.reverse_direct()
    if args.format == "dot":
        print(G.to_dot())
    elif args.format == "csv":
        print(G.edges_csv())
    elif args.format == "table":
        for v in range(1, G.n + 1):
            nb = " ".join(map(str, sorted(G.neighbors(v))))
            print(f"{v}: {nb}")
    else:
        for line in G.to_matrix_lines():
            print(line)
    return 0


def _cmd_metric(args) -> int:
    G = _graph_from_args(args, args.n)
    if args.metric == "diameter":
        print(G.diameter())
    elif args.metric == "distance":
        d = G.distance(args.u, args.v)
        print("unreachable" if d is None else d)
    elif args.metric == "clique":
        print(G.max_clique_size())
    elif args.metric == "colors":
        colors = G.io_coloring()
        print(len(set(colors)))
        classes: dict[int, list[int]] = {}
        for v, c in enumerate(colors, start=1):
            classes.setdefault(c, []).append(v)
        for c in sorted(classes):
            print(f"color {c}: {' '.join(map(str, classes[c]))}")
    else:  # universal
        vs = sorted(G.universal_vertices())
        print(" ".join(map(str, vs)) if vs else "none")
    return 0


def _cmd_verify(args) -> int:
    from . import analysis

    params = {name: getattr(args, name) for name in args.params}
    # a claim that measures the caller's graph takes it from --family or --aseq
    descriptor = _descriptor(args, ("family", "aseq")) if hasattr(args, "family") else None
    orders = analysis.claim_order(args.claim, **params)  # priced there
    if descriptor is not None:
        params["a"] = _aseq(*descriptor, max(orders))
    report = getattr(analysis, "verify_" + args.claim.replace("-", "_"))(**params)
    print(report.to_line())
    for note in report.notes:
        print(f"# {note}")
    return 1 if report.verdict == analysis.FAIL else 0


def _cmd_scan(args) -> int:
    from . import search

    if args.jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {args.jobs}")
    if args.conjecture == "1":
        flag, value = _descriptor(args, ("alen", "aseq", "aseq_ones"))
        if flag == "alen":
            a_len, sequences = value, None
        else:
            # priced before the descriptor is extended to order --nmax, entries too
            length = value if flag == "aseq_ones" else len(value)
            search.price_conjecture1(args.nmax, [max(length, _io_length(args.nmax))], args.budget)
            a_len, sequences = None, [_aseq(flag, value, args.nmax)]
        report = search.scan_conjecture1(
            args.nmax, a_len=a_len, sequences=sequences,
            budget=args.budget, jobs=args.jobs,
        )
    elif args.conjecture == "2":
        report = search.scan_conjecture2(
            args.k, sample=args.sample, seed=args.seed,
            budget=args.budget, jobs=args.jobs,
        )
    else:
        report = search.scan_conjecture3(args.nmax, budget=args.budget)
    print(search.CSV_HEADER)
    for rec in report.violations if args.violations_only else report.records:
        print(rec.to_csv())
    print(
        f"# conjecture {report.conjecture}: {len(report.records)} records, "
        f"{len(report.violations)} violations",
        file=sys.stderr,
    )
    return 0 if report.passed else 1


def _diff_matrix(computed: list[str], printed: list[str]) -> list[str]:
    notes = []
    if computed == printed:
        notes.append("# match: computed matrix equals the printed one")
    else:
        for i, (a, b) in enumerate(zip(computed, printed), start=1):
            if a != b:
                notes.append(f"# row {i} differs: computed {a} printed {b}")
    return notes


def _cmd_reproduce(args) -> int:
    from . import golden

    target = args.target
    if target in MATRICES:
        order, reverse, printer = MATRICES[target]
        G = catalan_graph(order)
        computed = (G.reverse_direct() if reverse else G).to_matrix_lines()
        want = getattr(golden, printer)()
        for line in computed + _diff_matrix(computed, want):
            print(line)
        return 0 if computed == want else 1
    from . import search

    if target == "counterexamples":
        rows = search.reproduce_counterexamples()
        printed = golden.printed_counterexamples()
        print("n,diam_catalan,diam_g")
        for row in rows:
            print(",".join(map(str, row)))
        ok = rows == printed
        print(f"# {'match' if ok else 'MISMATCH'} against printed table "
              f"({len(rows)} rows)", file=sys.stderr)
        return 0 if ok else 1
    (table,) = search.reproduce_tables(target)
    print("aseq,diam,status,printed")
    for row in table.rows:
        printed = "|".join(map(str, row.printed)) if row.printed else "-"
        print(f"{row.aseq},{row.diam},{row.status},{printed}")
    for seq, times, values in table.duplicates:
        print(f"# printed duplicate: {seq} appears {times} times "
              f"with values {sorted(set(values))}")
    for seq in table.omitted:
        print(f"# omitted from print: {seq}")
    for seq in table.foreign:
        print(f"# printed but outside the enumeration: {seq}")
    bad = table.genuine_mismatches
    if bad:
        print(f"# {len(bad)} genuine mismatches", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="riordangraphs",
                     description="Riordan graphs over GF(2): build, measure, verify, scan.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("graph", help="print a graph (matrix, DOT or edge CSV)")
    _add_descriptor(p, graph=True)
    p.add_argument("--reverse", action="store_true", help="reverse relabelling")
    p.add_argument("--format", choices=("matrix", "dot", "csv", "table"), default="matrix")
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("metric", help="diameter, distance U V, clique, colors or universal")
    _add_descriptor(p, graph=True)
    metrics = p.add_subparsers(dest="metric", required=True)
    for metric in ("diameter", "distance", "clique", "colors", "universal"):
        m = metrics.add_parser(metric)
        if metric == "distance":
            m.add_argument("u", metavar="U", type=int)
            m.add_argument("v", metavar="V", type=int)
    p.set_defaults(func=_cmd_metric)

    # Each claim and conjecture is a sub-parser that takes only the flags it
    # reads, unabbreviated: a flag of another claim (--n beside --nmax) is refused.
    p = sub.add_parser("verify", help="run one claim verifier")
    claims = p.add_subparsers(dest="claim", required=True)
    # claim -> (reads a graph descriptor, its flags as (flag, verifier parameter, default))
    for claim, (descriptor, flags) in {
        "structural": (True, [("--nmax", "n_max", 64)]),
        "fractal": (True, [("--s", "s", 0), ("--alpha-max", "alpha_max", 3), ("--n", "n", 33)]),
        "catalan-diameters": (False, [("--kmax", "k_max", 6)]),
        "mixed-size": (True, [("--k", "k", 4), ("--m", "m", 1), ("--s", "s", 0)]),
        "monotonicity": (True, [("--k", "k", 4), ("--mmax", "m_max", 2)]),
        "diameter-drop": (True, [("--k", "k", 4)]),
    }.items():
        c = claims.add_parser(claim)
        if descriptor:
            _add_descriptor(c, graph=False)
        for flag, dest, default in flags:
            c.add_argument(flag, dest=dest, type=int, default=default)
        c.set_defaults(func=_cmd_verify, params=[dest for _, dest, _ in flags])

    p = sub.add_parser("scan", help="scan one of the three conjectures")
    conjectures = p.add_subparsers(dest="conjecture", required=True)
    scan1, scan2, scan3 = map(conjectures.add_parser, "123")
    for c in (scan1, scan3):
        c.add_argument("--nmax", type=int, default=100)
    d = scan1.add_mutually_exclusive_group(required=True)
    d.add_argument("--alen", type=int)
    d.add_argument("--aseq", metavar="BITS")
    d.add_argument("--aseq-ones", type=int, help="A(z) = 1 + z + ... + z^(N-1)")
    scan2.add_argument("-k", type=int, required=True)
    scan2.add_argument("--sample", type=int)
    scan2.add_argument("--seed", type=int, default=0)
    for c in (scan1, scan2, scan3):
        c.add_argument("--violations-only", action="store_true")
        # scan 3 measures its two reference graphs in one process and ignores
        # the value, but takes --jobs as every scan does, so that its command lines run
        c.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
        c.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
        c.set_defaults(func=_cmd_scan)

    p = sub.add_parser("reproduce", help="recompute a published artifact and diff it")
    p.add_argument("target", choices=("counterexamples", "table1", "table2", *MATRICES))
    p.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit:  # --help, the one exit that argparse still takes
        return 0
    except RiordanError as e:
        print(f"error: {e}", file=sys.stderr)
        # findings, each with a vertex pair as evidence
        return 1 if isinstance(e, (DisconnectedError, IoViolationError)) else 2
    except OverflowError as e:  # a size no sequence can hold, refused by Python itself
        print(f"error: a requested size is past {sys.maxsize}: {e}", file=sys.stderr)
        return 2
    except MemoryError:  # a size the machine cannot hold, refused by Python itself
        print("error: a requested size does not fit in memory", file=sys.stderr)
        return 2
    except KeyboardInterrupt:  # a pool's workers ignore it and are terminated
        print("error: interrupted", file=sys.stderr)
        return 130


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: send the interpreter's final flush to
        # devnull so that it cannot fail again (Python docs, "Note on SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(2)
    sys.exit(code)


if __name__ == "__main__":
    entry()
