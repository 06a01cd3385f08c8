import random
import subprocess
import sys
from pathlib import Path

import pytest

from riordangraphs.cli import main
from riordangraphs.golden import printed_cg6, printed_cg8_reverse

from oracles import (
    bfs_dists,
    brute_clique,
    column_scatter_rows,
    diameter_oracle,
    io_coloring_oracle,
    io_violation_oracle,
    triangle_mirror_rows,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_graph_matrix_figure(capsys):
    code, out, _ = run(capsys, "graph", "--family", "catalan", "-n", "6")
    assert code == 0
    assert out.splitlines() == printed_cg6()


def test_graph_aseq_path(capsys):
    code, out, _ = run(capsys, "graph", "--aseq", "10", "-n", "5", "--format", "matrix")
    assert code == 0
    assert out.splitlines() == ["01000", "10100", "01010", "00101", "00010"]


def test_graph_reverse_cg8(capsys):
    code, out, _ = run(
        capsys, "graph", "--family", "catalan", "-n", "8", "--reverse"
    )
    assert code == 0
    assert out.splitlines() == printed_cg8_reverse()


def test_graph_dot_csv_table(capsys):
    code, out, _ = run(capsys, "graph", "--family", "catalan", "-n", "4", "--format", "dot")
    assert code == 0 and out.startswith("graph G {") and "1 -- 2;" in out
    code, out, _ = run(capsys, "graph", "--family", "catalan", "-n", "4", "--format", "csv")
    assert code == 0 and out.splitlines()[0] == "u,v"
    code, out, _ = run(capsys, "graph", "--family", "catalan", "-n", "6", "--format", "table")
    assert code == 0 and out.splitlines()[3] == "4: 3 5"


def test_graph_descriptor_required(capsys):
    code, _, err = run(capsys, "graph", "-n", "6")
    assert (code, err) == (2, "error: one of the arguments --family --g --aseq is required\n")


def test_metric_diameters(capsys):
    code, out, _ = run(capsys, "metric", "--family", "catalan", "-n", "64", "diameter")
    assert code == 0 and out.strip() == "6"
    code, out, _ = run(capsys, "metric", "--family", "pascal", "-n", "100", "diameter")
    assert code == 0 and out.strip() == "2"


def test_metric_distance(capsys):
    code, out, _ = run(capsys, "metric", "--aseq", "11", "-n", "4", "distance", "1", "4")
    assert code == 0 and out.strip() == "1"


def test_metric_g_descriptor(capsys):
    # g = all-ones bits names 1/(1-z); the Bell pair (g, zg) is the Pascal graph
    code, out, _ = run(capsys, "metric", "--g", "11111111", "-n", "8", "diameter")
    assert code == 0 and out.strip() == "2"


def test_metric_disconnected_diameter(capsys):
    code, out, err = run(capsys, "metric", "--g", "0", "-n", "3", "diameter")
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:") and "disconnected" in err


def test_metric_improper_io_coloring_is_a_finding(capsys):
    # as with a disconnection, exit 1 and the vertex pair as evidence
    code, out, err = run(capsys, "metric", "--g", "011", "-n", "8", "colors")
    assert (code, out) == (1, "")
    assert err == "error: vertices 3 and 7 are adjacent but both have color 1\n"


def test_metric_clique_colors_universal(capsys):
    code, out, _ = run(capsys, "metric", "--family", "catalan", "-n", "6", "clique")
    assert code == 0 and out.strip() == "4"
    code, out, _ = run(capsys, "metric", "--family", "catalan", "-n", "33", "colors")
    assert code == 0 and out.splitlines()[0] == "7"
    code, out, _ = run(capsys, "metric", "--family", "catalan", "-n", "6", "universal")
    assert code == 0 and out.strip() == "3 5"


def _metric_oracle(adj, metric, *labels):
    """(exit code, stdout, stderr) of `metric ... <metric> <labels>` on the
    dict-of-sets graph `adj`, recomputed from the oracles."""
    n = len(adj)
    if metric == "diameter":
        missed = [w for w in adj if w not in bfs_dists(adj, 1)]
        if missed:
            return 1, "", f"error: graph is disconnected: no path between vertices 1 and {missed[0]}\n"
        return 0, f"{diameter_oracle(adj)}\n", ""
    if metric == "distance":
        bad = [x for x in labels if not 1 <= x <= n]
        if bad:
            return 2, "", f"error: vertex {bad[0]} outside 1..{n}\n"
        d = bfs_dists(adj, labels[0]).get(labels[1], "unreachable")
        return 0, f"{d}\n", ""
    if metric == "clique":
        return 0, f"{brute_clique(adj)}\n", ""
    if metric == "colors":
        colors = io_coloring_oracle(n)
        violation = io_violation_oracle(adj, colors)
        if violation:
            v, u, c = violation
            return 1, "", f"error: vertices {v} and {u} are adjacent but both have color {c}\n"
        lines = [str(len(set(colors)))]
        for c in sorted(set(colors)):
            lines.append(f"color {c}: " + " ".join(str(v) for v in adj if colors[v - 1] == c))
        return 0, "\n".join(lines) + "\n", ""
    universal = [v for v in adj if adj[v] == set(adj) - {v}]
    return 0, (" ".join(map(str, universal)) or "none") + "\n", ""


def test_metric_g_against_oracles(capsys):
    # 400 random --g literals, 80 for each metric: the Bell pair (g, zg) built
    # by per-bit column scatter and triangle mirror, the metric's exit code,
    # stdout and stderr recomputed on dict-of-sets
    rng = random.Random(0xD1FF)
    metrics = ("diameter", "distance", "clique", "colors", "universal")
    for case in range(400):
        literal = "".join(rng.choice("01") for _ in range(rng.randint(1, 16)))
        n = rng.randint(1, 14)
        g = int(literal[::-1], 2)
        rows = triangle_mirror_rows(column_scatter_rows(g, g << 1, n - 1))
        adj = {v: {w + 1 for w in range(n) if (rows[v - 1] >> w) & 1} for v in range(1, n + 1)}
        metric = metrics[case % 5]
        labels = [rng.randint(0, n + 1), rng.randint(0, n + 1)] if metric == "distance" else []
        argv = ["metric", "--g", literal, "-n", str(n), metric, *map(str, labels)]
        assert run(capsys, *argv) == _metric_oracle(adj, metric, *labels), argv


def test_verify_pass_cases(capsys):
    code, out, _ = run(capsys, "verify", "catalan-diameters", "--kmax", "7")
    assert code == 0 and "pass" in out
    code, out, _ = run(
        capsys, "verify", "structural", "--aseq", "1100000000", "--nmax", "64"
    )
    assert code == 0 and "pass" in out
    code, out, _ = run(
        capsys, "verify", "fractal", "--family", "catalan", "--s", "3", "--n", "33"
    )
    assert code == 0 and "pass" in out
    code, out, _ = run(
        capsys, "verify", "mixed-size", "--family", "catalan", "--k", "3", "--m", "1", "--s", "0"
    )
    assert code == 0 and "pass" in out
    code, out, _ = run(
        capsys, "verify", "monotonicity", "--family", "catalan", "--k", "2", "--mmax", "3"
    )
    assert code == 0 and "pass" in out


def test_verify_diameter_drop_hypothesis(capsys):
    code, out, _ = run(
        capsys, "verify", "diameter-drop", "--family", "catalan", "--k", "4"
    )
    assert code == 0 and "hypothesis-not-met" in out
    code, out, _ = run(
        capsys, "verify", "diameter-drop", "--aseq", "1100", "--k", "4"
    )
    assert code == 0 and " pass" in out


def test_verify_needs_descriptor(capsys):
    code, _, err = run(capsys, "verify", "structural", "--nmax", "16")
    assert (code, err) == (2, "error: one of the arguments --family --aseq is required\n")


def test_verify_unknown_claim_exit2(capsys):
    assert main(["verify", "bogus-claim"]) == 2


# flags of another claim or conjecture, abbreviated flags and arguments past
# a metric's own are refused
@pytest.mark.parametrize(
    "command",
    [
        "verify structural --family catalan --n 500",
        "verify monotonicity --family catalan --k 2 --m 3",
        "verify fractal --family catalan --k 9",
        "verify catalan-diameters --aseq 10 --kmax 3",
        "scan 2 -k 4 --aseq 11",
        "scan 2 -k 4 --nmax 50",
        "scan 3 --nmax 64 --sample 5",
        "scan 1 --aseq-ones 16 --nmax 20 -k 9",
        "verify structural --family catalan --nm 8",
        "metric --family catalan -n 8 clique --clique-cap 9",
        "graph --family catalan -n 3 --form table",
        "metric --family catalan -n 6 diameter junk",
        "metric --aseq 11 -n 4 distance 1 2 3",
    ],
)
def test_flags_the_command_does_not_read_exit2(capsys, command):
    code, out, err = run(capsys, *command.split())
    assert (code, out) == (2, "")
    assert "error: unrecognized arguments: " in err


def test_verify_claims_take_their_verifiers_parameters():
    import inspect

    from riordangraphs import analysis
    from riordangraphs.cli import build_parser

    verifiers = [name for name in analysis.__all__ if name.startswith("verify_")]
    assert len(verifiers) == 6
    for name in verifiers:
        params = set(inspect.signature(getattr(analysis, name)).parameters)
        descriptor = {"family", "aseq"} if "a" in params else set()
        claim = name.removeprefix("verify_").replace("_", "-")
        args = build_parser().parse_args(
            ["verify", claim] + (["--family", "catalan"] if descriptor else []))
        assert set(args.params) == params - {"a"}
        assert set(vars(args)) == set(args.params) | descriptor | {"command", "claim", "func", "params"}


def test_scan1_counterexamples(capsys):
    code, out, err = run(
        capsys, "scan", "1", "--aseq-ones", "16", "--nmax", "100", "--violations-only"
    )
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "n,aseq,diam,diam_catalan,diam_pascal,verdict"
    assert len(lines) == 14
    assert [int(line.split(",")[0]) for line in lines[1:]] == [
        44, 45, 46, 47, 48, 78, 79, 80, 87, 88, 89, 90, 91,
    ]
    assert "13 violations" in err


def test_scan2_k3_exit1(capsys):
    # recomputation finds the second diameter-3 graph, so the scan fails
    code, out, _ = run(capsys, "scan", "2", "-k", "3", "--violations-only")
    assert code == 1
    assert any(line.startswith("8,1111110,3,") for line in out.splitlines())


def test_scan2_k4_exit0(capsys):
    code, _, err = run(capsys, "scan", "2", "-k", "4")
    assert code == 0 and "0 violations" in err


def test_scan3_exit0(capsys):
    code, out, err = run(capsys, "scan", "3", "--nmax", "256")
    assert code == 0 and "0 violations" in err
    assert len(out.splitlines()) == 36  # header + 35 admissible orders


def test_scan_budget_exit2(capsys):
    code, _, err = run(capsys, "scan", "2", "-k", "5", "--budget", "1000")
    assert code == 2 and "budget" in err


def test_scan_missing_args(capsys):
    assert main(["scan", "2"]) == 2
    assert main(["scan", "1", "--nmax", "50"]) == 2


def test_reproduce_counterexamples(capsys):
    code, out, err = run(capsys, "reproduce", "counterexamples")
    assert code == 0
    assert len(out.splitlines()) == 14
    assert "match" in err


def test_reproduce_figure1(capsys):
    code, out, _ = run(capsys, "reproduce", "figure1")
    assert code == 0
    assert "# match" in out


def test_reproduce_cg8r(capsys):
    code, out, _ = run(capsys, "reproduce", "example-cg8r")
    assert code == 0
    assert out.splitlines()[:8] == printed_cg8_reverse()


def test_reproduce_table1_annotates_duplicate(capsys):
    code, out, _ = run(capsys, "reproduce", "table1")
    assert code == 0
    assert "1111110,3,conflicting-print,2|3" in out
    assert "# printed duplicate: 1111110" in out


def test_reproduce_table2_annotates_omissions(capsys):
    code, out, _ = run(capsys, "reproduce", "table2")
    assert code == 0
    assert "# omitted from print: 111111000000111" in out
    assert "# omitted from print: 111111000011111" in out
    assert "# printed duplicate: 111111001111110" in out


def test_usage_exit_codes(capsys):
    assert main(["bogus"]) == 2
    assert main([]) == 2
    assert main(["--help"]) == 0
    assert main(["metric", "distance", "--help"]) == 0
    assert main(["reproduce", "nonsense"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["metric", "--aseq", "11", "-n", "4", "distance", "1", "x"],
        ["metric", "--aseq", "11", "-n", "4", "distance", "1"],
        ["metric", "--aseq", "11", "-n", "4"],
        # abbreviated, missing and conflicting descriptors and flags
        ["graph", "--fam", "catalan", "-n", "3"],
        ["graph", "--family", "catalan", "--aseq", "11", "-n", "3"],
        ["scan", "2"],
        ["bogus"],
        # orders below 1
        ["graph", "--family", "catalan", "-n", "0"],
        ["graph", "--aseq", "11", "-n", "0"],
        # --jobs only below 1: these are rejected before any process starts
        ["scan", "2", "-k", "3", "--jobs", "0"],
        ["scan", "2", "-k", "3", "--jobs", "-3"],
        ["scan", "2", "-k", "6", "--sample", "0"],
        ["scan", "2", "-k", "6", "--sample", "-5"],
        # guarded before any sequence of length 2^40 - 1 is built
        ["scan", "2", "-k", "40", "--sample", "2"],
        # conflicting descriptors
        ["scan", "1", "--alen", "9", "--aseq", "11", "--nmax", "8"],
        ["scan", "1", "--aseq-ones", "4", "--aseq", "11", "--nmax", "8"],
        # orders derived only after the claim's range checks
        ["verify", "monotonicity", "--family", "catalan", "--k", "-5", "--mmax", "1"],
        ["verify", "diameter-drop", "--family", "catalan", "--k", "-1"],
        ["verify", "mixed-size", "--family", "catalan", "--k", "3", "--m", "-1", "--s", "0"],
        # scan 1 measures io patterns only
        ["scan", "1", "--aseq", "1010", "--nmax", "8"],
        ["scan", "1", "--aseq-ones", "3", "--nmax", "12"],
        # priced before the descriptor is extended to order 10^20
        ["scan", "1", "--aseq", "11", "--nmax", str(10**20)],
        # within a budget of 10^30, but refused by Python before any allocation:
        # 2^62 entries are 2^65 bytes (MemoryError), 2^63 is no list size (OverflowError)
        ["scan", "1", "--aseq-ones", str(2**62), "--nmax", "8", "--budget", str(10**30)],
        ["scan", "1", "--aseq-ones", str(2**63), "--nmax", "8", "--budget", str(10**30)],
        # sizes past 2^63, refused by the price before any allocation
        ["graph", "--aseq", "11", "-n", str(10**20)],
        ["graph", "--g", "1", "-n", str(10**20)],
        ["metric", "--aseq", "11", "-n", str(10**20), "diameter"],
        ["verify", "structural", "--aseq", "11", "--nmax", str(10**20)],
        ["verify", "fractal", "--aseq", "11", "--n", str(10**20)],
        ["verify", "mixed-size", "--family", "catalan", "--k", "70", "--m", "1"],
        ["verify", "monotonicity", "--aseq", "11", "--k", "40", "--mmax", "30"],
        # empty ranges of orders
        ["verify", "monotonicity", "--family", "catalan", "--k", "2", "--mmax", "0"],
        ["verify", "catalan-diameters", "--kmax", "0"],
        # past the exact clique search's cap
        ["metric", "--family", "catalan", "-n", "65", "clique"],
        # a pattern refusal names its first bad entry, not the 2,047 it was extended to
        ["verify", "monotonicity", "--aseq", "1", "--k", "7", "--mmax", "4"],
    ],
)
def test_bad_input_exit2_one_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err.encode()) < 200


def test_scan1_priced_before_descriptor_is_extended(capsys):
    code, out, err = run(capsys, "scan", "1", "--aseq", "11", "--nmax", str(10**20))
    assert code == 2 and out == ""
    assert "budget" in err and "Traceback" not in err


# past the one price (graphs x sum of n^2 at the default budget 10^8)
PRICED_OUT = [
    ["graph", "--aseq", "11", "-n", "1000000000"],
    ["graph", "--family", "catalan", "-n", "1000000000000"],
    ["graph", "--g", "1", "-n", "10001"],
    ["metric", "--family", "pascal", "-n", "10001", "diameter"],
    ["verify", "monotonicity", "--family", "catalan", "--k", "10", "--mmax", "10"],
    ["verify", "structural", "--family", "catalan", "--nmax", "669"],
    ["verify", "fractal", "--family", "catalan", "--n", "10001"],
    ["verify", "catalan-diameters", "--kmax", "13"],
    ["verify", "catalan-diameters", "--kmax", "1000"],
    ["verify", "mixed-size", "--family", "catalan", "--k", "14", "--m", "1"],
    ["verify", "diameter-drop", "--family", "catalan", "--k", "14"],
    # 10^8 entries held and printed by each of 5 records
    ["scan", "1", "--aseq-ones", str(10**8), "--nmax", "8"],
]


@pytest.mark.parametrize("argv", PRICED_OUT)
def test_oversize_commands_refused_before_building(capsys, monkeypatch, argv):
    from riordangraphs import analysis, cli, rgraph

    def unpriced(*args, **kwargs):
        raise AssertionError("built before the price was charged")

    for module, name in [(cli, "_aseq"), (cli, "catalan_graph"), (cli, "pascal_graph"),
                         (cli, "build_bell_aseq"), (rgraph, "build"),
                         (analysis, "verify_catalan_diameters")]:
        monkeypatch.setattr(module, name, unpriced)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: estimate ") and err.endswith(" exceeds budget 100000000\n")
    assert err.count("\n") == 1


# refused by an exponent or an entry count before the order, sequence or
# list of orders is formed; at these sizes forming them took up to tens of MB
@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "monotonicity", "--family", "catalan", "--k", "2", "--mmax", str(10**6)],
        ["verify", "mixed-size", "--family", "catalan", "--k", "3", "--m", "2", "--s", str(10**6)],
        ["verify", "mixed-size", "--family", "catalan", "--k", str(10**7), "--m", "2"],
        ["verify", "diameter-drop", "--family", "catalan", "--k", str(10**7)],
        ["scan", "2", "-k", str(10**7), "--sample", "1"],
        ["scan", "3", "--nmax", str(10**20)],
        ["scan", "1", "--aseq-ones", str(10**6), "--nmax", "8", "--budget", str(10**6)],
    ],
)
def test_refusals_allocate_under_a_megabyte(capsys, argv):
    import tracemalloc

    from riordangraphs import analysis, search  # noqa: F401, imported before tracing

    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err.startswith("error: estimate ") and err.count("\n") == 1
    assert peak < 2**20


@pytest.mark.parametrize(
    "argv, orders",
    [
        (["graph", "--family", "catalan", "-n", "6"], [6]),
        (["metric", "--aseq", "11", "-n", "4", "diameter"], [4]),
        (["graph", "--family", "catalan", "-n", "-3"], [0]),  # the builder refuses it
        (["verify", "structural", "--aseq", "11", "--nmax", "5"], [1, 2, 3, 4, 5]),
        (["verify", "fractal", "--family", "catalan", "--n", "33"], [33]),
        (["verify", "catalan-diameters", "--kmax", "3"], [1, 2, 3, 4, 7, 8]),
        (["verify", "mixed-size", "--family", "catalan", "--k", "3", "--m", "2"], [13]),
        (["verify", "monotonicity", "--family", "catalan", "--k", "2", "--mmax", "3"],
         [32, 16, 8, 4]),
        (["verify", "diameter-drop", "--aseq", "1100", "--k", "4"], [16]),
    ],
)
def test_commands_price_the_orders_they_measure(capsys, monkeypatch, argv, orders):
    from riordangraphs import analysis, cli
    from riordangraphs.errors import DEFAULT_BUDGET, ScaleError

    charged = []

    def guard(graphs, priced, budget):
        charged.append((graphs, list(priced), budget))
        raise ScaleError("priced")

    # graph and metric are priced in the CLI, a verifier's orders in claim_order
    monkeypatch.setattr(cli, "_guard", guard)
    monkeypatch.setattr(analysis, "_guard", guard)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: priced\n")
    assert charged == [(1, orders, DEFAULT_BUDGET)]


def test_clique_cap_refused_before_the_build(capsys, monkeypatch):
    from riordangraphs import cli

    for builder in ("build", "build_bell_aseq", "catalan_graph", "pascal_graph"):
        monkeypatch.setattr(cli, builder, lambda *args: pytest.fail("built"))
    assert run(capsys, "metric", "--family", "catalan", "-n", "65", "clique") == (
        2, "", "error: exact clique search capped at order 64, graph has 65\n"
    )


def test_price_boundary():
    from functools import partial

    from riordangraphs.errors import DEFAULT_BUDGET, ScaleError, _guard

    _price = partial(_guard, 1, budget=DEFAULT_BUDGET)  # the charge of one graph

    _price((10**4,))
    _price(range(1, 669))  # 99,582,434 visits
    with pytest.raises(ScaleError):
        _price((10**4 + 1,))
    with pytest.raises(ScaleError):
        _price(range(1, 670))


def test_interrupt_is_one_line_and_exit_130(capsys, monkeypatch):
    from riordangraphs import search

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(search, "_sequence_diameters", interrupted)
    assert run(capsys, "scan", "2", "-k", "3", "--jobs", "1") == (130, "", "error: interrupted\n")


@pytest.mark.parametrize("argv, code", [
    (["metric", "--family", "catalan", "-n", "8", "diameter"], 0),
    (["scan", "2", "-k", "3", "--jobs", "1"], 1),
    (["graph", "-n", "6"], 2),  # refused inside the parser's own parse_args
])
def test_benchmark_hook_on_main(capsys, monkeypatch, argv, code):
    """The benchmark's launcher (perfbench/child.py) replaces `build_parser`
    and wraps the returned parser's `parse_args` to mark the end of set-up;
    with --setup-only that wrapper raises SystemExit(0).  Every `main` call
    builds one parser and parses once, and that exit is a silent 0."""
    from riordangraphs import cli

    build_parser, calls = cli.build_parser, []

    def hooked(setup_only):
        def counting_build_parser():
            calls.append("build")
            parser = build_parser()
            parse_args = parser.parse_args

            def counting_parse_args(args=None, namespace=None):
                calls.append("parse")
                ns = parse_args(args, namespace)
                if setup_only:
                    raise SystemExit(0)
                return ns

            parser.parse_args = counting_parse_args
            return parser

        return counting_build_parser

    runs = []
    for setup_only in (False, True):
        calls.clear()
        monkeypatch.setattr(cli, "build_parser", hooked(setup_only))
        runs.append(run(capsys, *argv))
        assert calls == ["build", "parse"]
    assert runs[0][0] == code
    assert runs[1] == (runs[0] if code == 2 else (0, "", ""))


def test_closed_stdout_exit2():
    proc = subprocess.Popen(
        [sys.executable, "-m", "riordangraphs", "graph", "--family", "catalan",
         "-n", "1024", "--format", "matrix"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 2
    assert "Traceback" not in err


# modules a command must not load unless it runs them
HEAVY = {"riordangraphs.analysis", "riordangraphs.search", "riordangraphs.golden",
         "dataclasses", "inspect", "multiprocessing"}
FOOTPRINT = """
import contextlib, io, sys
before = set(sys.modules)
from riordangraphs import cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        cli.main(sys.argv[1:])
print(" ".join(set(sys.modules) - before))
"""


# -- the annotations of a reproduction that disagrees with print ----------------

def test_reproduce_matrix_notes_each_differing_row(capsys, monkeypatch):
    from riordangraphs import golden

    printed = printed_cg6()
    monkeypatch.setattr(golden, "printed_cg6", lambda: printed[:1] + ["101011"] + printed[2:])
    code, out, err = run(capsys, "reproduce", "figure1")
    assert code == 1 and err == ""
    assert out.splitlines() == printed + ["# row 2 differs: computed 101010 printed 101011"]


def test_reproduce_table_notes_mismatch_and_foreign_rows(capsys, monkeypatch):
    from riordangraphs import golden

    # 1100000 printed with diameter 3 (it has 2), and 1010101, no io pattern
    monkeypatch.setattr(golden, "printed_table1",
                        lambda: [("1100000", 3), ("1111111", 3), ("1010101", 2)])
    code, out, err = run(capsys, "reproduce", "table1")
    assert code == 1
    assert out.splitlines() == [
        "aseq,diam,status,printed",
        "1100000,2,mismatch,3",
        *(f"{s},{d},absent-from-print,-" for s, d in [
            ("1100001", 2), ("1100110", 2), ("1100111", 2),
            ("1111000", 2), ("1111001", 2), ("1111110", 3),
        ]),
        "1111111,3,match,3",
        *(f"# omitted from print: {s}" for s in [
            "1100001", "1100110", "1100111", "1111000", "1111001", "1111110",
        ]),
        "# printed but outside the enumeration: 1010101",
    ]
    assert err == "# 1 genuine mismatches\n"


def test_reproduce_counterexamples_reports_a_mismatch(capsys, monkeypatch):
    from riordangraphs import golden

    printed = golden.printed_counterexamples()
    monkeypatch.setattr(golden, "printed_counterexamples", lambda: printed[:-1])
    code, out, err = run(capsys, "reproduce", "counterexamples")
    assert code == 1
    assert out.splitlines() == ["n,diam_catalan,diam_g", *(",".join(map(str, r)) for r in printed)]
    assert err == "# MISMATCH against printed table (13 rows)\n"


@pytest.mark.parametrize(
    "argv, loads",
    [
        ([], set()),
        (["graph", "--aseq", "10", "-n", "5"], set()),
        (["metric", "--aseq", "11", "-n", "4", "distance", "1", "4"], set()),
        (["scan", "2", "-k", "3", "--jobs", "1"], {"riordangraphs.search"}),
        (["verify", "fractal", "--family", "catalan", "--s", "3", "--n", "33"],
         {"riordangraphs.analysis"}),
        (["reproduce", "figure1"], {"riordangraphs.golden"}),
    ],
)
def test_import_footprint(argv, loads):
    # a fresh interpreter, so that no other test has imported these yet
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT, *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.split()) & HEAVY == loads


def test_console_entry_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "riordangraphs", "metric", "--family", "catalan",
         "-n", "8", "diameter"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "3"


def test_scan3_takes_and_ignores_jobs(capsys):
    # scan 3 measures one graph per order in one process
    runs = [run(capsys, "scan", "3", "--nmax", "64", "--jobs", jobs) for jobs in ("1", "2")]
    assert runs[0] == runs[1] and runs[0][0] == 0
    assert run(capsys, "scan", "3", "--nmax", "64", "--jobs", "0") == (
        2, "", "error: --jobs must be at least 1, got 0\n")


def test_scan_jobs_flag_deterministic(capsys, monkeypatch):
    from riordangraphs import search

    monkeypatch.setattr(search, "POOL_MIN_VISITS", 1)  # so that --jobs 2 starts a pool
    code1, out1, _ = run(capsys, "scan", "2", "-k", "3", "--jobs", "1")
    code2, out2, _ = run(capsys, "scan", "2", "-k", "3", "--jobs", "2")
    assert code1 == code2 == 1
    assert out1 == out2


def _readme_commands() -> list[str]:
    """The commands of README's CLI block, one per `reproduce` target."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        head, *alternatives = (part.strip() for part in line.split("|"))
        commands.append(head)
        commands += [head.rsplit(" ", 1)[0] + " " + alt for alt in alternatives]
    return commands


@pytest.mark.parametrize("command", _readme_commands())
def test_readme_cli_commands_run(capsys, command):
    prog, *argv = command.split()
    assert prog == "riordangraphs"
    code, out, _ = run(capsys, *argv)
    # the sixteen-ones family exceeds the Catalan diameter, as README documents
    assert code == (1 if command.startswith("riordangraphs scan 1 --aseq-ones 16") else 0)
    assert out


def test_readme_cli_block_is_parsed():
    commands = _readme_commands()
    assert {c.split()[1] for c in commands} == {"graph", "metric", "verify", "scan", "reproduce"}
    assert sum(c.startswith("riordangraphs reproduce ") for c in commands) == 5
