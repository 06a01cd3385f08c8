"""Mutants that the tests must kill: each is one exact text edit of `src/`
and the test node ids that must fail once it is made.

    python3 tests/mutants.py [NAME ...]

copies `src/` to a temporary directory, makes one mutant's edit there,
runs that mutant's node ids with PYTHONPATH at the copy (one pytest
process at a time; `tests/conftest.py` puts this checkout's `src/` after
PYTHONPATH), and prints `killed` or `survived` with the time taken.  A
mutant is killed when every one of its node ids fails.  The exit code is
1 when a mutant survives.  pytest does not collect this file;
`tests/test_package.py` checks that each old text occurs exactly once in
`src/`, so that an edit which moves the code must move its mutants too.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/
    old: str
    new: str
    kills: tuple[str, ...]  # node ids that must fail


RGRAPH = "riordangraphs/rgraph.py"
ANALYSIS = "riordangraphs/analysis.py"
CERTIFIED = "    if below is not None and below < k:\n"

MUTANTS = [
    # the block read transposed, as `induced` once returned it
    Mutant("induced-transposed", RGRAPH,
           "        return Graph(len(idx), _transpose([cols[i] for i in idx], len(idx)))\n",
           "        return Graph(len(idx), [cols[i] for i in idx])\n",
           ("tests/test_rgraph.py::test_induced_keeps_the_row_order",
            "tests/test_analysis.py::test_fractal_window_against_the_two_size_loop")),
    # the even block counted by edges: a lone bit of rows that are not
    # symmetric counts as half an edge, and so as none
    Mutant("even-block-by-edge-count", RGRAPH,
           "        if evens and any(self.induced(evens).rows):\n",
           "        if evens and self.induced(evens).edge_count():\n",
           ("tests/test_rgraph.py::test_is_io_decomposable_by_definition",)),
    # the io gate at the smallest measured order; the builds then refuse a
    # short sequence themselves, but only after the gate has let it through
    Mutant("gate-at-smallest-order", ANALYSIS,
           "        require_io_pattern(a, max(orders))\n",
           "        require_io_pattern(a, min(orders))\n",
           ("tests/test_analysis.py::test_verifiers_gate_a_at_their_largest_order[structural]",
            "tests/test_analysis.py::test_verifiers_gate_a_at_their_largest_order[monotonicity]")),
    # the extremal-pair certificate: (a) without its last-level check, (b)
    # dropped, (b) weakened to <= k, and a disconnected rest taken as certified
    Mutant("certificate-without-last-level", ANALYSIS,
           " and len(levels) == k + 1 and levels[k] == (1 << n // 2) - 1:\n",
           " and len(levels) == k + 1:\n",
           ("tests/test_analysis.py::test_extremal_certificate_verdict_is_the_pair_comparison",)),
    Mutant("certificate-without-part-b", ANALYSIS, CERTIFIED, "    if True:\n",
           ("tests/test_analysis.py::test_extremal_certificate_falls_back_to_the_pair_comparison"
            "[edges2-missing2-extra2]",
            "tests/test_analysis.py::test_extremal_certificate_falls_back_when_the_rest_is_disconnected",
            "tests/test_analysis.py::test_extremal_certificate_verdict_is_the_pair_comparison")),
    Mutant("certificate-part-b-at-most-k", ANALYSIS, CERTIFIED,
           "    if below is not None and below <= k:\n",
           ("tests/test_analysis.py::test_extremal_certificate_falls_back_to_the_pair_comparison"
            "[edges2-missing2-extra2]",
            "tests/test_analysis.py::test_extremal_certificate_verdict_is_the_pair_comparison")),
    Mutant("certificate-disconnected-rest-certified", ANALYSIS, CERTIFIED,
           "    if below is None or below < k:\n",
           ("tests/test_analysis.py::test_extremal_certificate_falls_back_when_the_rest_is_disconnected",)),
    # verify_catalan_diameters: the block below 2^k measured first with its
    # error let out, its refusal dropped, and the two reversed forms swapped
    Mutant("catalan-block-error-first", ANALYSIS,
           "        try:\n"
           "            got = low.diameter()\n"
           "        except DisconnectedError as error:\n"
           "            got, disconnected = None, error\n",
           "        got = low.diameter()\n",
           ("tests/test_analysis.py::test_catalan_diameters_disconnected_block_fault_injection",)),
    Mutant("catalan-block-refusal-dropped", ANALYSIS,
           "            raise disconnected\n",
           "            pass\n",
           ("tests/test_analysis.py::test_catalan_diameters_refuses_a_disconnected_block_it_cannot_fault",)),
    Mutant("catalan-forms-swapped", ANALYSIS,
           "for g in (0b1, 0b11))",
           "for g in (0b11, 0b1))",
           ("tests/test_analysis.py::test_catalan_diameters_small_and_medium",)),
    # the fractal window compared on its 2^s-block only
    Mutant("fractal-window-short", ANALYSIS,
           "    size = (1 << s) + 1\n    lo = alpha * (size - 1) + 1\n",
           "    size = 1 << s\n    lo = alpha * size + 1\n",
           ("tests/test_analysis.py::test_fractal_window_against_the_two_size_loop",)),
    # a Bell row with a bit past the diagonal
    Mutant("bell-row-past-diagonal", "riordangraphs/riordan.py",
           "        rows.append(row)\n",
           "        rows.append(row | 2 << i)\n",
           ("tests/test_riordan.py::test_triangle_rows_stay_below_the_diagonal",
            "tests/test_riordan.py::test_bell_matrix_against_list_recurrence",
            "tests/test_rgraph.py::test_build_bell_aseq_matches_pairs")),
    # the exact clique search refused at its cap rather than past it
    Mutant("clique-cap-inclusive", RGRAPH,
           "    if n > DEFAULT_CLIQUE_CAP:\n",
           "    if n >= DEFAULT_CLIQUE_CAP:\n",
           ("tests/test_rgraph.py::test_max_clique",
            "tests/test_analysis.py::test_structural_catalan_and_pascal")),
    # a flipped bit in every symmetrized row: column 1 toggled
    Mutant("symmetric-flipped-bit", RGRAPH,
           "[r | t for r, t in zip(half, _transpose(half, len(half)))]",
           "[(r | t) ^ 1 for r, t in zip(half, _transpose(half, len(half)))]",
           ("tests/test_cli.py::test_graph_lines_against_oracles",)),
    # reproduce's match note reworded
    Mutant("reproduce-match-note", "riordangraphs/cli.py",
           '"# match: computed matrix equals the printed one"',
           '"# match: computed matrix is the printed one"',
           ("tests/test_package.py::test_benchmark_checks_pass_the_paper_artifacts_workload",)),
]


def run(mutant: Mutant) -> tuple[bool, float, list[str]]:
    """Make `mutant` in a copy of src/ and run its node ids there: whether
    every one failed, the seconds taken, and the node ids that passed."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        target = src / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.name}: old text occurs {text.count(mutant.old)} times")
        target.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(src))
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *mutant.kills],
            cwd=REPO, env=env, capture_output=True, text=True,
        )
        seconds = time.perf_counter() - start
    if proc.returncode not in (0, 1):  # not a test outcome: collection or usage error
        raise SystemExit(f"{mutant.name}: pytest exited {proc.returncode}\n{proc.stdout}{proc.stderr}")
    failed = set(re.findall(r"^FAILED (\S+)", proc.stdout, re.M))
    survivors = [node for node in mutant.kills if node not in failed]
    return not survivors, seconds, survivors


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    total, survived = time.perf_counter(), 0
    for mutant in chosen:
        killed, seconds, survivors = run(mutant)
        survived += not killed
        print(f"{'killed' if killed else 'survived':8} {seconds:6.1f} s  {mutant.name}"
              + "".join(f"\n         passed: {node}" for node in survivors), flush=True)
    print(f"{len(chosen) - survived} of {len(chosen)} killed in {time.perf_counter() - total:.1f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
