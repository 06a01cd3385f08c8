"""The benchmark's workloads: CLI commands and the check for each.

Every scan runs with ``--jobs 1`` so that the program never has more than
one process alive; ``--jobs`` > 1 appears only in the traced run's pool
probe (see README.md).  The commands are fixed; the seed picks the oracle
sample of each check and the order of the commands within a round.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

from checks import (
    Oracle,
    catalan_bits,
    check_counterexamples,
    check_matrix,
    check_scan1_ones16,
    check_scan2,
    check_scan3,
    check_table,
    check_value,
    check_verifier,
)


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the check its (exit code, stdout) must pass."""

    argv: tuple[str, ...]
    check: Callable[[int, str], tuple[int, list]]

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def _cmd(line: str, check) -> Command:
    return Command(tuple(line.split()), check)


def exhaustive_k5(oracle: Oracle, seed: int) -> list[Command]:
    return [_cmd("scan 2 -k 5 --jobs 1", partial(check_scan2, oracle, seed, 5))]


def paper_artifacts(oracle: Oracle, seed: int) -> list[Command]:
    """Every command of README's CLI section, the five reproductions and
    ``scan 2 -k 3``, with each expected answer recomputed by the oracle."""
    cg6 = oracle.matrix(catalan_bits(6), 6)
    cg8r = oracle.matrix(catalan_bits(8), 8, reverse=True)
    for name, want in (("printed_cg6.txt", cg6), ("printed_cg8r.txt", cg8r)):
        if oracle.printed_matrix(name) != want:
            raise RuntimeError(f"oracle disagrees with the printed matrix {name}")
    cg6_adj = oracle.adj(catalan_bits(6), 6)
    universal = " ".join(str(v) for v in sorted(cg6_adj) if len(cg6_adj[v]) == 5)
    distance_14 = oracle.mod.bfs_dists(oracle.adj("11", 4), 1)[4]
    return [
        _cmd("graph --family catalan -n 6 --format matrix", partial(check_matrix, cg6)),
        _cmd("graph --aseq 10 -n 5", partial(check_matrix, oracle.matrix("10", 5))),
        _cmd("graph --family catalan -n 8 --reverse", partial(check_matrix, cg8r)),
        _cmd("metric --family catalan -n 64 diameter",
             partial(check_value, oracle.diameter(catalan_bits(64), 64))),
        _cmd("metric --family catalan -n 6 universal", partial(check_value, universal)),
        _cmd("metric --aseq 11 -n 4 distance 1 4", partial(check_value, distance_14)),
        _cmd("verify catalan-diameters --kmax 7", partial(check_verifier, "catalan-diameters")),
        _cmd("verify structural --aseq 1100000000 --nmax 64", partial(check_verifier, "structural")),
        _cmd("verify fractal --family catalan --s 3 --n 33", partial(check_verifier, "fractal")),
        _cmd("verify mixed-size --family catalan --k 3 --m 2 --s 0", partial(check_verifier, "mixed-size")),
        _cmd("verify monotonicity --family catalan --k 2 --mmax 3", partial(check_verifier, "monotonicity")),
        _cmd("verify diameter-drop --aseq 1100 --k 4", partial(check_verifier, "diameter-drop")),
        _cmd("scan 1 --aseq-ones 16 --nmax 100 --violations-only --jobs 1",
             partial(check_scan1_ones16, oracle, seed, 100)),
        _cmd("scan 2 -k 4 --jobs 1", partial(check_scan2, oracle, seed, 4)),
        _cmd("scan 3 --nmax 256 --jobs 1", partial(check_scan3, oracle, seed, 256)),
        _cmd("scan 2 -k 3 --jobs 1", partial(check_scan2, oracle, seed, 3)),
        _cmd("reproduce counterexamples", partial(check_counterexamples, oracle)),
        _cmd("reproduce table1", partial(check_table, oracle, 8, "printed_table1.csv")),
        _cmd("reproduce table2", partial(check_table, oracle, 16, "printed_table2.csv")),
        _cmd("reproduce figure1", partial(check_matrix, cg6, note=True)),
        _cmd("reproduce example-cg8r", partial(check_matrix, cg8r, note=True)),
    ]


WORKLOADS = {
    "exhaustive-k5": exhaustive_k5,
    "paper-artifacts": paper_artifacts,
}


def commands(name: str, oracle: Oracle, seed: int) -> list[Command]:
    """The workload's commands in the order the seed gives them."""
    cmds = WORKLOADS[name](oracle, seed)
    random.Random(seed).shuffle(cmds)
    return cmds
