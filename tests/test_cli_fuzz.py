"""A fixed-seed fuzz of the command line, run in-process through `cli.main`.

Every argv must end in exit 0, 1 or 2 with no exception escaping `main`,
and an exit 2 must print exactly one `error:` line on stderr and nothing
on stdout.  The value
pools hold small sizes and sizes past any budget, never a mid-size one,
so that every command that runs is quick.
"""

from __future__ import annotations

import contextlib
import io
import random
import signal

import pytest

from riordangraphs.cli import main

SECONDS_PER_CALL = 20

BAD = ["x", "1.5", str(10**30), str(2**63)]  # drawn for one value in ten
ORDERS = ["-1", "0", "1", "2", "3", "7", "8", "16", "33", "64"]
# exponents and lengths: 2^k-sized graphs, 2^(alen/2) sequences
COUNTS = ["-1", "0", "1", "2", "3", "4", "64"]
BITS = ["", "0", "1", "11", "1010", "1100", "1111", "1111110", "2", "11x"]
VALUES = {
    "--family": ["catalan", "pascal", "fibonacci"],
    "--g": BITS,
    "--aseq": BITS,
    "-n": ORDERS,
    "--format": ["matrix", "dot", "csv", "table", "png"],
    "--nmax": ORDERS,
    "--n": ORDERS,
    "--s": COUNTS,
    "--alpha-max": COUNTS,
    "--kmax": COUNTS,
    "--k": COUNTS,
    "--m": COUNTS,
    "--mmax": COUNTS,
    "--alen": COUNTS,
    "--aseq-ones": ORDERS,
    "-k": ["-1", "0", "1", "2", "3", "4"],  # scan 2 -k 5 takes seconds
    "--sample": ORDERS,
    "--seed": ORDERS,
    "--jobs": ["-1", "0", "1", "2"],
    "--budget": ["-5", "0", "1000", "1000000", "100000000"],  # never above the default
    "--fam": ["catalan"],  # abbreviations
    "--nm": ["8"],
}
SWITCHES = ["--reverse", "--violations-only"]
SCAN = ["--violations-only", "--jobs", "--budget"]
COMMANDS = {
    "graph": ["--family", "--g", "--aseq", "-n", "--reverse", "--format"],
    "metric": ["--family", "--g", "--aseq", "-n"],
    "verify structural": ["--family", "--aseq", "--nmax"],
    "verify fractal": ["--family", "--aseq", "--s", "--alpha-max", "--n"],
    "verify catalan-diameters": ["--kmax"],
    "verify mixed-size": ["--family", "--aseq", "--k", "--m", "--s"],
    "verify monotonicity": ["--family", "--aseq", "--k", "--mmax"],
    "verify diameter-drop": ["--family", "--aseq", "--k"],
    "scan 1": ["--nmax", "--alen", "--aseq", "--aseq-ones", *SCAN],
    "scan 2": ["-k", "--sample", "--seed", *SCAN],
    "scan 3": ["--nmax", *SCAN],
    "reproduce counterexamples": [],
    "reproduce table1": [],
    "reproduce table2": [],
    "reproduce figure1": [],
    "reproduce example-cg8r": [],
    "reproduce nonsense": [],
    "verify bogus": [],
    "scan 4": [],
    "bogus": [],
    "": [],
}
METRICS = ["diameter", "distance", "clique", "colors", "universal", "diam"]
LABELS = ["-1", "0", "1", "2", "4", "64", "x"]


def _argv(rng: random.Random) -> list[str]:
    head = rng.choice(list(COMMANDS))
    own = COMMANDS[head]
    flags = [f for f in own if rng.random() < 0.75]
    if rng.random() < 0.2:  # a flag of another command, or an abbreviation
        flags.append(rng.choice(list(VALUES) + SWITCHES))
    rng.shuffle(flags)
    argv = head.split()
    for flag in flags:
        if flag not in SWITCHES:
            argv += [flag, rng.choice(BAD if rng.random() < 0.1 else VALUES[flag])]
        else:
            argv.append(flag)
    if head == "metric" and rng.random() < 0.9:
        metric = rng.choice(METRICS)
        argv.append(metric)
        if metric == "distance":
            argv += rng.choices(LABELS, k=rng.choice([0, 1, 2, 2, 2, 3]))
    if rng.random() < 0.05:
        argv.append("junk")
    return argv


def _timeout(signum, frame):
    raise TimeoutError(f"a call ran past {SECONDS_PER_CALL} s")


@pytest.mark.parametrize("seed", [1, 2])
def test_fuzzed_argv_exit_0_1_or_one_error_line(seed):
    rng = random.Random(seed)
    faults = []
    previous = signal.signal(signal.SIGALRM, _timeout)
    try:
        for _ in range(150):
            argv = _argv(rng)
            out, err = io.StringIO(), io.StringIO()
            signal.alarm(SECONDS_PER_CALL)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
            except (Exception, SystemExit) as e:  # reported with its argv
                faults.append((argv, repr(e)))
                continue
            finally:
                signal.alarm(0)
            stderr = err.getvalue()
            if code not in (0, 1, 2):
                faults.append((argv, f"exit {code}"))
            elif code == 2 and not (stderr.startswith("error: ") and stderr.count("\n") == 1
                                    and stderr.endswith("\n") and out.getvalue() == ""):
                faults.append((argv, stderr, out.getvalue()))
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert faults == []
