"""The behaviour contract as a transcript: exit code, stderr and stdout of
a fixed list of CLI commands, recorded in `transcript.txt` and replayed
in-process through `cli.main`.

A stdout longer than STORE_LIMIT bytes is kept as its SHA-256 and line
count.  A change that means to alter output regenerates the file with

    PYTHONPATH=src python3 tests/test_transcript.py

and the file's diff is then the behaviour change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shlex
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import pytest

from riordangraphs.cli import main

TRANSCRIPT = Path(__file__).with_name("transcript.txt")
STORE_LIMIT = 4096

# the benchmark's paper-artifacts workload: README's CLI block, the five
# reproductions and scan 2 -k 3
PAPER_ARTIFACTS = [
    "graph --family catalan -n 6 --format matrix",
    "graph --aseq 10 -n 5",
    "graph --family catalan -n 8 --reverse",
    "metric --family catalan -n 64 diameter",
    "metric --family catalan -n 6 universal",
    "metric --aseq 11 -n 4 distance 1 4",
    "verify catalan-diameters --kmax 7",
    "verify structural --aseq 1100000000 --nmax 64",
    "verify fractal --family catalan --s 3 --n 33",
    "verify mixed-size --family catalan --k 3 --m 2 --s 0",
    "verify monotonicity --family catalan --k 2 --mmax 3",
    "verify diameter-drop --aseq 1100 --k 4",
    "scan 1 --aseq-ones 16 --nmax 100 --violations-only --jobs 1",
    "scan 2 -k 4 --jobs 1",
    "scan 3 --nmax 256 --jobs 1",
    "scan 2 -k 3 --jobs 1",
    "reproduce counterexamples",
    "reproduce table1",
    "reproduce table2",
    "reproduce figure1",
    "reproduce example-cg8r",
]

SCANS = [
    "scan 2 -k 4 --jobs 2",
    "scan 2 -k 6 --sample 300 --jobs 1",
    "scan 1 --alen 11 --nmax 12 --jobs 1",
    "scan 3 --nmax 1024",
    # conjecture 1 first fails at order 24 over io Bell graphs (every io
    # graph of orders 4..24 is scanned), by A = 1^8 0^15; that family fails
    # again at 47, 48 and 88, and A = 1^8 0^8 1^8 0^15 at 40
    "scan 1 --alen 23 --nmax 24 --violations-only --jobs 1",
    "scan 1 --aseq-ones 8 --nmax 100 --violations-only --jobs 1",
    f"scan 1 --aseq {'1' * 8}{'0' * 8}{'1' * 8}{'0' * 15} --nmax 40 --violations-only --jobs 1",
]

# the block shape whose first zero is the order's trailing free slot
VERIFY = [
    f"verify diameter-drop --aseq {'1' * 30} --k 5",
]

# every format at the orders around the byte padding of a row, and each
# descriptor once
GRAPHS = [
    f"graph --family catalan -n {n} --format {fmt}"
    for n in (1, 2, 7, 8)
    for fmt in ("matrix", "dot", "csv", "table")
] + [f"graph --family catalan -n {n} --reverse" for n in (1, 2, 7)] + [
    "graph --family pascal -n 7 --format table",
    "graph --g 1101 -n 8",
    "graph --aseq 1111110011 -n 8 --reverse",
]

METRICS = [
    "metric --aseq 1111110011 -n 300 diameter",
    "metric --family catalan -n 33 colors",
    "metric --family catalan -n 8 clique",
    "metric --family catalan -n 65 clique",  # past the exact clique search's cap
    "metric --family pascal -n 7 universal",
    # disconnected pair graphs: vertex 1 is the hub of the first; vertex 3,
    # not 1, of the second
    "metric --g 0 -n 3 diameter",
    "metric --g 011 -n 8 diameter",
    "metric --g 011 -n 8 distance 1 6",
    # an improper io colouring is a finding, as a disconnection is
    "metric --g 011 -n 8 colors",
]

# one refusal per price path, before anything is built
REFUSALS = [
    "graph --g 1 -n 10001",
    "metric --family pascal -n 10001 diameter",
    "verify catalan-diameters --kmax 13",
    "verify catalan-diameters --kmax 40",  # refused by its exponent
    # the range check comes before the price
    "verify fractal --family catalan --s 40 --n 1000000000",
    "verify monotonicity --family catalan --k 10 --mmax 10",
    "verify mixed-size --family catalan --k 70 --m 1",
    "scan 1 --alen 40 --nmax 8 --jobs 1",
    "scan 1 --aseq-ones 100000000 --nmax 8 --jobs 1",
    "scan 2 -k 40 --sample 2 --jobs 1",
    "scan 2 -k 5 --budget 1000 --jobs 1",
    "scan 3 --nmax 100000000000000000000",
    "scan 3 --nmax 1024 --budget 1000",
    "scan 3 --nmax 1793",  # CG and PG priced at the mixed orders: the first refused
]

# one bad input per subcommand, and a flag of another claim or conjecture;
# each exits 2 with one `error:` line
BAD_INPUT = [
    "graph -n 6",
    "metric --aseq 11 -n 4 distance 1 x",
    "verify structural --nmax 8",
    "scan 2 -k 3 --jobs 0",
    "reproduce nonsense",
    "verify structural --family catalan --n 500",
    "scan 2 -k 4 --aseq 11",
    "metric --family catalan -n 6 diameter junk",
    "graph --fam catalan -n 3",
    "graph --family catalan --aseq 11 -n 3",
    "scan 2",
    "graph --family catalan -n 0",
    "graph --aseq 11 -n 0",
    # past the price's budget of 10^30, a size Python refuses before any
    # allocation: 2^62 entries of 8 bytes, and 2^63, past any list's length
    f"scan 1 --aseq-ones {2**62} --nmax 8 --budget {10**30}",
    f"scan 1 --aseq-ones {2**63} --nmax 8 --budget {10**30}",
    # a pattern refusal names the first bad entry, not the extended sequence
    "verify monotonicity --aseq 1 --k 7 --mmax 4",
    "scan 1 --aseq 1010 --nmax 8 --jobs 1",
    # a short --alen gets the length gate's refusal, as a short sequence does
    "scan 1 --alen 5 --nmax 10 --jobs 1",
]

# help text is stdout too, wrapped at a terminal width that record() pins
HELP = [
    "--help",
    "graph --help",
    "metric --help",
    "metric distance --help",
    "verify --help",
    "verify structural --help",
    "scan --help",
    "scan 2 --help",
    "reproduce --help",
]

COMMANDS = PAPER_ARTIFACTS + SCANS + VERIFY + GRAPHS + METRICS + REFUSALS + BAD_INPUT + HELP


class Entry(NamedTuple):
    command: str
    code: int
    stderr: tuple[str, ...]
    stdout: tuple[str, ...] | str  # its lines, or "sha256 <hex> lines <count>" past STORE_LIMIT


def _lines(text: str) -> tuple[str, ...]:
    lines = tuple(text.split("\n"))
    if lines[-1]:
        raise ValueError(f"output does not end with a newline: {text[-40:]!r}")
    return lines[:-1]


def record(command: str) -> Entry:
    """Run `command` through `cli.main` in this process and record it, with
    help text wrapped at 80 columns whatever the terminal."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        code = main(shlex.split(command))
    stdout = out.getvalue()
    lines = _lines(stdout)
    if len(stdout) > STORE_LIMIT:
        lines = f"sha256 {hashlib.sha256(stdout.encode()).hexdigest()} lines {len(lines)}"
    return Entry(command, code, _lines(err.getvalue()), lines)


def dump(entries) -> str:
    blocks = []
    for e in entries:
        lines = [f"$ {e.command}", f"exit {e.code}"]
        lines += [f"stderr|{line}" for line in e.stderr]
        if isinstance(e.stdout, str):
            lines.append(f"stdout {e.stdout}")
        else:
            lines += [f"stdout|{line}" for line in e.stdout]
        blocks.append("\n".join(lines) + "\n")
    return "\n".join(blocks)


def load(text: str) -> list[Entry]:
    entries = []
    for block in text.split("\n$ "):
        command, code, *rest = block.removeprefix("$ ").rstrip("\n").split("\n")
        stderr = tuple(r.removeprefix("stderr|") for r in rest if r.startswith("stderr|"))
        stdout = tuple(r.removeprefix("stdout|") for r in rest if r.startswith("stdout|"))
        digest = [r.removeprefix("stdout ") for r in rest if r.startswith("stdout ")]
        entries.append(Entry(command, int(code.removeprefix("exit ")), stderr,
                             digest[0] if digest else stdout))
    return entries


ENTRIES = load(TRANSCRIPT.read_text()) if TRANSCRIPT.exists() else []


def test_transcript_lists_every_command():
    assert [e.command for e in ENTRIES] == COMMANDS
    assert load(dump(ENTRIES)) == ENTRIES


@pytest.mark.parametrize("entry", ENTRIES, ids=[e.command for e in ENTRIES])
def test_transcript_replays(entry):
    assert record(entry.command) == entry


if __name__ == "__main__":
    TRANSCRIPT.write_text(dump(map(record, COMMANDS)))
