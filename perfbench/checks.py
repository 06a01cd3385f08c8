"""Output checks for the benchmark's commands, computed apart from the program.

Every check compares a command's exit code and stdout against one of:

- the independent oracles in the repository's ``tests/oracles.py`` (the
  literal Bell recurrence on lists and deque BFS on dict-of-sets graphs),
  imported read-only;
- properties the mathematics guarantees (diam(CG_{2^k}) = k, the
  mixed-order formula, 2 <= diam <= floor(log2 n) for io graphs);
- the paper's printed tables under ``src/riordangraphs/data/``, read as
  plain files.

Nothing here imports the ``riordangraphs`` package, and nothing compares
against a stored copy of earlier output.  A checker returns
``(records, problems)``: the number of result records on stdout (CSV rows,
table rows, verifier lines, matrix rows; headers and ``#`` notes do not
count) and a list of problems, empty when the output is correct.
"""

from __future__ import annotations

import importlib.util
import itertools
import random
from pathlib import Path

SCAN_HEADER = "n,aseq,diam,diam_catalan,diam_pascal,verdict"
WITHIN = "within-bounds"
UPPER = "upper-violation"
LOWER = "lower-violation"

# oracle rechecks per scan output: how many extra rows or orders a seed picks
SAMPLE_ROWS = 40
SAMPLE_ORDERS = 4
# the literal recurrence is cubic in the order; keep sampled orders small
ORACLE_MAX_ORDER = 100


def floor_log2(n: int) -> int:
    return n.bit_length() - 1


def catalan_bits(n: int) -> str:
    """A-sequence literal of the Catalan graph CG_n: n - 1 ones."""
    return "1" * max(n - 1, 2)


def io_patterns(length: int) -> list[str]:
    """Every io pattern (1, 1, a2, a2, a4, a4, ...) of a length, as strings.

    A trailing unpaired slot is free.  Built from pair blocks, not from the
    program's free-bit enumeration.
    """
    pairs, tail = divmod(length - 2, 2)
    blocks = [("00", "11")] * pairs + [("0", "1")] * tail
    return ["11" + "".join(choice) for choice in itertools.product(*blocks)]


def admissible_orders(n_max: int) -> list[tuple[int, int, int, int]]:
    """All (n, k, m, s) with n = 1 + 2^m + 2^k + ... + 2^(k+s) <= n_max,
    k > m >= 1, s >= 1, by direct enumeration over m, k and s."""
    out = []
    for m in range(1, n_max.bit_length()):
        for k in range(m + 1, n_max.bit_length()):
            for s in range(1, n_max.bit_length()):
                n = 1 + (1 << m) + sum(1 << (k + j) for j in range(s + 1))
                if n <= n_max:
                    out.append((n, k, m, s))
    return sorted(out)


def body_lines(out: str) -> list[str]:
    """Non-empty stdout lines that are not ``#`` notes."""
    return [ln for ln in out.splitlines() if ln and not ln.startswith("#")]


def expect_rc(problems: list, rc: int, want: int) -> None:
    if rc != want:
        problems.append(f"exit code {rc}, expected {want}")


class Oracle:
    """The repository's independent oracles plus its printed tables, with
    each recomputed graph kept for the rest of the run."""

    def __init__(self, root: Path):
        path = root / "tests" / "oracles.py"
        spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
        self.mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(self.mod)
        self.data = root / "src" / "riordangraphs" / "data"
        self._adj: dict[str, dict] = {}
        self._diam: dict[tuple[str, int], int] = {}
        self._attainers: dict[int, list[str]] = {}

    # -- graphs ------------------------------------------------------------

    def adj(self, bits: str, n: int) -> dict:
        """Dict-of-sets Bell graph of order n for A-sequence literal `bits`
        (zero-extended), from the literal recurrence."""
        key = f"{bits}/{n}"
        if key not in self._adj:
            padded = tuple(int(c) for c in bits.ljust(max(n - 1, 2), "0"))
            self._adj[key] = self.mod.bell_graph_adj(padded, n)
        return self._adj[key]

    def diameter(self, bits: str, n: int) -> int:
        """Diameter of the order-n Bell graph of `bits` by deque BFS."""
        key = (bits, n)
        if key not in self._diam:
            self._diam[key] = self.mod.diameter_oracle(self.adj(bits, n))
        return self._diam[key]

    def prefix_diameter(self, bits: str, n_graph: int, n: int) -> int:
        """Diameter of vertices 1..n of a larger recomputed graph."""
        key = (f"{bits}/{n_graph}", n)
        if key not in self._diam:
            big = self.adj(bits, n_graph)
            sub = {v: {w for w in big[v] if w <= n} for v in range(1, n + 1)}
            self._diam[key] = self.mod.diameter_oracle(sub)
        return self._diam[key]

    def matrix(self, bits: str, n: int, reverse: bool = False) -> list[str]:
        adj = self.adj(bits, n)
        label = (lambda v: n + 1 - v) if reverse else (lambda v: v)
        return [
            "".join("1" if label(j) in adj[label(i)] else "0" for j in range(1, n + 1))
            for i in range(1, n + 1)
        ]

    def attainers(self, k: int) -> list[str]:
        """Brute-force extremal io attainers of order 2^k (k <= 4 only)."""
        if k not in self._attainers:
            self._attainers[k] = self.mod.extremal_io_attainers(k)
        return self._attainers[k]

    # -- printed tables ----------------------------------------------------

    def printed_matrix(self, name: str) -> list[str]:
        return (self.data / name).read_text().split()

    def printed_rows(self, name: str) -> list[list[str]]:
        lines = (self.data / name).read_text().strip().splitlines()[1:]
        return [line.split(",") for line in lines]

    def printed_counterexamples(self) -> list[tuple[int, int, int]]:
        return [tuple(map(int, r)) for r in self.printed_rows("printed_counterexamples.csv")]


# -- scan outputs -------------------------------------------------------------

def parse_scan(out: str, problems: list) -> list[tuple]:
    lines = body_lines(out)
    if not lines or lines[0] != SCAN_HEADER:
        problems.append("missing scan CSV header")
        return []
    rows = []
    for line in lines[1:]:
        # scan 3 labels hold commas: split the order off the left and the
        # four numeric and verdict fields off the right
        try:
            n, rest = line.split(",", 1)
            seq, d, dc, dp, verdict = rest.rsplit(",", 4)
            rows.append((int(n), seq, int(d), int(dc), int(dp), verdict))
        except ValueError:
            problems.append(f"malformed scan row {line!r}")
    return rows


def seeded_rows(seed: int, patterns: list[str]) -> list[str]:
    """The rows a seed adds to a ``scan 2`` check's oracle sample."""
    return random.Random(seed).sample(patterns, min(SAMPLE_ROWS, len(patterns)))


def check_scan2(oracle: Oracle, seed: int, k: int, rc: int, out: str):
    """``scan 2 -k K``: the full io space of order 2^k, each diameter in
    2..k, the Catalan and Pascal references, verdicts and exit code, and a
    seeded oracle sample that always holds the all-ones row and every row
    of diameter k.  For k <= 4 the attainers are also brute-forced."""
    problems: list[str] = []
    rows = parse_scan(out, problems)
    n = 1 << k
    ones = "1" * (n - 1)
    expected = io_patterns(n - 1)
    seqs = [r[1] for r in rows]
    if sorted(seqs) != expected:
        problems.append(f"{len(seqs)} records, expected the {len(expected)} io patterns once each")
    attainers = []
    for rn, seq, d, dc, dp, verdict in rows:
        if rn != n or dc != k or dp != 2 or not 2 <= d <= k:
            problems.append(f"row {seq}: n={rn} diam={d} catalan={dc} pascal={dp}")
        if d == k:
            attainers.append(seq)
        want = UPPER if d == k and seq != ones else WITHIN
        if verdict != want:
            problems.append(f"row {seq}: verdict {verdict}, expected {want}")
    if ones not in attainers:
        problems.append("the all-ones pattern does not attain diameter k")
    if k <= 4 and sorted(attainers) != oracle.attainers(k):
        problems.append(f"attainers {sorted(attainers)} != oracle {oracle.attainers(k)}")
    sample = set(attainers) | {ones} | set(seeded_rows(seed, expected))
    by_seq = {r[1]: r[2] for r in rows}
    for seq in sorted(sample):
        if seq in by_seq and by_seq[seq] != oracle.diameter(seq, n):
            problems.append(f"row {seq}: diam {by_seq[seq]}, oracle {oracle.diameter(seq, n)}")
    expect_rc(problems, rc, 1 if any(a != ones for a in attainers) else 0)
    return len(rows), problems


def check_scan3(oracle: Oracle, seed: int, n_max: int, rc: int, out: str):
    """``scan 3 --nmax N``: exactly the admissible orders, each diameter
    s + 2 (m = 1) or s + 3, within 2..floor(log2 n), and a seeded sample of
    small orders recomputed on the oracle's Catalan graph."""
    problems: list[str] = []
    rows = parse_scan(out, problems)
    expected = admissible_orders(n_max)
    got = []
    for n, label, d, want, dp, verdict in rows:
        try:
            params = dict(p.split("=") for p in label[len("catalan("):-1].split(","))
            got.append((n, int(params["k"]), int(params["m"]), int(params["s"])))
        except (KeyError, ValueError):
            problems.append(f"malformed scan 3 label {label!r}")
            continue
        s, m = got[-1][3], got[-1][2]
        formula = s + 2 if m == 1 else s + 3
        if d != formula or want != formula or dp != 2 or verdict != WITHIN:
            problems.append(f"order {n}: diam {d} want {want} formula {formula} {verdict}")
        if not 2 <= d <= floor_log2(n):
            problems.append(f"order {n}: diam {d} outside 2..floor(log2 n)")
    if got != expected:
        problems.append(f"{len(got)} orders, expected the {len(expected)} admissible ones")
    small = [o[0] for o in expected if o[0] <= ORACLE_MAX_ORDER]
    picked = random.Random(seed).sample(small, min(SAMPLE_ORDERS, len(small)))
    by_n = {r[0]: r[2] for r in rows}
    top = max(small, default=0)
    for n in picked:
        want = oracle.prefix_diameter(catalan_bits(top), top, n)
        if by_n.get(n) != want:
            problems.append(f"order {n}: diam {by_n.get(n)}, oracle {want}")
    expect_rc(problems, rc, 0)
    return len(rows), problems


def check_scan1_ones16(oracle: Oracle, seed: int, n_max: int, rc: int, out: str):
    """``scan 1 --aseq-ones 16 --nmax N --violations-only``: violation rows
    only, verdicts against the Catalan column, exactly the printed
    counterexamples at n <= 100, diameters within 2..floor(log2 n), and a
    seeded sample of the orders recomputed by the oracle."""
    problems: list[str] = []
    rows = parse_scan(out, problems)
    family = "1" * 16 + "0" * (max(n_max - 1, 16) - 16)
    violations = []
    for n, seq, d, dc, dp, verdict in rows:
        if seq != family or dp != 2:
            problems.append(f"order {n}: sequence or Pascal column wrong")
        want = UPPER if d > dc else LOWER if d < 2 else WITHIN
        if verdict != want:
            problems.append(f"order {n}: verdict {verdict}, expected {want}")
        for name, value in (("diam", d), ("diam_catalan", dc)):
            if not 2 <= value <= floor_log2(n):
                problems.append(f"order {n}: {name} {value} outside 2..floor(log2 n)")
        if verdict != WITHIN:
            violations.append((n, dc, d))
    orders = [r[0] for r in rows]
    if len(violations) != len(rows):
        problems.append("a non-violation row in --violations-only output")
    printed = oracle.printed_counterexamples()
    if [v for v in violations if v[0] <= 100] != printed:
        problems.append("violations at n <= 100 differ from the printed counterexamples")
    rng = random.Random(seed)
    checked = [n for n in orders if n <= ORACLE_MAX_ORDER]
    top = max(checked, default=0)
    by_n = {r[0]: r for r in rows}
    for n in rng.sample(checked, min(SAMPLE_ORDERS, len(checked))):
        _, _, d, dc, _, _ = by_n[n]
        fam = oracle.prefix_diameter("1" * 16, top, n)
        cat = oracle.prefix_diameter(catalan_bits(top), top, n)
        if (d, dc) != (fam, cat):
            problems.append(f"order {n}: diam {d}/{dc}, oracle {fam}/{cat}")
    expect_rc(problems, rc, 1 if violations else 0)
    return len(rows), problems


# -- metric, graph, verify and reproduce outputs --------------------------------

def check_value(expected, rc: int, out: str):
    """A one-line ``metric`` answer equal to a precomputed value."""
    problems: list[str] = []
    lines = body_lines(out)
    if lines != [str(expected)]:
        problems.append(f"output {lines[:3]}, expected {expected}")
    expect_rc(problems, rc, 0)
    return len(lines), problems


def check_matrix(expected: list[str], rc: int, out: str, note: bool = False):
    """Adjacency rows equal to a recomputed (and printed) matrix; with
    `note`, the ``# match`` line ``reproduce`` prints as well."""
    problems: list[str] = []
    lines = body_lines(out)
    if lines != expected:
        problems.append("adjacency matrix differs from the recomputed one")
    if note and "# match: computed matrix equals the printed one" not in out.splitlines():
        problems.append("missing '# match' note")
    expect_rc(problems, rc, 0)
    return len(lines), problems


def check_verifier(claim: str, rc: int, out: str):
    """One verifier line for `claim` that reads pass."""
    problems: list[str] = []
    lines = body_lines(out)
    if len(lines) != 1 or not lines[0].startswith(claim + " [") or " pass checks=" not in lines[0]:
        problems.append(f"verifier output {lines[:2]} does not read pass")
    expect_rc(problems, rc, 0)
    return len(lines), problems


def check_counterexamples(oracle: Oracle, rc: int, out: str):
    """``reproduce counterexamples``: the printed table, with every row's
    diameters recomputed by the oracle."""
    problems: list[str] = []
    lines = body_lines(out)
    if not lines or lines[0] != "n,diam_catalan,diam_g":
        problems.append("missing counterexamples header")
    rows = [tuple(map(int, ln.split(","))) for ln in lines[1:]]
    if rows != oracle.printed_counterexamples():
        problems.append("rows differ from the printed counterexamples")
    for n, dc, dg in rows:
        cat = oracle.prefix_diameter(catalan_bits(100), 100, n)
        if (dc, dg) != (cat, oracle.prefix_diameter("1" * 16, 100, n)):
            problems.append(f"order {n}: diameters differ from the oracle")
    expect_rc(problems, rc, 0)
    return len(rows), problems


def check_table(oracle: Oracle, n: int, printed_name: str, rc: int, out: str):
    """``reproduce table1|table2``: one row per enumerated pattern with its
    diameter recomputed by the oracle, its printed values from the data
    file, and the status those imply; the omitted-pattern notes."""
    problems: list[str] = []
    lines = body_lines(out)
    if not lines or lines[0] != "aseq,diam,status,printed":
        problems.append("missing table header")
    patterns = io_patterns(n - 1)
    if n == 16:
        patterns = [p for p in patterns if p.startswith("111111")]
    printed: dict[str, list[int]] = {}
    for seq, diam in oracle.printed_rows(printed_name):
        printed.setdefault(seq, []).append(int(diam))
    expected = []
    for seq in patterns:
        d = oracle.diameter(seq, n)
        values = printed.get(seq, [])
        if not values:
            status = "absent-from-print"
        elif len(set(values)) > 1:
            status = "conflicting-print"
        else:
            status = "match" if values[0] == d else "mismatch"
        shown = "|".join(map(str, values)) if values else "-"
        expected.append(f"{seq},{d},{status},{shown}")
    if lines[1:] != expected:
        problems.append("table rows differ from the oracle and the printed values")
    notes = [ln for ln in out.splitlines() if ln.startswith("# omitted from print: ")]
    if notes != [f"# omitted from print: {s}" for s in patterns if s not in printed]:
        problems.append("omitted-from-print notes differ")
    expect_rc(problems, rc, 1 if any(",mismatch," in e for e in expected) else 0)
    return len(lines) - 1, problems
