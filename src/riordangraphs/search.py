"""Enumeration of io A-sequences and the conjecture-scan harness.

Scans are deterministic: records come out sorted by (order, free-bit
lexicographic position of the A-sequence) no matter how many worker
processes ran.  Scanned sequences pass `riordan.require_io_pattern`.
`_scan` is the one path from A-sequences to diameter rows: the scans
and the reproductions of the paper's tables and counterexample list
read their rows off it.  A scanned sequence travels as its name, the
records' `aseq` text: `_io_space` forms the names from free-bit values,
and its `ASequence` lives only while `_scan` builds its graph.  The
one price, `_price` (graphs x sum of n^2 BFS vertex visits, iFUB's
worst case, the two reference graphs counted; then the A-sequence
entries that the records hold), refuses a scan before anything is
built; its visits for the Bell graphs alone, the references left out,
size the pool.

CSV schema for scan records: n,aseq,diam,diam_catalan,diam_pascal,verdict
with exit semantics: a scan "fails" exactly when violations were found.
"""

from __future__ import annotations

import os
import random
from functools import partial
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .binseries import _bits_text, _text_bits
from .errors import DEFAULT_BUDGET, ScaleError, UsageError, _guard, _guard_exponent, _square_sum
from .riordan import ASequence, _io_pattern, require_io_pattern
from .rgraph import build_bell_aseq, catalan_graph, pascal_graph

__all__ = [
    "ConjectureReport",
    "SearchRecord",
    "TableReproduction",
    "counterexample_family",
    "enumerate_io_aseqs",
    "mixed_size_orders",
    "price_conjecture1",
    "reproduce_counterexamples",
    "reproduce_tables",
    "scan_conjecture1",
    "scan_conjecture2",
    "scan_conjecture3",
]

EXHAUSTIVE_MAX_K = 5  # scan 2 enumerates every pattern up to k = 5, samples beyond
# Priced BFS vertex visits each pool process needs to pay for itself.  CLI
# medians of 7 on a 2-vCPU Xeon, one process against two: `scan 2 -k 6
# --sample 256`, priced at exactly 2^20, stays in one process (0.28 s);
# `--sample 1024` takes 0.67 against 0.51 s (1.32x), `-k 5` 5.83 against
# 4.42 s (1.32x).
POOL_MIN_VISITS = 2**20

WITHIN = "within-bounds"
UPPER = "upper-violation"
LOWER = "lower-violation"


class SearchRecord(NamedTuple):
    """One diameter datum from a scan."""

    n: int
    aseq: str
    diam: int
    diam_catalan: int
    diam_pascal: int
    verdict: str

    def to_csv(self) -> str:
        return f"{self.n},{self.aseq},{self.diam},{self.diam_catalan},{self.diam_pascal},{self.verdict}"


CSV_HEADER = "n,aseq,diam,diam_catalan,diam_pascal,verdict"


class ConjectureReport:
    """Outcome of one conjecture scan."""

    def __init__(self, conjecture: str, params: dict, records=None, extras=None):
        self.conjecture = conjecture
        self.params = params
        self.records = [] if records is None else records
        self.extras = {} if extras is None else extras

    @property
    def violations(self) -> list:
        """The records whose verdict is not within-bounds, in record order."""
        return [r for r in self.records if r.verdict != WITHIN]

    @property
    def passed(self) -> bool:
        return not self.violations

    def summary(self) -> dict:
        return {
            "records": len(self.records),
            "violations": len(self.violations),
        }

    def to_csv_lines(self) -> list[str]:
        return [CSV_HEADER] + [r.to_csv() for r in self.records]


def enumerate_io_aseqs(length: int) -> Iterator[ASequence]:
    """All io-pattern A-sequences of a given length.

    Yields 2^ceil((length-2)/2) sequences in lexicographic order of their
    free bits (a2, a4, ...); a trailing unpaired even slot is free too.
    """
    if length < 2:
        raise UsageError(f"pattern sequences need length >= 2, got {length}")
    yield from map(ASequence, _io_names(range(1 << ((length - 1) // 2)), length))


def counterexample_family(length: int) -> ASequence:
    """The A-sequence of sixteen leading ones, zero afterwards."""
    if length < 16:
        raise UsageError(f"length {length} shorter than the block of 16 ones")
    return ASequence([1] * 16 + [0] * (length - 16))


def _price(graphs: int, entries: int, orders: Sequence[int], budget: int) -> None:
    """The one scan price: refuse, before anything is built, `graphs` Bell
    graphs and the two references measured at `orders` past `budget`, then
    their A-sequences' `entries`, which a record holds at every order."""
    _guard(graphs + 2, orders, budget)
    entries *= len(orders)
    if entries > budget:
        raise ScaleError(f"estimate {entries} A-sequence entries exceeds budget {budget}")


def price_conjecture1(n_max: int, lengths: Sequence[int], budget: int) -> None:
    """Refuse scan 1 past `budget`, before anything is built: the `_price` of
    A-sequences with `lengths` entries at orders 4..n_max."""
    _price(len(lengths), sum(lengths), range(4, n_max + 1), budget)


def _io_space(
    length: int, orders: Sequence[int], budget: int,
    sample: Optional[int] = None, seed: int = 0,
) -> list[str]:
    """Names, in free-bit order, of every io pattern of `length` or of `sample`
    distinct ones drawn with `seed` (all-ones among them); priced at `orders` first."""
    frees = (length - 1) // 2  # a2, a4, ...
    # 2^frees is capped past 2^64 and the budget, which the guard refuses alike
    space = 1 << min(frees, max(budget.bit_length(), 64) + 1)
    count = space if sample is None else min(sample, space)
    _price(count, count * length, orders, budget)
    values = range(space)
    if count < space:
        rng = random.Random(seed)
        seen = {(1 << frees) - 1}  # always include the Catalan prefix
        while len(seen) < count:
            seen.add(rng.getrandbits(frees))
        values = sorted(seen)
    return list(_io_names(values, length))


def _io_names(values: Iterable[int], length: int) -> Iterator[str]:
    """Names of the io patterns of `length` whose free bits a2, a4, ..., read
    with a2 as the most significant, spell each of `values`."""
    frees = (length - 1) // 2
    for value in values:
        yield _bits_text(_io_pattern(_text_bits(format(value, f"0{frees}b")), length))


def _sequence_diameters(name: str, n_max: int, orders: Sequence[int]) -> tuple[int, ...]:
    # module level so that it pickles for the pool
    return build_bell_aseq(ASequence(name), n_max).prefix_diameters(orders)


def _scan(
    names: Sequence[str],
    n_max: int,
    orders: Sequence[int],
    jobs: int,
    verdict: Callable[[str, int, int], str],
) -> tuple[list[SearchRecord], dict[int, int]]:
    """The one path from A-sequences, given by their `names`, to diameter
    rows: one record per (order, sequence), built in (n, aseq) order from the
    ascending `orders` and the sorted names, and the Pascal reference
    diameters by order.  The references are the prefixes of CG and PG of
    order `n_max`; the Bell diameters run on min(jobs, cpu count, len(names),
    visits // POOL_MIN_VISITS) processes, each given one contiguous run of the
    sorted names, with visits the Bell graphs' share of the scan's price;
    `verdict(aseq, diam, diam_catalan)` rates each record."""
    names = sorted(names)
    ref_catalan = catalan_graph(n_max).prefix_diameters(orders)
    ref_pascal = pascal_graph(n_max).prefix_diameters(orders)
    work = partial(_sequence_diameters, n_max=n_max, orders=orders)
    visits = len(names) * _square_sum(orders)
    procs = min(jobs, os.cpu_count() or 1, len(names), visits // POOL_MIN_VISITS)
    if procs <= 1:
        results = map(work, names)
    else:
        from multiprocessing import Pool

        with Pool(processes=procs) as pool:
            results = pool.map(work, names, chunksize=-(-len(names) // procs))
    records = [
        SearchRecord(n, name, d, d_catalan, d_pascal, verdict(name, d, d_catalan))
        for n, d_catalan, d_pascal, diams in zip(orders, ref_catalan, ref_pascal, zip(*results))
        for name, d in zip(names, diams)
    ]
    return records, dict(zip(orders, ref_pascal))


def _band(d: int, low: int, high: int) -> str:
    """UPPER above `high`, LOWER below `low`, else WITHIN."""
    return UPPER if d > high else LOWER if d < low else WITHIN


def _conjecture1(name: str, d: int, d_catalan: int) -> str:
    """Scan 1's verdict: diam(PG_n) = 2 <= diam(G_n) <= diam(CG_n)."""
    return _band(d, 2, d_catalan)


# -- scans --------------------------------------------------------------------

def scan_conjecture1(
    n_max: int,
    a_len: Optional[int] = None,
    sequences: Optional[Sequence[ASequence]] = None,
    budget: int = DEFAULT_BUDGET,
    jobs: int = 1,
) -> ConjectureReport:
    """Compare diam(G_n) against diam(PG_n) = 2 and diam(CG_n) for 4 <= n <= n_max.

    Scans every io pattern of length `a_len` (which must determine every
    scanned order: a_len >= n_max - 1), or an explicit list of io
    patterns, each passed through `require_io_pattern`.
    Upper violations are orders with diam(G_n) > diam(CG_n); lower
    violations have diam(G_n) < 2.  Non-Pascal sequences that stay at
    diameter 2 for every scanned order are reported as uniqueness
    candidates in extras["diameter2_everywhere"].
    """
    if n_max < 4:
        raise UsageError("n_max must be at least 4")
    orders = range(4, n_max + 1)
    if sequences is None:
        if a_len is None:
            raise UsageError("need a_len or an explicit sequence list")
        if a_len < n_max - 1:
            raise UsageError(f"a_len {a_len} cannot determine graphs up to order {n_max}")
        names = _io_space(a_len, orders, budget)
    else:
        sequences = list(sequences)
        price_conjecture1(n_max, [len(a) for a in sequences], budget)
        for a in sequences:
            require_io_pattern(a, n_max)
        names = [a.to_bitstring() for a in sequences]

    records, ref_pascal = _scan(names, n_max, orders, jobs, _conjecture1)
    off_two = {r.aseq for r in records if r.diam != 2}
    return ConjectureReport(
        "1",
        {"n_max": n_max, "sequences": len(names)},
        records,
        {
            "diameter2_everywhere": [
                name for name in names
                if name not in off_two and name.rstrip("0") != "11"  # not Pascal
            ],
            "pascal_reference": ref_pascal,
        },
    )


def scan_conjecture2(
    k: int,
    sample: Optional[int] = None,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
    jobs: int = 1,
) -> ConjectureReport:
    """Which io patterns of order n = 2^k reach the extremal diameter k?

    Enumerates the full determining space (length 2^k - 1 patterns,
    trailing bit free) for k <= EXHAUSTIVE_MAX_K, or a seeded random
    sample beyond.  The conjecture expects the all-ones sequence to be
    the only graph attaining diameter k; any other attainer is recorded
    as a violation.  Sequence identity is adjacency identity under the
    canonical labels, not abstract isomorphism.
    """
    if k < 1:
        raise UsageError("k must be at least 1")
    if sample is not None and sample < 1:
        raise UsageError(f"sample must be at least 1, got {sample}")
    _guard_exponent(k, budget)
    n = 1 << k
    length = n - 1 if n > 2 else 2
    if sample is None and k > EXHAUSTIVE_MAX_K:
        sample = 4096
    names = _io_space(length, [n], budget, sample, seed)
    ones = "1" * length
    records, _ = _scan(
        names, n, [n], jobs,
        lambda name, d, _: UPPER if d == k and name != ones else WITHIN,
    )
    attainers = [r.aseq for r in records if r.diam == k]
    return ConjectureReport(
        "2",
        {
            "k": k,
            "n": n,
            "sequences": len(names),
            "exhaustive": sample is None,
        },
        records,
        {"attainers": attainers, "all_ones_attains": ones in attainers},
    )


def mixed_size_orders(n_max: int) -> list[tuple[int, int, int, int]]:
    """All (n, k, m, s) with n = 1 + 2^m + (2^k + ... + 2^(k+s)) <= n_max,
    k > m >= 1 and s >= 1, by increasing n; each n has one (k, m, s), bit m
    being the lowest of n - 1.  Built from bit positions: 1..n_max is never walked."""
    top = n_max.bit_length()
    out = []
    for m in range(1, top):
        for k in range(m + 1, top):
            for s in range(1, top - k):
                n = 1 + (1 << m) + (((1 << (s + 1)) - 1) << k)
                if n <= n_max:
                    out.append((n, k, m, s))
    return sorted(out)


def scan_conjecture3(
    n_max: int, budget: int = DEFAULT_BUDGET
) -> ConjectureReport:
    """diam(CG_n) = s + 2 (m = 1) or s + 3 at the admissible mixed orders."""
    if n_max < 8:
        raise UsageError("n_max must be at least 8")
    # 2^e - 1 <= n_max is admissible (m = 1, k = 2, s = e - 3, for e >= 4):
    # its price bounds the scan's from below before the orders are listed
    _guard_exponent(n_max.bit_length() - 2, budget)
    orders = mixed_size_orders(n_max)
    measured = [o[0] for o in orders]
    _guard(1, measured, budget)  # CG_n_max, measured at the mixed orders
    diams = catalan_graph(n_max).prefix_diameters(measured)
    report = ConjectureReport("3", {"n_max": n_max, "orders": len(orders)})
    for (n, k, m, s), d in zip(orders, diams):
        want = s + 2 if m == 1 else s + 3
        report.records.append(SearchRecord(
            n, f"catalan(k={k},m={m},s={s})", d, want, 2, _band(d, want, want)
        ))
    return report


# -- reproductions -------------------------------------------------------------

def reproduce_counterexamples(n_max: int = 100) -> list[tuple[int, int, int]]:
    """Rows (n, diam(CG_n), diam(G_n)) where the sixteen-ones family
    exceeds the Catalan diameter, for 4 <= n <= n_max: scan 1's upper
    violations on that family."""
    family = [counterexample_family(max(n_max - 1, 16)).to_bitstring()]
    records, _ = _scan(family, n_max, range(4, n_max + 1), 1, _conjecture1)
    return [(r.n, r.diam_catalan, r.diam) for r in records if r.verdict == UPPER]


class TableRow(NamedTuple):
    aseq: str
    diam: int
    status: str  # match | conflicting-print | mismatch | absent-from-print
    printed: tuple[int, ...]


class TableReproduction(NamedTuple):
    """Recomputed table next to its printed version, with anomaly notes."""

    name: str
    rows: list
    duplicates: list  # (aseq, times printed, printed values)
    omitted: list  # enumerated sequences the printed table lacks
    foreign: list  # printed sequences outside the enumeration

    @property
    def genuine_mismatches(self) -> list:
        return [r for r in self.rows if r.status == "mismatch"]


def _reproduce_table(target: str) -> TableReproduction:
    """Table `target`, "table1" or "table2": `_scan`'s diameters against print."""
    from . import golden

    order, head = {"table1": (8, ""), "table2": (16, "111111")}[target]
    names = [s for s in _io_space(order - 1, [order], DEFAULT_BUDGET) if s.startswith(head)]
    records, _ = _scan(names, order, [order], 1, _conjecture1)
    printed_by_seq: dict[str, list[int]] = {}
    for seq, diam in getattr(golden, f"printed_{target}")():
        printed_by_seq.setdefault(seq, []).append(diam)
    rows = []
    for r in records:
        values = tuple(printed_by_seq.get(r.aseq, ()))
        status = (
            "absent-from-print" if not values
            else "conflicting-print" if len(set(values)) > 1
            else "match" if values[0] == r.diam else "mismatch"
        )
        rows.append(TableRow(r.aseq, r.diam, status, values))
    duplicates = [
        (seq, len(vals), tuple(vals))
        for seq, vals in printed_by_seq.items()
        if len(vals) > 1
    ]
    omitted = [r.aseq for r in records if r.aseq not in printed_by_seq]
    foreign = sorted(set(printed_by_seq) - {r.aseq for r in records})
    return TableReproduction(f"diam{order}", rows, duplicates, omitted, foreign)


def reproduce_tables(*targets: str) -> tuple[TableReproduction, ...]:
    """Recompute printed tables `targets` (both by default) and diff them against print.

    "table1" (diam8) is all 8 patterns of length 7 at order 8, scan 2's rows at k = 3;
    "table2" (diam16) the 32 of length 15 whose first six entries are ones, at order 16.
    """
    return tuple(map(_reproduce_table, targets or ("table1", "table2")))
