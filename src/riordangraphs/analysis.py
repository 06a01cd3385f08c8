"""Executable verifiers for the structural and diameter claims.

Every verifier recomputes from adjacency -- none of them assumes the
claim it is checking.  A failing report always carries a witness that
can be replayed with plain graph operations (see `replay_witness`).

Reports serialize to one line each: claim id, parameters, verdict, and
the witness when failing.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .binseries import BinarySeries
from .errors import DEFAULT_BUDGET, DisconnectedError, IoViolationError, UsageError
from .errors import _guard, _guard_exponent
from .riordan import ASequence, RiordanPair, require_io_pattern
from .rgraph import DEFAULT_CLIQUE_CAP, Graph, _mixed_size, build, build_bell_aseq, catalan_graph

__all__ = [
    "VerificationReport",
    "claim_order",
    "replay_witness",
    "verify_catalan_diameters",
    "verify_diameter_drop",
    "verify_fractal",
    "verify_mixed_size",
    "verify_monotonicity",
    "verify_structural",
]

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "hypothesis-not-met"


class VerificationReport:
    """Outcome of one claim check: verdict plus a replayable witness on failure."""

    def __init__(self, claim: str, params: dict):
        self.claim = claim
        self.params = params
        self.verdict = PASS
        self.witness: Optional[dict] = None
        self.checks = 0
        self.notes: list[str] = []

    @property
    def passed(self) -> bool:
        return self.verdict == PASS

    def fail(self, witness: dict) -> "VerificationReport":
        self.verdict = FAIL
        self.witness = witness
        return self

    def to_line(self) -> str:
        params = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        out = f"{self.claim} [{params}] {self.verdict} checks={self.checks}"
        if self.witness is not None:
            w = ",".join(f"{k}={v}" for k, v in sorted(self.witness.items()))
            out += f" witness[{w}]"
        return out


def _floor_log2(n: int) -> int:
    return n.bit_length() - 1


def claim_order(claim: str, **params) -> Sequence[int]:
    """The orders of the graphs a verifier measures, priced before any is
    built; `params` are the verifier's, without `a`.  Each claim's orders,
    range checks and price are stated here only.

    The range checks come first, so no shift count is ever negative; then
    an order given by its exponent is refused at the default budget from
    2^32 on, before it is formed; then the orders are priced as one graph
    measured at each, at the default budget."""
    if claim == "structural":
        n_max = params["n_max"]
        if n_max < 1:
            raise UsageError(f"graph order must be positive, got {n_max}")
        orders = range(1, n_max + 1)
    elif claim == "fractal":
        s, alpha_max, n = params["s"], params["alpha_max"], params["n"]
        if s < 0 or alpha_max < 1:
            raise UsageError("need s >= 0 and alpha_max >= 1")
        # s past n's bit length fails the same test, refused before 2^s is formed
        if s >= n.bit_length() or (alpha_max + 1) * (1 << s) + 1 > n:
            raise UsageError(f"order {n} too small for s={s}, alpha_max={alpha_max}")
        orders = (n,)
    elif claim == "catalan-diameters":  # CG_2^k and its block of order 2^k - 1 for each k
        k_max = params["k_max"]
        if k_max < 1:
            raise UsageError("k_max must be at least 1")
        _guard_exponent(k_max, DEFAULT_BUDGET)
        orders = [(1 << k) - d for k in range(1, k_max + 1) for d in (1, 0)]
    elif claim == "mixed-size":
        k, m, s = params["k"], params["m"], params["s"]
        if not (k > m >= 1) or s < 0:
            raise UsageError(f"need k > m >= 1 and s >= 0, got k={k}, m={m}, s={s}")
        _guard_exponent(k + s, DEFAULT_BUDGET)
        orders = (_mixed_size(k, m, s)[0],)
    elif claim == "monotonicity":  # prefixes 2^(k+m_max), ..., 2^k
        k, m_max = params["k"], params["m_max"]
        if k < 2:
            raise UsageError(f"need k >= 2, got {k}")
        if m_max < 1:
            raise UsageError(f"need m_max >= 1, got {m_max}")
        _guard_exponent(k + m_max, DEFAULT_BUDGET)
        orders = [(1 << (k + m_max)) >> j for j in range(m_max + 1)]
    elif claim == "diameter-drop":
        k = params["k"]
        if k < 4:
            raise UsageError(f"need k >= 4, got {k}")
        _guard_exponent(k, DEFAULT_BUDGET)
        orders = (1 << k,)
    else:
        raise UsageError(f"unknown claim {claim!r}")
    _guard(1, orders, DEFAULT_BUDGET)
    return orders


def _open(claim: str, a: Optional[ASequence], **params) -> tuple[Sequence[int], VerificationReport]:
    """A verifier's orders from `claim_order`, with `a` (None for a claim that
    builds its own graphs) gated at the largest, and its report, naming `a` as aseq."""
    orders = claim_order(claim, **params)
    if a is not None:
        require_io_pattern(a, max(orders))
        params["aseq"] = a.to_bitstring()
    return orders, VerificationReport(claim, params)


# ---------------------------------------------------------------------------
# per-graph checkers (seams for fault-injection tests)
# ---------------------------------------------------------------------------

def check_structural_order(G: Graph) -> Optional[dict]:
    """Check the io structural facts on one graph; return a witness or None.

    Facts checked for order n: the designated universal vertex when
    n = 2^k + 1 or 2^k + 2; the io coloring is proper and uses exactly
    ceil(log2 n) + 1 colors; the clique number equals the color count
    (orders up to DEFAULT_CLIQUE_CAP only); diam <= floor(log2 n), with
    equality to 2 at n = 2^k + 2 and n = 2^(k+1) + 1 for k >= 1; and the
    refined bound diam <= floor(log2(n - 2^k)) + 1 for 2^k + 1 < n < 2^(k+1).
    """
    n = G.n
    colors_wanted = (n - 1).bit_length() + 1  # ceil(log2 n) + 1

    # (i) universal vertex 2^k + 1
    if n >= 2:
        universal = G.universal_vertices()
        for delta in (1, 2):
            m = n - delta
            if m >= 1 and m & (m - 1) == 0:  # n = 2^k + delta
                v = m + 1
                if v not in universal:
                    return {"kind": "universal-vertex-missing", "n": n, "vertex": v}

    # (ii) proper coloring with the right number of classes
    try:
        colors = G.io_coloring()
    except IoViolationError as e:
        return {
            "kind": "coloring-improper",
            "n": n,
            "u": e.pair[0],
            "v": e.pair[1],
            "color": e.color,
        }
    if len(set(colors)) != colors_wanted:
        return {
            "kind": "coloring-size",
            "n": n,
            "got": len(set(colors)),
            "want": colors_wanted,
        }

    # (iii) clique number equals chromatic count
    if n <= DEFAULT_CLIQUE_CAP:
        clique = G.max_clique_size()
        if clique != colors_wanted:
            return {"kind": "clique-size", "n": n, "got": clique, "want": colors_wanted}

    # (iv) log bound, with the exact diameter-2 orders
    diam = G.diameter()
    if diam > _floor_log2(n):
        return {"kind": "diameter-bound", "n": n, "got": diam, "bound": _floor_log2(n)}
    if n >= 4:
        m = n - 2
        two_cases = (m & (m - 1) == 0 and m >= 2) or (
            (n - 1) & (n - 2) == 0 and n - 1 >= 4
        )  # n = 2^k + 2 (k>=1)  or  n = 2^(k+1) + 1 (k>=1)
        if two_cases and diam != 2:
            return {"kind": "diameter-exact", "n": n, "got": diam, "want": 2}

    # (v) refined bound strictly between 2^k + 1 and 2^(k+1)
    k = (n - 1).bit_length() - 1 if n >= 2 else 0
    if n >= 4 and (1 << k) + 1 < n < (1 << (k + 1)):
        bound = _floor_log2(n - (1 << k)) + 1
        if diam > bound:
            return {"kind": "diameter-bound", "n": n, "got": diam, "bound": bound}

    return None


def _first_diff(left: tuple, right: tuple) -> Optional[tuple[int, int, int, int]]:
    """First differing entry (i, j) of two adjacency row tuples, 1-based,
    with the left and right bits there; None when they agree."""
    for i, (a, b) in enumerate(zip(left, right), start=1):
        diff = a ^ b
        if diff:
            j = (diff & -diff).bit_length() - 1
            return i, j + 1, (a >> j) & 1, (b >> j) & 1
    return None


def check_fractal_window(G: Graph, s: int, alpha: int) -> Optional[dict]:
    """Compare the leading (2^s + 1)-block, and so the 2^s-block it leads, with
    its shifted copy at offset alpha * 2^s (labels order-preserving); return a witness or None."""
    size = (1 << s) + 1
    lo = alpha * (size - 1) + 1
    lead = G.induced_prefix(size)
    window = G.induced(list(range(lo, lo + size)))
    diff = _first_diff(lead.rows, window.rows)
    if diff is None:
        return None
    i, j, lead_bit, window_bit = diff
    return {
        "kind": "window-entry",
        "s": s,
        "alpha": alpha,
        "size": size,
        "i": i,
        "j": j,
        "lead": lead_bit,
        "window": window_bit,
    }


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------

def verify_structural(a: ASequence, n_max: int) -> VerificationReport:
    """Universal vertex, coloring, clique and diameter bounds for all n <= n_max."""
    orders, report = _open("structural", a, n_max=n_max)
    full = build_bell_aseq(a, orders[-1])
    for n in orders:
        witness = check_structural_order(full.induced_prefix(n))
        if witness is not None:
            return report.fail(witness)
        report.checks += 1
    return report


def verify_fractal(
    a: ASequence, s: int, alpha_max: int, n: int
) -> VerificationReport:
    """Windows of width 2^s (+1) along the vertex line repeat the leading block."""
    (n,), report = _open("fractal", a, s=s, alpha_max=alpha_max, n=n)
    report.params["n"] = n
    G = build_bell_aseq(a, n)
    for alpha in range(1, alpha_max + 1):
        witness = check_fractal_window(G, s, alpha)
        if witness is not None:
            return report.fail(witness)
        report.checks += 1
    return report


def check_extremal_pairs(G: Graph, k: int, below: Optional[int]) -> Optional[dict]:
    """The diameter-k pairs of an order-2^k graph must be (i, 2^k), i <= 2^(k-1).

    A certificate settles it when (a) the sweep from vertex n reaches every
    vertex in exactly k levels past its own, the last being 1..n/2, and
    (b) `below`, the diameter of the graph without vertex n (None when that
    is disconnected), is less than k, as deleting a vertex never shortens a
    path.  Only when it fails are all diameter pairs found and compared, so
    a witness is always theirs."""
    n = G.n
    if below is not None and below < k:
        levels, seen = G._sweep(n - 1)
        if seen == (1 << n) - 1 and len(levels) == k + 1 and levels[k] == (1 << n // 2) - 1:
            return None
    diam, pairs = G.diameter_pairs()
    if diam != k:
        return {"kind": "diameter", "n": n, "got": diam, "want": k}
    expected = {(i, n) for i in range(1, n // 2 + 1)}
    if pairs != expected:
        return {
            "kind": "pairs-set",
            "n": n,
            "missing": sorted(expected - pairs),
            "extra": sorted(pairs - expected),
        }
    return None


def verify_catalan_diameters(k_max: int) -> VerificationReport:
    """Catalan graph diameters at and just below powers of two.

    For each k <= k_max: diam(CG_{2^k}) = k with the extremal pairs
    exactly {(i, 2^k) : i <= 2^(k-1)}; diam(CG_{2^k - 1}) = k - 1; the
    reversed graphs coincide with the pairs (1, z + z^2) and
    (1 + z, z + z^2); and in the reversed power graph the largest
    neighbor of i is 2i for i <= 2^(k-1).
    """
    orders, report = _open("catalan-diameters", None, k_max=k_max)
    size = orders[-1]  # each CG_n, and each graph of a pair, is its leading block
    largest = catalan_graph(size)
    power, near = (build(RiordanPair(BinarySeries(g, size), BinarySeries(0b110, size)), size)
                   for g in (0b1, 0b11))
    for below, n in zip(orders[::2], orders[1::2]):
        k = n.bit_length() - 1
        CG = largest.induced_prefix(n)
        low = largest.induced_prefix(below)
        try:
            got = low.diameter()
        except DisconnectedError as error:
            got, disconnected = None, error
        witness = check_extremal_pairs(CG, k, got)
        if witness is not None:  # a fault of CG_n is named before CG_{n-1} is refused
            return report.fail(witness)
        if got is None:
            raise disconnected
        if got != k - 1:
            return report.fail(
                {"kind": "diameter", "n": below, "got": got, "want": k - 1}
            )

        rev = CG.reverse_direct()
        for tag, got, form in (
            ("reversed-power-pair", rev, power.induced_prefix(n)),
            ("reversed-near-power-pair", low.reverse_direct(), near.induced_prefix(below)),
        ):
            if got.rows != form.rows:
                return report.fail(_first_entry_diff(tag, got.n, got, form))

        for i in range(1, n // 2 + 1):
            top = rev.rows[i - 1].bit_length()  # largest neighbor label of i
            if top != 2 * i:
                return report.fail(
                    {"kind": "max-neighbor", "n": n, "i": i, "got": top, "want": 2 * i}
                )
        report.checks += 1
    return report


def _first_entry_diff(tag: str, n: int, left: Graph, right: Graph) -> dict:
    i, j, left_bit, right_bit = _first_diff(left.rows, right.rows)
    return {
        "kind": "entry",
        "tag": tag,
        "n": n,
        "i": i,
        "j": j,
        "left": left_bit,
        "right": right_bit,
    }


def verify_mixed_size(k: int, m: int, s: int, a: ASequence) -> VerificationReport:
    """Diameter bound at n = 1 + 2^m + (2^k + ... + 2^(k+s)).

    Any io graph of that order obeys diam <= s + 2 (m = 1) or s + 3.
    For the all-ones sequence at s = 0 the bound is attained exactly
    (diam = 2 or 3) and the two neighbor sets N(1) and N(2^k + 2^m)
    match their closed forms.
    """
    (n,), report = _open("mixed-size", a, k=k, m=m, s=s)
    report.params["n"] = n
    G = build_bell_aseq(a, n)
    bound = _mixed_size(k, m, s)[1]
    diam = G.diameter()
    if diam > bound:
        return report.fail({"kind": "diameter-bound", "n": n, "got": diam, "bound": bound})
    report.checks += 1

    catalan_input = all(b == 1 for b in a.bits[: n - 1])
    if catalan_input and s == 0:
        if diam != bound:
            return report.fail(
                {"kind": "diameter-exact", "n": n, "got": diam, "want": bound}
            )
        heavy = (1 << k) + (1 << m)
        for vertex, want in (
            (1, {(1 << t) + 1 for t in range(k + 1)}),
            (heavy, {(2 << m) + t * (1 << m) - 1 for t in range(1 << (k - m))} | {heavy + 1}),
        ):
            got = G.neighbors(vertex)
            if got != want:
                return report.fail({
                    "kind": "neighbor-set", "n": n, "vertex": vertex,
                    "missing": sorted(want - got), "extra": sorted(got - want),
                })
        report.checks += 2
    return report


def verify_monotonicity(a: ASequence, k: int, m_max: int) -> VerificationReport:
    """With s = diam(G_{2^k}), doubling the order m times adds at most m."""
    orders, report = _open("monotonicity", a, k=k, m_max=m_max)
    *doublings, s = build_bell_aseq(a, orders[0]).prefix_diameters(orders)
    report.notes.append(f"diam(G_{1 << k})={s}")
    for m, diam in enumerate(reversed(doublings), 1):
        if diam > s + m:
            return report.fail(
                {"kind": "diameter-bound", "n": 1 << (k + m), "got": diam, "bound": s + m}
            )
        report.checks += 1
    return report


def verify_diameter_drop(a: ASequence, k: int) -> VerificationReport:
    """Sequences with an early zero have diameter below the all-ones graph.

    Two sufficient conditions are checked for G of order 2^k, k >= 4:
    the block shape (2^m - 2 ones, two zeros, then paired free bits; at
    m = k one zero, the order's trailing slot) with 4 <= m <= k, and the
    weaker 'first 16 entries not all ones'.  When neither applies (in
    particular for the all-ones sequence itself) the verdict is
    hypothesis-not-met.
    """
    (n,), report = _open("diameter-drop", a, k=k)
    report.params["n"] = n

    ones = (a.bits[: n - 1] + (0,)).index(0)  # leading ones of a_0..a_{n-2}

    applicable = False
    # block shape: ones up to 2^m - 2, then a zero inside the order-n window
    # (otherwise this order's graph is the all-ones graph); the io pattern
    # pairs that zero with the next slot, or it is the window's trailing slot
    if 14 <= ones < n - 1 and (ones + 2) & (ones + 1) == 0:
        applicable = True
        report.notes.append(f"block-shape m={(ones + 2).bit_length() - 1}")
    # first 16 entries not all ones; at n = 16 the 16th entry repeats a_14
    if ones < min(16, n - 1):
        applicable = True
        report.notes.append("short-prefix-zero")

    if not applicable:
        report.verdict = NOT_APPLICABLE
        return report

    diam = build_bell_aseq(a, n).diameter()
    if diam >= k:
        return report.fail(
            {"kind": "diameter-bound", "n": n, "got": diam, "bound": k - 1}
        )
    report.checks += 1
    return report


# ---------------------------------------------------------------------------
# witness replay
# ---------------------------------------------------------------------------

def replay_witness(G: Graph, witness: dict) -> bool:
    """Re-establish a failure witness with plain graph operations.

    Returns True when the graph indeed violates the claim the witness
    describes (i.e. the witness is sound).
    """
    kind = witness["kind"]
    if kind == "universal-vertex-missing":
        return witness["vertex"] not in G.universal_vertices()
    if kind == "coloring-improper":
        return G.adjacent(witness["u"], witness["v"])
    if kind == "coloring-size":
        return len(set(G.io_coloring())) == witness["got"] != witness["want"]
    if kind == "clique-size":
        return G.max_clique_size() == witness["got"] != witness["want"]
    if kind == "diameter-bound":
        return G.diameter() == witness["got"] > witness["bound"]
    if kind == "diameter-exact" or kind == "diameter":
        return G.diameter() == witness["got"] != witness["want"]
    if kind == "pairs-set":
        _, pairs = G.diameter_pairs()
        missing = set(map(tuple, witness["missing"]))
        extra = set(map(tuple, witness["extra"]))
        return missing.isdisjoint(pairs) and extra <= pairs and (missing or extra)
    if kind == "neighbor-set":
        nb = G.neighbors(witness["vertex"])
        return all(v not in nb for v in witness["missing"]) and all(
            v in nb for v in witness["extra"]
        )
    if kind == "max-neighbor":
        return G.rows[witness["i"] - 1].bit_length() == witness["got"] != witness["want"]
    if kind == "window-entry":
        i, j = witness["i"], witness["j"]
        lo = witness["alpha"] * (1 << witness["s"]) + 1
        return G.adjacent(i, j) == witness["lead"] and (
            G.adjacent(lo + i - 1, lo + j - 1) == witness["window"] != witness["lead"]
        )
    if kind == "entry":
        # G is the left graph of the comparison
        return G.adjacent(witness["i"], witness["j"]) == witness["left"] != witness["right"]
    raise UsageError(f"unknown witness kind {kind!r}")
