"""Exhaustive scans at powers of two, and the mixed-order formula.

Order 2^k: which io-decomposable Bell graphs attain the extremal
diameter k?  Exhaustive up to k = 5.  The k = 3 scan turns up a second
attainer -- the all-ones graph plus the edge {1, 8} -- so per-order
uniqueness already fails at order 8; from k = 4 on, the all-ones
sequence stands alone.  The mixed-order scan confirms the closed
diameter formula at every admissible order up to 256.
"""

import time

from riordangraphs import ASequence, build_bell_aseq, catalan_graph
from riordangraphs.search import scan_conjecture2, scan_conjecture3


def main():
    reports = {}
    for k in (2, 3, 4, 5):
        t0 = time.perf_counter()
        rep = reports[k] = scan_conjecture2(k)
        dt = time.perf_counter() - t0
        print(f"k={k}: {rep.params['sequences']:>6} sequences, "
              f"attainers of diameter {k}: {rep.extras['attainers']}  [{dt:.1f}s]")

    print("\nThe second attainer at k=3, next to the all-ones graph:")
    G = build_bell_aseq(ASequence("1111110"), 8)
    CG = catalan_graph(8)
    print("  edges:", G.edge_count(), "vs", CG.edge_count(),
          "| extra edge {1,8}:", G.adjacent(1, 8) and not CG.adjacent(1, 8))
    print("  io-decomposable:", G.is_io_decomposable_by_definition(),
          "| diameter:", G.diameter(), "(vertices 4 and 8 share no neighbor)")
    drops = [r.diam for r in reports[4].records if r.aseq.startswith("1111110")]
    print(f"  its {len(drops)} order-16 extensions have diameter"
          f" {'/'.join(map(str, sorted(set(drops))))}, so the all-orders reading"
          " of the uniqueness conjecture", "survives" if max(drops) < 4 else "fails")

    print("\nMixed-order diameter formula, all admissible n <= 256:")
    rep3 = scan_conjecture3(256)
    print(f"  {len(rep3.records)} orders checked, "
          f"{len(rep3.violations)} mismatches")


if __name__ == "__main__":
    main()
