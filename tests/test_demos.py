"""The demos run as scripts, each exiting 0 with its key finding printed.

Demo 05 is left out: it reruns the exhaustive k = 5 scan (about 6 s),
which `test_acceptance` already runs and checks.
"""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "script, line",
    [
        ("01_series_and_triangles.py", "ones sit exactly at degrees 2^j - 1: [0, 1, 3, 7, 15]"),
        ("02_graphs_and_metrics.py", "Order-32 graph: clique number 6 = color count 6 = log2(32) + 1"),
        ("03_diameter_theorems.py", "catalan-diameters [k_max=7] pass checks=7"),
        ("04_counterexample_hunt.py", "matches the published 13-row table: True"),
    ],
)
def test_demo_runs(script, line):
    proc = subprocess.run([sys.executable, str(DEMOS / script)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout.splitlines()
