"""Tests of the benchmark itself: its checks reject perturbed outputs, and a
shortened run of each workload completes.

    python3 -m pytest -q perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
from layers import LAYER_METRICS, Tracer, replay
from workloads import WORKLOADS, commands

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
ORACLE = checks.Oracle(ROOT)


def all_commands():
    return [(w, c) for w in WORKLOADS for c in commands(w, ORACLE, SEED)]


_outputs = {}


def output(cmd):
    """(exit code, stdout) of a real launch, once per command."""
    if cmd.label not in _outputs:
        done = run.launch(cmd.argv, run.child_env())
        _outputs[cmd.label] = (done.rc, done.out)
    return _outputs[cmd.label]


def find(label):
    return next(c for _, c in all_commands() if c.label == label)


@pytest.mark.parametrize("workload,cmd", all_commands(), ids=lambda x: getattr(x, "label", x))
def test_real_output_passes(workload, cmd):
    records, problems = cmd.check(*output(cmd))
    assert problems == []
    assert records >= 1


def test_launch_reports_host_speed():
    done = run.launch(("graph", "--aseq", "10", "-n", "5"), run.child_env())
    assert done.rc == 0 and done.setup_s > 0
    assert done.ref_s > 0 and done.setup_ref_s > 0
    assert done.slowdown == done.ref_s / run.REF_NOMINAL_S


@pytest.mark.parametrize("workload,cmd", all_commands(), ids=lambda x: getattr(x, "label", x))
def test_wrong_exit_code_rejected(workload, cmd):
    rc, out = output(cmd)
    assert cmd.check(1 - rc if rc in (0, 1) else 0, out)[1]


@pytest.mark.parametrize("workload,cmd", all_commands(), ids=lambda x: getattr(x, "label", x))
def test_dropped_record_rejected(workload, cmd):
    rc, out = output(cmd)
    lines = out.splitlines()
    body = [i for i, ln in enumerate(lines) if ln and not ln.startswith("#")]
    del lines[body[-1]]
    assert cmd.check(rc, "\n".join(lines) + "\n")[1]


def _set_diam(out, seq, diam, verdict=None):
    """Rewrite the diameter (and optionally the verdict) of one scan row."""
    lines = out.splitlines()
    for i, ln in enumerate(lines):
        f = ln.split(",")
        if len(f) == 6 and f[1] == seq:
            f[2] = str(diam)
            if verdict:
                f[5] = verdict
            lines[i] = ",".join(f)
            return "\n".join(lines) + "\n"
    raise AssertionError(f"no row {seq}")


@pytest.mark.parametrize("k", [3, 4, 5])
def test_scan2_rejects_flipped_diameter_and_extra_attainer(k):
    cmd = find(f"scan 2 -k {k} --jobs 1")
    rc, out = output(cmd)
    ones = "1" * ((1 << k) - 1)
    assert cmd.check(rc, _set_diam(out, ones, k - 1))[1]
    rows = [ln.split(",") for ln in out.splitlines()[1:]]
    # a row the seeded sample picks: move its diameter within 2..k
    sampled = checks.seeded_rows(SEED, checks.io_patterns((1 << k) - 1))
    row = next(r for r in rows if r[1] in sampled and int(r[2]) < k)
    assert cmd.check(rc, _set_diam(out, row[1], 3 if row[2] == "2" else 2))[1]
    # an extra attainer, made consistent in verdict and exit code
    row = next(r for r in rows if int(r[2]) < k)
    extra = _set_diam(out, row[1], k, checks.UPPER)
    assert cmd.check(1, extra)[1]


def test_scan1_rejects_flipped_diameter_and_extra_violation():
    cmd = find("scan 1 --aseq-ones 16 --nmax 100 --violations-only --jobs 1")
    rc, out = output(cmd)
    seq = "1" * 16 + "0" * (99 - 16)
    lines = out.splitlines()
    flipped = [ln.replace(f",{seq},4,3,", f",{seq},3,3,") if ln.startswith("44,") else ln
               for ln in lines]
    assert cmd.check(rc, "\n".join(flipped) + "\n")[1]
    # an extra violation at order 50: diameter 4 against Catalan 3, consistently marked
    extra = list(lines)
    extra.insert(next(i for i, ln in enumerate(extra) if ln.startswith("78,")),
                 f"50,{seq},4,3,2,{checks.UPPER}")
    assert cmd.check(rc, "\n".join(extra) + "\n")[1]


def test_scan3_rejects_flipped_diameter():
    cmd = find("scan 3 --nmax 256 --jobs 1")
    rc, out = output(cmd)
    lines = out.splitlines()
    f = lines[1].split(",")
    lines[1] = ",".join(f[:-4] + [str(int(f[-4]) + 1)] + f[-3:])
    assert cmd.check(rc, "\n".join(lines) + "\n")[1]


@pytest.mark.parametrize("label,line,col", [
    ("metric --family catalan -n 64 diameter", 0, 0),
    ("reproduce counterexamples", 1, 2),
    ("reproduce table1", 1, 1),
    ("reproduce table2", 1, 1),
])
def test_tables_and_values_reject_flipped_diameter(label, line, col):
    cmd = find(label)
    rc, out = output(cmd)
    lines = out.splitlines()
    f = lines[line].split(",")
    f[col] = str(int(f[col]) + 1)
    lines[line] = ",".join(f)
    assert cmd.check(rc, "\n".join(lines) + "\n")[1]


def test_table1_rejects_extra_attainer_row():
    cmd = find("reproduce table1")
    rc, out = output(cmd)
    lines = out.splitlines()
    lines.insert(2, "1111100,3,absent-from-print,-")
    assert cmd.check(rc, "\n".join(lines) + "\n")[1]


def test_traced_exhaustive_counts():
    sys.path.insert(0, str(ROOT / "src"))
    import riordangraphs
    from riordangraphs import cli

    tracer = Tracer()
    tracer.install(riordangraphs)
    try:
        _, results = replay(cli, commands("exhaustive-k5", ORACLE, SEED))
    finally:
        tracer.restore()
    assert results[0][0] == 0
    m = tracer.metrics()
    assert m["rgraph.diameter.calls"] == 32_770
    assert m["rgraph.bfs.sweeps"] == 1_048_640
    assert m["rgraph.bfs.sweeps_per_diameter"] == 32
    assert m["riordan.bell_matrix.row_steps"] == 983_040
    assert m["search.records"] == 32_768
    assert not hasattr(cli.build_bell_aseq, "__wrapped__")


def _bench(*args):
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_shortened_run_completes(workload):
    result = _bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "0")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    result = _bench("--workload", "paper-artifacts", "--seed", "3", "--seconds", "0", "--trace", "1")
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("per_layer")
    assert [name for name, _ in LAYER_METRICS] == list(_declared("per_layer"))
