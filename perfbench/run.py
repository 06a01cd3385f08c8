"""Benchmark of the ``riordangraphs`` CLI: two serial workloads, checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is taken from its ``src/``.
With ``--trace 0`` it launches the workload's commands as subprocesses, one
at a time (a closed loop with one client), in whole rounds for as long as
another round fits in ``--seconds`` (at least one), and reports the
end-to-end metrics, each launch's times divided by the host's speed during
it (see child.py).  With ``--trace 1`` it replays the workload once
in-process with per-layer wrappers (see layers.py) and reports the
per-layer metrics.  Every output is
checked (see checks.py); the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
MARK = "perfbench-setup "
REF_MARK = "perfbench-ref "
# Times are reported at the speed at which child.reference_work takes this
# long (see README, "Host speed").
REF_NOMINAL_S = 125e-6
# each command's set-up time is the median of at least this many launches
SETUP_SAMPLES = 11
# a launch that takes longer than this is killed and counted as failed
LAUNCH_TIMEOUT_S = 120


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


@dataclass
class Launch:
    rc: int
    out: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    setup_s: float | None
    ref_s: float | None = None  # time of child.reference_work in the launch (harmonic mean)
    setup_ref_s: float | None = None  # the same, before set-up ended

    @property
    def slowdown(self) -> float:
        """How many times slower than nominal the host ran this launch."""
        return (self.ref_s or REF_NOMINAL_S) / REF_NOMINAL_S

    @property
    def setup_slowdown(self) -> float:
        return (self.setup_ref_s or REF_NOMINAL_S) / REF_NOMINAL_S


def child_env() -> dict:
    # A fixed hash seed keeps set and dict iteration order the same in every
    # run.  No launch writes bytecode, so in a fresh checkout every launch
    # compiles the package from source alike, however many came before it.
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
                PYTHONDONTWRITEBYTECODE="1")


def launch(argv, env: dict, setup_only: bool = False) -> Launch:
    """Run child.py once; wall time from launch to reaped exit, CPU and peak
    RSS of that child from os.wait4, and its set-up time."""
    cmd = [sys.executable, str(CHILD), *(["--setup-only"] if setup_only else []), *argv]
    err: list[bytes] = []
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=ROOT)
    drain = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    drain.start()
    killer = threading.Timer(LAUNCH_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        drain.join()
        _, status, usage = os.wait4(proc.pid, 0)
        t1 = time.monotonic()
    finally:
        killer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = err[0].decode(errors="replace").splitlines() if err else []
    first = lines[0] if lines else ""
    setup = float(first[len(MARK):]) - t0 if first.startswith(MARK) else None
    refs = [ln for ln in lines if ln.startswith(REF_MARK)]
    ref_s, setup_ref_s = map(float, refs[-1][len(REF_MARK):].split()) if refs else (None, None)
    return Launch(proc.returncode, out.decode(), t1 - t0, usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss / 1024, setup, ref_s, setup_ref_s)


def timed_run(name: str, cmds, seconds: float) -> tuple[int, int, dict]:
    env = child_env()
    launch(cmds[0].argv, env, setup_only=True)  # warm the page cache
    rounds: list[list[Launch]] = []
    start = time.monotonic()
    while True:
        rounds.append([launch(c.argv, env) for c in cmds])
        elapsed = time.monotonic() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:  # next round would overrun
            break
    timed_s = time.monotonic() - start

    setups = [[r[i] for r in rounds if r[i].setup_s is not None] for i in range(len(cmds))]
    for _ in range(SETUP_SAMPLES - len(rounds)):
        for i, c in enumerate(cmds):
            done = launch(c.argv, env, setup_only=True)
            if done.setup_s is not None:
                setups[i].append(done)

    attempted = failed = records = 0
    for r in rounds:
        for c, run in zip(cmds, r):
            attempted += 1
            n, problems = c.check(run.rc, run.out)
            records += n
            if problems or run.setup_s is None or run.ref_s is None:
                failed += 1
                log(f"FAILED {c.label}: rc={run.rc} {'; '.join(problems[:5])}")

    def per_command(value) -> float:
        """Each command's median over the rounds, summed over the commands."""
        return sum(statistics.median(value(r[i]) for r in rounds) for i in range(len(cmds)))

    # Times are divided by the host's speed during each launch (README, "Host
    # speed"): the host runs everything up to 2.3x slower for spells of
    # seconds to minutes, and that is not the program's doing.
    wall = per_command(lambda run: run.wall_s / run.slowdown)
    metrics = {
        "wall_s": (wall, "s"),
        "cpu_s": (per_command(lambda run: run.cpu_s / run.slowdown), "s"),
        "records_per_s": (records / len(rounds) / wall, "1/s"),
        "peak_rss_mb": (statistics.median(max(run.rss_mb for run in r) for r in rounds), "MB"),
        "setup_s": (sum(statistics.median(x.setup_s / x.setup_slowdown for x in s) for s in setups if s), "s"),
    }
    print(f"{name}: {len(rounds)} rounds of {len(cmds)} commands in {timed_s:.1f} s, "
          f"{min(map(len, setups))}+ set-up samples per command")
    print("round wall times as measured: "
          + " ".join(f"{sum(run.wall_s for run in r):.3f}" for r in rounds) + " s")
    print(f"as measured: wall {per_command(lambda run: run.wall_s):.3f} s, "
          f"set-up {sum(statistics.median(x.setup_s for x in s) for s in setups if s):.4f} s")
    slowdowns = [run.slowdown for r in rounds for run in r]
    print(f"host slow-down (reference time over {REF_NOMINAL_S * 1e6:.0f} us): median "
          f"{statistics.median(slowdowns):.3f}, min {min(slowdowns):.3f}, "
          f"max {max(slowdowns):.3f} over {len(slowdowns)} launches")
    for i, c in enumerate(cmds):
        print(f"  {statistics.median(r[i].wall_s / r[i].slowdown for r in rounds):8.3f} s  {c.label}")
    return attempted, failed, metrics


def main(argv=None) -> int:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    for need in (SRC / "riordangraphs" / "cli.py", ROOT / "tests" / "oracles.py"):
        if not need.is_file():
            log(f"error: {need} not found; run from the root of a riordangraphs checkout")
            return 2
    from checks import Oracle
    from workloads import commands

    cmds = commands(args.workload, Oracle(ROOT), args.seed)
    if args.trace:
        from layers import LAYER_METRICS, traced_run

        attempted, failed, values = traced_run(cmds, child_env(), str(SRC), log)
        metrics = {name: (values[name], unit) for name, unit in LAYER_METRICS}
    else:
        attempted, failed, metrics = timed_run(args.workload, cmds, args.seconds)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
