"""The traced run: per-layer time and work counts, kept apart from timing.

It replays a workload's commands in this process through
``riordangraphs.cli.main(argv)`` with stdout captured, once untraced and
once with timing wrappers around each layer's public functions.  A layer's
self time is its spans' time minus the time of the spans nested in them.
Functions that modules import by value are replaced in every module that
holds them, so ``search`` and ``analysis`` see the wrapped
``build_bell_aseq`` and ``catalan_graph``.  Wrappers do not reach pool
workers, so the replays are serial; the pool is measured on its own,
untraced, by ``pool_probe``.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict

# (metric, unit) in the order BENCHMARK.json lists them
LAYER_METRICS = [
    ("rgraph.diameter.s", "s"),
    ("rgraph.diameter.calls", "count"),
    ("rgraph.bfs.sweeps", "count"),
    ("rgraph.bfs.sweeps_per_diameter", "ratio"),
    ("rgraph.bfs.vertex_visits", "count"),
    ("rgraph.build.s", "s"),
    ("rgraph.induced.s", "s"),
    ("rgraph.clique.s", "s"),
    ("rgraph.reverse.s", "s"),
    ("riordan.bell_matrix.s", "s"),
    ("riordan.bell_matrix.row_steps", "count"),
    ("riordan.aseq.s", "s"),
    ("riordan.aseq.calls", "count"),
    ("binseries.mul.s", "s"),
    ("binseries.mul.calls", "count"),
    ("binseries.other.s", "s"),
    ("analysis.verify.s", "s"),
    ("search.scan.s", "s"),
    ("search.records", "count"),
    ("search.pool.wall_s", "s"),
    ("search.pool.speedup", "ratio"),
    ("cli.import_s", "s"),
]

MODULES = ("binseries", "riordan", "rgraph", "analysis", "search", "cli")
IMPORT_SAMPLES = 7


class Tracer:
    """Span timing and counters for one traced replay."""

    def __init__(self):
        self.self_ns: dict[str, int] = defaultdict(int)
        self.count: dict[str, int] = defaultdict(int)
        self.active: dict[str, int] = defaultdict(int)
        self._stack = [0]  # time covered by child spans, per open span
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, fn, layer: str, on_exit=None):
        stack, self_ns, active = self._stack, self.self_ns, self.active
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            stack.append(0)
            active[layer] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                active[layer] -= 1
                self_ns[layer] += elapsed - stack.pop()
                stack[-1] += elapsed
            if on_exit is not None:
                on_exit(args, result)
            return result

        span.__wrapped__ = fn
        return span

    @staticmethod
    def count_only(fn, on_call):
        def counted(*args, **kwargs):
            on_call(args, None)
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def patch(self, owner, attr: str, layer, holders, on_exit=None) -> None:
        """Wrap owner.attr and every other reference to it in `holders`.
        With layer None the call is counted but opens no span, so its time
        stays with the span that called it."""
        orig = vars(owner)[attr]
        if layer is None:
            wrapped = self.count_only(orig, on_exit)
        else:
            wrapped = self.wrap(orig, layer, on_exit)
        for holder in (owner, *holders):
            for name, value in list(vars(holder).items()):
                if value is orig:
                    setattr(holder, name, wrapped)
                    self._undo.append((holder, name, orig))

    def restore(self) -> None:
        for holder, name, orig in reversed(self._undo):
            setattr(holder, name, orig)
        self._undo.clear()

    # -- counters ------------------------------------------------------------

    def _calls(self, key):
        def hook(args, result):
            self.count[key] += 1
        return hook

    def _sweep(self, args, result):
        self.count["sweeps"] += 1
        self.count["vertex_visits"] += args[0].n
        if self.active["rgraph.diameter"]:
            self.count["diameter_sweeps"] += 1

    def _rows(self, args, result):
        self.count["row_steps"] += result.order - 1

    def _records(self, args, result):
        if isinstance(result, tuple):  # reproduce_tables
            self.count["records"] += sum(len(t.rows) for t in result)
        else:
            self.count["records"] += len(getattr(result, "records", result))

    def install(self, pkg) -> None:
        mods = {name: importlib.import_module(f"{pkg.__name__}.{name}") for name in MODULES}
        holders = [pkg, *mods.values()]
        rg, ri, bs = mods["rgraph"], mods["riordan"], mods["binseries"]
        G = rg.Graph
        self.patch(G, "diameter", "rgraph.diameter", [], self._calls("diameter"))
        # BFS sweeps are counted, not timed: their time is the diameter's
        for name in ("eccentricity", "distances", "distance"):
            self.patch(G, name, None, [], self._sweep)
        for name in ("build", "build_bell_aseq"):
            self.patch(rg, name, "rgraph.build", holders)
        for name in ("induced", "induced_prefix"):
            self.patch(G, name, "rgraph.induced", [])
        self.patch(G, "max_clique_size", "rgraph.clique", [])
        self.patch(G, "reverse_direct", "rgraph.reverse", [])
        self.patch(rg, "reverse_formula", "rgraph.reverse", holders)
        self.patch(ri, "bell_matrix_from_aseq", "riordan.bell_matrix", holders, self._rows)
        self.patch(ri.ASequence, "__init__", "riordan.aseq", [], self._calls("aseq"))
        for name in ("mul", "pow"):
            self.patch(bs.BinarySeries, name, "binseries.mul", [], self._calls("mul"))
        for name in ("reciprocal", "derivative", "comp_inverse"):
            self.patch(bs.BinarySeries, name, "binseries.other", [])
        self.patch(bs, "named_series", "binseries.other", holders)
        an = mods["analysis"]
        for name, value in list(vars(an).items()):
            if name.startswith(("verify_", "check_")) and callable(value):
                self.patch(an, name, "analysis.verify", holders)
        for name in ("scan_conjecture1", "scan_conjecture2", "scan_conjecture3",
                     "reproduce_counterexamples", "reproduce_tables"):
            self.patch(mods["search"], name, "search.scan", holders, self._records)

    def metrics(self) -> dict[str, float]:
        s = {k: v / 1e9 for k, v in self.self_ns.items()}
        c = self.count
        diameters = c["diameter"]
        return {
            "rgraph.diameter.s": s.get("rgraph.diameter", 0.0),
            "rgraph.diameter.calls": diameters,
            "rgraph.bfs.sweeps": c["sweeps"],
            "rgraph.bfs.sweeps_per_diameter": c["diameter_sweeps"] / diameters if diameters else 0.0,
            "rgraph.bfs.vertex_visits": c["vertex_visits"],
            "rgraph.build.s": s.get("rgraph.build", 0.0),
            "rgraph.induced.s": s.get("rgraph.induced", 0.0),
            "rgraph.clique.s": s.get("rgraph.clique", 0.0),
            "rgraph.reverse.s": s.get("rgraph.reverse", 0.0),
            "riordan.bell_matrix.s": s.get("riordan.bell_matrix", 0.0),
            "riordan.bell_matrix.row_steps": c["row_steps"],
            "riordan.aseq.s": s.get("riordan.aseq", 0.0),
            "riordan.aseq.calls": c["aseq"],
            "binseries.mul.s": s.get("binseries.mul", 0.0),
            "binseries.mul.calls": c["mul"],
            "binseries.other.s": s.get("binseries.other", 0.0),
            "analysis.verify.s": s.get("analysis.verify", 0.0),
            "search.scan.s": s.get("search.scan", 0.0),
            "search.records": c["records"],
        }


def replay(cli, cmds) -> tuple[float, list[tuple[int, str]]]:
    """Run each command through cli.main in this process; wall time and
    (exit code, stdout) per command."""
    results = []
    t0 = time.perf_counter()
    for cmd in cmds:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(cmd.argv))
        results.append((rc, out.getvalue()))
    return time.perf_counter() - t0, results


def pool_probe(search) -> tuple[float, float, bool]:
    """scan_conjecture2(5) at jobs = nproc against serial, untraced:
    (pool wall seconds, speedup, identical records)."""
    t0 = time.perf_counter()
    serial = search.scan_conjecture2(5, jobs=1)
    t1 = time.perf_counter()
    pooled = search.scan_conjecture2(5, jobs=os.cpu_count() or 1)
    t2 = time.perf_counter()
    return t2 - t1, (t1 - t0) / (t2 - t1), pooled.records == serial.records


def import_seconds(env: dict) -> float:
    """Median time of ``import riordangraphs.cli`` in fresh interpreters."""
    code = ("import time; t = time.perf_counter(); import riordangraphs.cli; "
            "print(repr(time.perf_counter() - t))")
    times = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True, timeout=60)
        times.append(float(done.stdout))
    return statistics.median(times)


def traced_run(cmds, env: dict, src: str, log) -> tuple[int, int, dict]:
    """Replay untraced and traced, probe the pool and the import; return
    (attempted, failed, per-layer metrics)."""
    sys.path.insert(0, src)
    sys.dont_write_bytecode = True  # leave no bytecode to speed up later timed runs
    import riordangraphs
    from riordangraphs import cli, search

    if not riordangraphs.__file__.startswith(src):
        raise RuntimeError(f"riordangraphs imported from {riordangraphs.__file__}, not {src}")
    plain_s, plain = replay(cli, cmds)
    tracer = Tracer()
    tracer.install(riordangraphs)
    try:
        traced_s, traced = replay(cli, cmds)
    finally:
        tracer.restore()
    attempted = failed = 0
    for cmd, result in [*zip(cmds, plain), *zip(cmds, traced)]:
        attempted += 1
        _, problems = cmd.check(*result)
        if problems:
            failed += 1
            log(f"FAILED {cmd.label}: {'; '.join(problems[:5])}")
    pool_s, speedup, same = pool_probe(search)
    attempted += 1
    if not same:
        failed += 1
        log("FAILED pool probe: records differ between jobs=1 and the pool")
    metrics = tracer.metrics()
    metrics["search.pool.wall_s"] = pool_s
    metrics["search.pool.speedup"] = speedup
    metrics["cli.import_s"] = import_seconds(env)
    print(f"trace overhead: traced {traced_s:.3f} s - untraced {plain_s:.3f} s "
          f"= {traced_s - plain_s:.3f} s")
    return attempted, failed, metrics
