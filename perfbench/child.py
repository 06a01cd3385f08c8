"""Run one ``riordangraphs`` CLI command, timing the host's speed beside it.

    python child.py [--setup-only] ARG...

is ``riordangraphs ARG...`` (the package comes from PYTHONPATH), except that

- once the interpreter has started, ``riordangraphs.cli`` is imported and the
  arguments are parsed, it writes ``perfbench-setup <time.monotonic()>`` as
  the first line on stderr.  CLOCK_MONOTONIC is system-wide, so the parent
  can subtract its own launch time.  With ``--setup-only`` it exits there;
- every ``TICK_S`` seconds of wall time a timer signal runs
  ``reference_work``, a fixed piece of pure-Python work that calls no package
  code, and times it.  At exit the child writes
  ``perfbench-ref <over the whole launch> <before set-up ended>`` to stderr,
  each the harmonic mean of those timings.  The parent divides the command's
  times by them (see README, "Host speed"), so that a host that runs
  everything slower for a while does not show as a slower program.
"""

import signal
import sys
import time
from collections import deque

MARK = "perfbench-setup"
REF_MARK = "perfbench-ref"
TICK_S = 0.01
_N = 32
_GRAPH = {v: {(v + 1) % _N, (v - 1) % _N, (5 * v + 1) % _N} - {v} for v in range(_N)}


def reference_work() -> int:
    """Integer arithmetic and a dict/set/deque BFS, like the program's own."""
    x = 0
    for i in range(1000):
        x ^= i * 7
    for s in (0, 11, 22):
        dist = {s: 0}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in _GRAPH[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        x += len(dist)
    return x


def harmonic_mean(times: list[float]) -> float:
    """The reference time whose inverse is the mean speed over equally spaced
    ticks: work done in a launch is the integral of speed, not of time."""
    return len(times) / sum(1 / t for t in times)


class HostSpeed:
    """Times ``reference_work`` on a timer signal while the command runs."""

    def __init__(self):
        self.samples: list[float] = []
        self.setup_samples = 0

    def tick(self, *_):
        t0 = time.perf_counter()
        reference_work()
        self.samples.append(time.perf_counter() - t0)

    def start(self):
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S / 4, TICK_S)

    def setup_done(self):
        self.setup_samples = len(self.samples)

    def report(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        if not self.samples:
            self.tick()
        before = self.samples[:self.setup_samples] or self.samples[:1]
        sys.stderr.write(f"{REF_MARK} {harmonic_mean(self.samples)!r} "
                         f"{harmonic_mean(before)!r}\n")
        sys.stderr.flush()


def main() -> int:
    argv = sys.argv[1:]
    setup_only = argv[:1] == ["--setup-only"]
    if setup_only:
        argv = argv[1:]
    speed = HostSpeed()
    speed.start()
    try:
        from riordangraphs import cli

        build_parser = cli.build_parser

        def timed_build_parser():
            parser = build_parser()
            parse_args = parser.parse_args

            def timed_parse_args(args=None, namespace=None):
                ns = parse_args(args, namespace)
                sys.stderr.write(f"{MARK} {time.monotonic()!r}\n")
                sys.stderr.flush()
                speed.setup_done()
                if setup_only:
                    raise SystemExit(0)
                return ns

            parser.parse_args = timed_parse_args
            return parser

        cli.build_parser = timed_build_parser
        return cli.main(argv)
    finally:
        speed.report()


if __name__ == "__main__":
    sys.exit(main())
