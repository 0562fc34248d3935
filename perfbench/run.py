"""qcolour benchmark: one seeded verdict workload in one process.

    python3 perfbench/run.py --workload gqe-closed --seed 7021 \
        --seconds 15 --trace 0

Untraced (``--trace 0``): run whole rounds of tasks in a closed loop,
one task at a time, until their summed run time reaches ``--seconds``
and at least MIN_TASKS tasks have finished, so that the p90 has ten
samples above it.  Every round is a whole cycle of the workload's task
mix (see tasks.py), so every run does the same mix of work.  Set-up is
timed once at the start and again at every round boundary, each time
from a clean slate, until SETUP_BUDGET_S has gone on it there (at least
twice); the median is reported.  After every task and every set-up,
outside their time, the host-speed reference loop is timed (see
hostref.py), and each task or set-up time is scaled to a host of the
reference's nominal speed by the reference samples nearest to it; the
raw figures are printed too.

Traced (``--trace 1``): run the first round under the profiler, so the
call counts repeat exactly for a seed, and time the same round untraced
in a fresh child process for the overhead ratio.

Every output is gated against its known answer and the digests recorded
at the seed code, round by round, outside the task time.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  The exit code is non-zero when any verdict is
wrong or any task raised.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import gate
import hostref
import layers
import tasks

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

MIN_TASKS = 100            # ten samples above the p90
SETUP_BUDGET_S = 1.0       # set-up time spent at every round boundary
SETUP_MIN_REPEATS = 2      # set-ups timed at every round boundary, at least
WALL_LIMIT_S = 140         # stop the timed loop here whatever happens
# a task time is scaled by the median of the reference samples taken
# within this many tasks of it: the host's speed changes within a second
HOST_WINDOW = 2


def _setup(workload):
    """Import qcolour and build the workload's reference objects."""
    t0 = time.perf_counter()
    import workloads
    wl = workloads.WORKLOADS[workload]
    refs = wl.setup()
    return wl, refs, time.perf_counter() - t0


def _setup_again(workload, fresh):
    """Time one more set-up from a clean slate, in a forked child.

    The child drops the modules in ``fresh`` (the Python modules the
    first set-up imported: qcolour's and workloads), imports them anew,
    rebuilds the references and times the host reference right after.
    This process keeps the modules, and any caches, its tasks have been
    using, and the child's memory stays out of its peak RSS.  Returns
    (set-up time, reference time).
    """
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(r)
            for name in fresh:
                del sys.modules[name]
            setup_s = _setup(workload)[2]
            os.write(w, json.dumps([setup_s, hostref.sample()]).encode())
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    with os.fdopen(r) as fh:
        out = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"set-up in a forked child failed ({status})")
    return tuple(json.loads(out))


class Tally:
    """Gated outcomes of a run; no output record outlives its round."""

    def __init__(self, wl, refs, table):
        self.wl, self.refs, self.table = wl, refs, table
        self.done = self.wrong = self.checked = 0
        self.failures, self.problems = [], []

    def add(self, results, failures):
        wrong, checked, problems = gate.gate(self.wl, results, self.refs,
                                             self.table)
        self.done += len(results)
        self.wrong += wrong
        self.checked += checked
        self.problems += problems
        self.failures += failures


def _run_tasks(wl, refs, batches, tracer, tally, budget_s=None,
               on_round=None, host=None):
    """Closed loop over rounds of tasks, one task at a time.

    With a budget, stop at the first round boundary after the summed
    task time reaches it and MIN_TASKS have finished.  Between rounds,
    outside the task time, the round's outputs are gated into ``tally``
    and ``on_round()`` is called.  With a ``host`` list, a host-speed
    reference sample is appended to it after every task.  Returns the
    latencies and the summed task time.
    """
    latencies = []
    busy = 0.0
    start = time.perf_counter()
    for batch in batches:
        results, failures = [], []
        for task in batch:
            tracer.task_id = task.index
            t0 = time.perf_counter()
            try:
                out = wl.run(task, refs, tracer)
            except Exception as exc:       # a verdict task must not raise
                failures.append(f"task {task.index} [{task.key}]: {exc!r}")
                continue
            dt = time.perf_counter() - t0
            busy += dt
            results.append((task, out))
            latencies.append(dt)
            if host is not None:
                host.append(hostref.sample())
        tally.add(results, failures)
        if on_round is not None:
            on_round()
        if budget_s is not None and (
                (busy >= budget_s and len(latencies) >= MIN_TASKS)
                or time.perf_counter() - start > WALL_LIMIT_S):
            break
    return latencies, busy


def _host_scaled(times, refs, window):
    """Scale each time to the reference's nominal speed by the median of
    the reference samples within ``window`` places of it."""
    return [t * hostref.NOMINAL_S
            / statistics.median(refs[max(0, i - window):i + window + 1])
            for i, t in enumerate(times)]


def _rank(n, q):
    """1-based nearest rank of the q-th percentile of n samples."""
    return max(1, -(-n * q // 100))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=7021)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", choices=("round",),
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qcolour", "__init__.py")):
        print(f"run.py: no qcolour sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload not in tasks.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(tasks.WORKLOADS)}")

    first_round = next(tasks.rounds(args.workload, args.seed))
    if args.child == "round":
        wl, refs, _ = _setup(args.workload)
        tally = Tally(wl, refs, gate.load_digests(args.workload))
        t0 = time.perf_counter()
        _run_tasks(wl, refs, [first_round], layers.Untraced(), tally)
        print(json.dumps({"wall_s": time.perf_counter() - t0}))
        return 0

    load0 = os.getloadavg()[0]
    table = gate.load_digests(args.workload)
    if args.trace:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload",
               args.workload, "--seed", str(args.seed), "--child", "round"]
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=170, check=True)
        untraced = json.loads(done.stdout.strip().splitlines()[-1])["wall_s"]
        wl, refs, _ = _setup(args.workload)
        tally = Tally(wl, refs, table)
        tracer = layers.Tracer()
        t0 = time.perf_counter()
        with tracer:
            _run_tasks(wl, refs, [first_round], tracer, tally)
        traced = time.perf_counter() - t0
        metrics = tracer.metrics()
        metrics["trace.overhead_ratio"] = traced / untraced
        units = layers.metric_names()
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        with open(os.path.join(HERE, "out", f"spans-{args.workload}-"
                               f"{args.seed}.json"), "w") as fh:
            json.dump(tracer.span_records(), fh)
    else:
        before = set(sys.modules)
        wl, refs, own = _setup(args.workload)
        fresh = [name for name in set(sys.modules) - before
                 if getattr(sys.modules[name], "__file__", "")
                 and sys.modules[name].__file__.endswith(".py")]
        setups = [(own, hostref.sample())]
        host = []
        tally = Tally(wl, refs, table)

        def resetup():
            t0 = time.perf_counter()
            for i in itertools.count():
                if (i >= SETUP_MIN_REPEATS
                        and time.perf_counter() - t0 >= SETUP_BUDGET_S):
                    break
                setups.append(_setup_again(args.workload, fresh))

        lat, busy = _run_tasks(
            wl, refs, tasks.rounds(args.workload, args.seed),
            layers.Untraced(), tally, budget_s=args.seconds,
            on_round=resetup, host=host)
        if not lat:
            print("\n".join(tally.failures), file=sys.stderr)
            return 1
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        setup_raw = [s for s, _ in setups]
        setup_ref = [r for _, r in setups]

        def timings(lat, setup):
            xs = sorted(lat)
            return {"setup_s": statistics.median(setup),
                    "throughput_tasks_per_s": len(xs) / sum(xs),
                    "verdict_ms_p50": 1000 * xs[_rank(len(xs), 50) - 1],
                    "verdict_ms_p90": 1000 * xs[_rank(len(xs), 90) - 1]}

        raw = timings(lat, setup_raw)
        metrics = timings(_host_scaled(lat, host, HOST_WINDOW),
                          _host_scaled(setup_raw, setup_ref, 0))
        metrics["peak_rss_mb"] = rss_kb / 1024
        units = {"setup_s": "s", "throughput_tasks_per_s": "1/s",
                 "verdict_ms_p50": "ms", "verdict_ms_p90": "ms",
                 "peak_rss_mb": "MB"}

    failures = tally.failures
    attempted = tally.done + len(failures)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"python {platform.python_version()}  nproc {os.cpu_count()}  "
          f"load {load0:.2f} -> {os.getloadavg()[0]:.2f}")
    for line in tally.problems + failures:
        print("  FAIL " + line)
    if not args.trace:
        above = len(lat) - _rank(len(lat), 90)
        print(f"  set-ups (s): {', '.join(f'{s:.4f}' for s in setup_raw)}")
        print(f"  {len(lat)} tasks in {busy:.3f} s of task time; "
              f"{above} samples above p90")
        q1, ref_s, q3 = statistics.quantiles(host + setup_ref, n=4)
        print(f"  host reference: median {1000 * ref_s:.3f} ms (quartiles "
              f"{1000 * q1:.3f}, {1000 * q3:.3f}) over "
              f"{len(host) + len(setups)} samples; timings below are "
              f"scaled to {1000 * hostref.NOMINAL_S:g} ms")
        print("  raw: " + "  ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    for name, value in metrics.items():
        print(f"  {name:42s} {value:14.6g} {units[name]}")
    print(f"  {'wrong_verdicts':42s} {tally.wrong:14d} count "
          f"({tally.checked}/{tally.done} digest-checked)")
    print(f"  {'failed_ratio':42s} {len(failures) / attempted:14.6g} ratio "
          f"({len(failures)}/{attempted})")
    correct = tally.wrong == 0 and not failures
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures),
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
