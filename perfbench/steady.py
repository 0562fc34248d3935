"""Steadiness report: repeated fresh-process runs, alternating workloads.

    python3 perfbench/steady.py [--runs 10] [--seed0 1] [--seconds S]
                                [--roots DIR ...]

Run i uses seed seed0 + i for every workload of BENCHMARK.json; within
a run the workloads rotate, so host drift spreads over all of them.
For each end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread
(q3 - q1) / median against the bound in BENCHMARK.json; the exit code
is non-zero when a run is not correct or a spread exceeds its bound.
Every run records the Python version, ``nproc`` and the load average at
its start and end; the raw runs go to perfbench/out/steady.json.

With several ``--roots`` (checkouts holding the same perfbench/), each
run makes one run per root and alternates which root goes first, which
gives the alternating pairs needed to compare two commits.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _one(root, workload, seed, seconds):
    load0 = os.getloadavg()[0]
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    wrong = [int(ln.split()[1]) for ln in lines
             if ln.split()[:1] == ["wrong_verdicts"]]
    return {"root": root, "workload": workload, "seed": seed,
            "exit": done.returncode, "load_start": load0,
            "load_end": os.getloadavg()[0], "result": result,
            "wrong_verdicts": wrong[0] if wrong else None}


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--roots", nargs="+", default=[ROOT])
    args = ap.parse_args(argv)
    roots = [os.path.abspath(r) for r in args.roots]
    names = [w["name"] for w in bench["workloads"]]
    print(f"python {platform.python_version()}  nproc {os.cpu_count()}  "
          f"load {os.getloadavg()[0]:.2f}", flush=True)
    runs = []
    for i in range(args.runs):
        seed = args.seed0 + i
        k = i % len(names)
        for w in names[k:] + names[:k]:
            order = roots if i % 2 == 0 else roots[::-1]
            for root in order:
                r = _one(root, w, seed, args.seconds)
                runs.append(r)
                res = r["result"]
                print(f"run {i} seed {seed} {w:12s} exit {r['exit']} "
                      f"correct {res.get('correct')} load "
                      f"{r['load_start']:.2f}->{r['load_end']:.2f} "
                      + " ".join(f"{m}={v['value']:.4g} {v['unit']}"
                                 for m, v in res.get("metrics", {}).items())
                      + f" wrong_verdicts={r['wrong_verdicts']} count"
                      f" failed_ratio="
                      f"{res.get('failed', 0) / res.get('attempted', 1):.4g}"
                      " ratio"
                      + ("" if len(roots) == 1 else f"  [{root}]"),
                      flush=True)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steady.json"), "w") as fh:
        json.dump({"python": platform.python_version(),
                   "nproc": os.cpu_count(), "runs": runs}, fh, indent=1)
    ok = True
    for root in roots:
        for w in names:
            mine = [r for r in runs if r["workload"] == w
                    and r["root"] == root]
            bad = [r for r in mine if r["exit"] or
                   not r["result"].get("correct")]
            tasks = sum(r["result"].get("attempted", 0) for r in mine)
            failed = sum(r["result"].get("failed", 0) for r in mine)
            print(f"\n{w}  ({len(mine)} runs, {len(bad)} not correct; "
                  f"{failed} of {tasks} tasks raised)"
                  + ("" if len(roots) == 1 else f"  [{root}]"))
            ok = ok and not bad
            for metric in bench["end_to_end"]:
                name = metric["name"]
                vals = [r["result"]["metrics"][name]["value"] for r in mine
                        if name in r["result"].get("metrics", {})]
                if len(vals) < 2:
                    continue
                med = statistics.median(vals)
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
                bound = metric["bound"]
                flag = ("ok" if spread <= bound / 3 else
                        "within bound" if spread <= bound else "TOO WIDE")
                ok = ok and spread <= bound
                print(f"  {name:24s} {metric['unit']:4s} median {med:10.4f}"
                      f"  q1 {q1:10.4f}  q3 {q3:10.4f}  spread {spread:6.3f}"
                      f"  bound {bound}  {flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
