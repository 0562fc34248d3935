"""Record the output digests the correctness gate compares against.

    python3 perfbench/record.py [workload ...]

Runs the first round of the default and the held-out seed, checks
every output against its known answer, and stores one digest per task
key in digests.json (a key seen twice must give the same digest).  A
round covers every parameter pool, so tasks of any seed are
digest-checked, except the fresh random colourings of gqe-closed's
expansions, which only other seeds draw.

Run it only on code whose outputs are trusted: the recorded digests are
the reference every later commit is held to.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import gate      # noqa: E402
import layers    # noqa: E402
import tasks     # noqa: E402
import workloads  # noqa: E402

SEEDS = (tasks.DEFAULT_SEED, tasks.HELD_OUT_SEED)


def record(name):
    wl = workloads.WORKLOADS[name]
    refs = wl.setup()
    table = {}
    for seed in SEEDS:
        for task in tasks.first_rounds(name, seed, 1):
            out = wl.run(task, refs, layers.Untraced())
            bad = wl.check(task, out, refs)
            if bad:
                raise SystemExit(f"{name} {task.key}: {'; '.join(bad)}")
            d = gate.digest(out)
            if table.setdefault(task.key, d) != d:
                raise SystemExit(f"{name} {task.key}: digest not repeatable")
    return dict(sorted(table.items()))


def main(names):
    data = {"seeds": list(SEEDS), "digests": {}}
    if os.path.exists(gate.DIGESTS):
        with open(gate.DIGESTS) as fh:
            data["digests"] = json.load(fh)["digests"]
    for name in names or tasks.WORKLOADS:
        data["digests"][name] = record(name)
        print(f"{name}: {len(data['digests'][name])} keys", flush=True)
    with open(gate.DIGESTS, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
