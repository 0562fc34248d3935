"""Correctness gate: known answers plus digests recorded at the seed code.

A task's output record is canonical JSON data, so its digest is stable
across runs and machines.  ``digests.json`` maps each workload's task
keys to the digest recorded from the seed commit's code (written by
``record.py``).  Any task whose verdict contradicts its known answer, or
whose digest differs from the recorded one, is a wrong verdict.
"""

from __future__ import annotations

import hashlib
import json
import os

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "digests.json")


def digest(out) -> str:
    blob = json.dumps(out, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def load_digests(workload):
    with open(DIGESTS) as fh:
        return json.load(fh)["digests"][workload]


def gate(workload, results, refs, table):
    """Check ``(task, output)`` pairs.

    Returns (wrong verdicts, tasks digest-checked, problem lines).
    """
    wrong, checked, problems = 0, 0, []
    for task, out in results:
        bad = list(workload.check(task, out, refs))
        want = table.get(task.key)
        if want is not None:
            checked += 1
            if digest(out) != want:
                bad.append("output digest differs from the recorded one")
        if bad:
            wrong += 1
            problems.append(f"task {task.index} [{task.key}]: "
                            + "; ".join(bad))
    return wrong, checked, problems
