"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import copy
import gc
import itertools
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import pytest  # noqa: E402

import gate  # noqa: E402
import hostref  # noqa: E402
import layers  # noqa: E402
import tasks  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", tasks.WORKLOADS)
def test_task_list_hash_follows_the_seed(name):
    h = tasks.task_list_hash(name, tasks.DEFAULT_SEED)
    assert h == tasks.task_list_hash(name, tasks.DEFAULT_SEED)
    assert h != tasks.task_list_hash(name, tasks.DEFAULT_SEED + 1)


@pytest.mark.parametrize("name", tasks.WORKLOADS)
def test_every_round_runs_the_same_task_mix(name):
    def mix(seed, r):
        batch = next(itertools.islice(tasks.rounds(name, seed), r, None))
        return sorted(t.cost() for t in batch)
    assert mix(tasks.DEFAULT_SEED, 0) == mix(tasks.HELD_OUT_SEED, 0) \
        == mix(tasks.HELD_OUT_SEED, 3)


SMOKE_TASKS = 12     # the first tasks of a workload's first round


def _smoke(name):
    wl = workloads.WORKLOADS[name]
    refs = wl.setup()
    batch = tasks.first_rounds(name, tasks.DEFAULT_SEED, 1)[:SMOKE_TASKS]
    return wl, refs, [(t, wl.run(t, refs, layers.Untraced())) for t in batch]


@pytest.mark.parametrize("name", tasks.WORKLOADS)
def test_smoke_size_is_correct_and_fast(name):
    t0 = time.perf_counter()
    wl, refs, results = _smoke(name)
    assert time.perf_counter() - t0 < 20
    wrong, checked, problems = gate.gate(wl, results, refs,
                                         gate.load_digests(name))
    assert (wrong, problems) == (0, [])
    assert checked > 0


def _corrupt(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + " + 1"
    if isinstance(value, list) and value:
        return [_corrupt(value[0])] + value[1:]
    return ["corrupted"]


@pytest.mark.parametrize("name", tasks.WORKLOADS)
def test_gate_flags_a_corrupted_output(name):
    wl, refs, results = _smoke(name)
    table = gate.load_digests(name)
    for task, out in results:
        for field in out:
            bad = copy.deepcopy(out)
            bad[field] = _corrupt(bad[field])
            wrong, _, problems = gate.gate(wl, [(task, bad)], refs, table)
            assert wrong == 1, (task.key, field)
            assert f"[{task.key}]" in problems[0]


def test_unrecorded_task_is_still_checked_against_its_known_answer():
    wl, refs, results = _smoke("gqe-closed")
    task, out = next((t, o) for t, o in results if t.kind == "classical")
    bad = dict(out, identity=[False] * len(out["identity"]))
    assert gate.gate(wl, [(task, bad)], refs, {})[0] == 1


def test_host_reference_leaves_the_collector_as_it_was():
    assert gc.isenabled()
    assert hostref.sample() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        hostref.sample()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_host_scaling_removes_a_uniform_slowdown():
    import run
    times = [0.02, 0.5, 0.03, 1.2]
    slowed = [3 * t for t in times]
    refs = [3 * hostref.NOMINAL_S] * len(times)
    assert run._host_scaled(slowed, refs, run.HOST_WINDOW) \
        == pytest.approx(times)
    # one slow reference sample among its neighbours does not move a task
    refs[1] *= 5
    assert run._host_scaled(slowed, refs, 2)[1] == pytest.approx(times[1])


def test_traced_call_counts_repeat():
    batch = tasks.first_rounds("interp", tasks.DEFAULT_SEED, 1)[:8]
    wl = workloads.WORKLOADS["interp"]
    counts = []
    for _ in range(2):
        tracer = layers.Tracer()
        with tracer:
            for t in batch:
                wl.run(t, {}, tracer)
        m = tracer.metrics()
        counts.append({k: v for k, v in m.items() if k.endswith(".calls")})
    assert counts[0] == counts[1]
    assert counts[0]["scalars.calls"] > 0
    assert set(layers.metric_names()) - set(m) == {"trace.overhead_ratio"}


def test_run_refuses_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "interp",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
