"""Seeded task streams for the four benchmark workloads.

A stream is an endless sequence of rounds, and every round is a whole
cycle of the parameters that set a task's cost (colouring kind,
truncation order and degree, sampling settings, root type and weight,
interpolation parameters): each round holds the same multiset of them,
whatever the seed and the round.  The seed sets the order of the tasks
in a round and the inputs that do not set the cost: the fresh random
colourings of gqe-closed's expansions and the rescalings of
gqe-sampled (``FREE_PARAMS``).  A run stops only at a round boundary,
so runs of any seed and any length execute the same mix of work.

This module does not import qcolour: task generation is not part of the
measured set-up time.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field

DEFAULT_SEED = 7021        # the seed of qcolour.verify's property suites
HELD_OUT_SEED = 90210      # recorded at the seed commit, never used to tune

WORKLOADS = ("gqe-closed", "gqe-sampled", "characters", "interp")
# seeded inputs that change a task's output but not, by design, its cost
FREE_PARAMS = ("values", "scale")


@dataclass(frozen=True)
class Task:
    """One verdict task.

    ``key`` names the parameters that determine the task's output; two
    tasks with one key must produce the same output digest.  ``params``
    also holds parameters that change only the work done (sampling
    settings, rescaling seeds).
    """

    workload: str
    index: int
    kind: str
    key: str
    params: dict = field(hash=False, compare=False)

    def spec(self):
        return [self.kind, self.params]

    def cost(self):
        """The task's cost-setting parameters: its spec without the free
        inputs."""
        return json.dumps([self.kind, {k: v for k, v in self.params.items()
                                       if k not in FREE_PARAMS}],
                          sort_keys=True)


def task_key(kind, *parts):
    return ":".join([kind] + [str(p) for p in parts])


# ---------------------------------------------------------------------------
# gqe-closed: fresh colourings through axioms, closed solve and identity

CLOSED_ORDERS = (4, 5, 6, 7, 8)
# orders at which the degree -1 quantum solve runs for every d = 1, 2, 3
CLOSED_FULL_D_ORDERS = (7, 8)
# the degree 0 quantum solve runs up to this order
CLOSED_DEGREE0_MAX_ORDER = 7
EXPANSION_DEPTHS = (1, 2, 3)
# shifts c of the negative control psi = v + c h on both signs
CONTROL_SHIFTS = ("1", "-2", "1/2", "-1/3")
CONTROL_DMAX = (4, 5, 6, 7, 8)


def _gqe_closed_round(rng):
    """13 quantum, 10 classical, 25 control and 6 expansion tasks.

    At every order both degrees run the classical colouring, and a
    quantum one with d walking 1, 2, 3 along (order, degree), except at
    degree 0 and order 8; at orders 7 and 8 the degree -1 quantum solve
    runs for every d.  Every order runs five controls, which search for
    their witness at d_max 4..8, and every depth and degree one
    expansion.

    The mix places both percentiles inside a block of tasks of like cost,
    away from the gaps between blocks, so that they do not jump from
    block to block as the host's speed moves single tasks.  The 35
    classical and control tasks (17-50 ms on a 2-core x86-64 host) hold
    the p50 eight tasks below their top.  The six degree -1 quantum tasks
    at order 7 or 8 (0.4-0.75 s) hold the p90 near their middle, below
    the degree-0 order-7 quantum and the two depth-3 expansions (0.7-1.5
    s; the expansions' cost follows their random colourings).
    """
    out = []
    for i, order in enumerate(CLOSED_ORDERS):
        for degree in (-1, 0):
            if degree == -1 and order in CLOSED_FULL_D_ORDERS:
                ds = (1, 2, 3)
            elif degree == 0 and order > CLOSED_DEGREE0_MAX_ORDER:
                ds = ()
            else:
                ds = (1 + (order + degree) % 3,)
            for d in ds:
                out.append(("quantum", task_key("quantum", d, order, degree),
                            {"d": d, "order": order, "degree": degree}))
            out.append(("classical", task_key("classical", order, degree),
                        {"order": order, "degree": degree}))
        for j, d_max in enumerate(CONTROL_DMAX):
            shift = CONTROL_SHIFTS[(i + j) % len(CONTROL_SHIFTS)]
            out.append(("control", task_key("control", shift, order, d_max),
                        {"shift": shift, "order": order, "d_max": d_max}))
    for depth in EXPANSION_DEPTHS:
        for degree in (-1, 0):
            values = rng.getrandbits(32)
            out.append(("expansion",
                        task_key("expansion", depth, degree, values),
                        {"depth": depth, "degree": degree, "values": values}))
    return out


# ---------------------------------------------------------------------------
# gqe-sampled: rescaled pointwise colourings through the sampling solver

SAMPLED_CLASSES = (("classical", 0), ("quantum", 1), ("quantum", 2))
SAMPLED_ORDERS = (2, 3)
# (p_max, n_check, d0, v_extra): every class, order and degree runs each
# profile once a round; together they span p_max and n_check 6..11 and
# d0 and v_extra 2..6
SAMPLED_PROFILES = ((6, 8, 2, 4), (8, 11, 4, 2), (11, 6, 6, 6))


def _gqe_sampled_round(rng):
    out = []
    for (base, d), order, degree, (p_max, n_check, d0, v_extra) in \
            itertools.product(SAMPLED_CLASSES, SAMPLED_ORDERS, (-1, 0),
                              SAMPLED_PROFILES):
        out.append(("sampled", task_key("sampled", base, d, order, degree),
                    {"base": base, "d": d, "order": order, "degree": degree,
                     "p_max": p_max, "n_check": n_check, "d0": d0,
                     "v_extra": v_extra, "scale": rng.getrandbits(32)}))
    return out


# ---------------------------------------------------------------------------
# characters: Freudenthal, Weyl checks and Langlands duality

# A2 goes to height 5 because its six height-5 weights (30-40 ms on a
# 2-core x86-64 host) fill the gap between 42 and 68 ms in which the
# median of the other pools falls; there it jumped from run to run
SIMPLY_LACED = {"A2": 5, "A3": 3}
# non-simply-laced types, with the height bound on the dual weight; the
# next heights up cost seconds per task at the seed commit
DUALISED = {"B2": 3, "C2": 3, "G2": 2, "B3": 1, "C3": 1}
CHARACTER_TYPES = ("A2", "B2", "C2", "G2", "A3", "B3", "C3")


def character_pool(name):
    """Dominant weights (pairing coordinates) of height <= the type's bound."""
    bound = SIMPLY_LACED.get(name, DUALISED.get(name))
    rank = int(name[1])
    return [lam for lam in itertools.product(range(bound + 1), repeat=rank)
            if sum(lam) <= bound]


def _characters_round(rng):
    """Every weight of every type's pool: 75 tasks."""
    out = []
    for name in CHARACTER_TYPES:
        kind = "character" if name in SIMPLY_LACED else "duality"
        for lam in character_pool(name):
            out.append((kind, task_key(kind, name, *lam),
                        {"type": name, "weight": list(lam)}))
    return out


# ---------------------------------------------------------------------------
# interp: the Part III identity chain

INTERP_G = (1, 2, 3, 4)
INTERP_MULT = (0, 1, 2, 3, 4)
INTERP_ORDERS = (3, 4, 5)


def _interp_round(rng):
    """Every g, n = g * mult and order_hp: 60 tasks."""
    return [("interp", task_key("interp", g, g * mult, o),
             {"g": g, "n": g * mult, "order_hp": o})
            for g, mult, o in itertools.product(INTERP_G, INTERP_MULT,
                                                INTERP_ORDERS)]


_ROUNDS = {
    "gqe-closed": _gqe_closed_round,
    "gqe-sampled": _gqe_sampled_round,
    "characters": _characters_round,
    "interp": _interp_round,
}


def rounds(workload, seed):
    """Endless stream of rounds (lists of tasks) for one workload."""
    index = 0
    for r in itertools.count():
        rng = random.Random(f"{seed}:{workload}:{r}")
        specs = _ROUNDS[workload](rng)
        rng.shuffle(specs)
        batch = []
        for kind, key, params in specs:
            batch.append(Task(workload, index, kind, key, params))
            index += 1
        yield batch


def first_rounds(workload, seed, n):
    return [t for batch in itertools.islice(rounds(workload, seed), n)
            for t in batch]


def task_list_hash(workload, seed, n_rounds=4):
    """Digest of the first ``n_rounds`` rounds' task specifications."""
    specs = [t.spec() for t in first_rounds(workload, seed, n_rounds)]
    blob = json.dumps(specs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
