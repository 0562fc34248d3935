"""Execution, reference objects and known answers of the four workloads.

Importing this module imports qcolour, so the benchmark times the import
as part of set-up.  Only public functions of qcolour.crystal, gqe,
repmod, rootdata and langint are called.

Each workload has

- ``setup()``: the reference objects its tasks are checked against;
- ``run(task, refs, tr)``: the verdict task itself; every call into an
  entry point goes through ``tr.call(span_name, fn, ...)`` so that a
  traced run can record spans; it returns the canonical output record
  (JSON data: series in ``format_series`` text, sorted items);
- ``check(task, out, refs)``: the known answer by construction, as a
  list of problems (empty when the verdict is right).
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from qcolour.crystal import (ClassicalColouring, PointwiseColouring,
                             PolySeriesColouring, QuantumColouring, V,
                             check_h_admissible, congruence,
                             h_admissible_expansion, poly_uv)
from qcolour.gqe import (GqeEquation, NoSolution,
                         deformed_commutator_operator, solve,
                         trivialised_generator)
from qcolour.langint import (build_hh_module, commutator_check,
                             dual_generators, dual_module_decomposition,
                             dual_relations_report,
                             power_commutation_residual, specialize_eps)
from qcolour.repmod import (build_L, decompose_into_irreducibles,
                            freudenthal_char, is_weyl_symmetric,
                            restrict_character)
from qcolour.rootdata import RootDatum, cartan_by_name, langlands_dual

import tasks as T

CL = ClassicalColouring()
# residual rows n <= CLOSED_N_CHECK re-verify a closed solve; the exact
# division already certifies it, and at the default of 12 the re-check
# took about 70% of an order-8, degree -1 quantum solve
CLOSED_N_CHECK = 6
IDENTITY_NS = (1, 2, 3, 4)      # build_L(n) modules the identities run on


def _mix(*parts):
    """Deterministic 32-bit hash of small integers (splitmix-style)."""
    h = 0x9E3779B9
    for p in parts:
        h = (h ^ (p & 0xFFFFFFFF)) * 0x85EBCA6B & 0xFFFFFFFF
        h ^= h >> 13
        h = h * 0xC2B2AE35 & 0xFFFFFFFF
        h ^= h >> 16
    return h


def _solution_record(res):
    if isinstance(res, NoSolution):
        return {"nosolution": [res.n, res.p, res.h_order]}
    return {"solution": [repr(e) for e in res.entries],
            "h0": [repr(e.coeffs[0]) for e in res.entries]}


# ---------------------------------------------------------------------------
# gqe-closed


def _expansion_colouring(values, depth, tr):
    """Admissible expansion of a seeded random scalar colouring."""
    def rule(sign, n, k):
        h = _mix(values, sign + 1, n, k)
        return Fraction(1 + h % 12, 1 + (h >> 8) % 4)
    psi = PointwiseColouring(rule=rule)
    expn = tr.call("crystal.h_admissible_expansion", h_admissible_expansion,
                   psi, depth)
    ok = True
    for n in range(1, depth + 1):
        for k in range(1, n + 1):
            for sign, coeffs in ((1, expn.plus_coeffs),
                                 (-1, expn.minus_coeffs)):
                tot = sum((p(Fraction(n), Fraction(k)) for p in coeffs),
                          Fraction(0))
                ok = ok and tot == psi.value(sign, n, k)
    return expn, ok


def _closed_setup():
    # the h^0 slice every admissible colouring shares with the classical one
    return {deg: _solution_record(solve(GqeEquation.build(CL, CL, deg,
                                                          order=4)))["h0"]
            for deg in (-1, 0)}


def _closed_run(task, refs, tr):
    p = task.params
    out = {}
    if task.kind == "quantum":
        psi, order = QuantumColouring(d=p["d"], order=p["order"]), p["order"]
    elif task.kind == "classical":
        psi, order = CL, p["order"]
    elif task.kind == "expansion":
        order = p["depth"] + 1   # the expansion is only known mod h^(depth+1)
        psi, out["reconstructs"] = _expansion_colouring(p["values"],
                                                        p["depth"], tr)
    else:
        order = p["order"]
        shift = poly_uv({(0, 0): Fraction(p["shift"])})
        psi = PolySeriesColouring([V, shift], [V, shift], order=order)
    cong = tr.call("crystal.congruence", congruence, psi, order)
    rep = tr.call("crystal.check_h_admissible", check_h_admissible, cong,
                  order)
    out["axioms"] = [f"{v.name}:{v.status}:{v.order}" for v in rep.verdicts()]
    degree = p.get("degree", -1)          # controls are degree -1
    if degree == -1:
        witness = {"d_max": p["d_max"]} if task.kind == "control" else {}
        eq = GqeEquation.build(cong, cong, -1, order=order,
                               n_check=CLOSED_N_CHECK, **witness)
    else:
        eq = GqeEquation.build(cong, congruence(CL, order), 0, order=order,
                               n_check=CLOSED_N_CHECK)
    res = tr.call("gqe.solve", solve, eq)
    out.update(_solution_record(res))
    if res:
        out["identity"] = [_identity(res, psi, order, n, degree, tr)
                           for n in IDENTITY_NS]
    return out


def _identity(sol, psi, order, n, degree, tr):
    """Degree -1: the deformed commutator equals X+ X- on L(n).
    Degree 0: the trivialised raising generator acts classically."""
    m = tr.call("repmod.build_L", build_L, n, psi, order)
    if degree == -1:
        lhs = tr.call("gqe.deformed_commutator_operator",
                      deformed_commutator_operator, sol, m)
        rhs = m.operator("X0+").compose(m.operator("X0-"))
    else:
        lhs = trivialised_generator(sol, m, basis="classical")
        rhs = build_L(n, CL, order).operator("X0+")
    return (lhs - rhs).is_zero()


def _closed_check(task, out, refs):
    bad = []
    if task.kind == "control":
        if out["axioms"][0] != "deformation:pass:None":
            bad.append("control: deformation axiom should pass")
        if out["axioms"][3] != "verma:fail:1":
            bad.append("control: Verma axiom should fail at h-order 1")
        if out.get("nosolution", [None] * 3)[1:] != [1, 1]:
            bad.append("control: expected a NoSolution witness at p=1, h^1")
        return bad
    if any(not a.startswith(nm + ":pass:") for a, nm in zip(
            out["axioms"], ("deformation", "regularity", "quotient",
                            "verma"))):
        bad.append("admissible colouring failed an axiom")
    if "solution" not in out:
        return bad + ["admissible colouring has no solution"]
    ref = refs[task.params["degree"]]
    h0 = out["h0"]
    if h0[:len(ref)] != ref or any(x != "0" for x in h0[len(ref):]):
        bad.append("h^0 slice differs from the classical solution")
    if task.kind == "classical" and any(
            s != f"{c} + O(h^{task.params['order']})"
            for s, c in zip(out["solution"], ref)):
        bad.append("classical solution has higher h-orders")
    if not all(out["identity"]):
        bad.append("solution identity fails on L(n)")
    if task.kind == "expansion" and not out["reconstructs"]:
        bad.append("expansion does not reconstruct psi")
    return bad


# ---------------------------------------------------------------------------
# gqe-sampled


def _sampled_base(base, d, order):
    return CL if base == "classical" else QuantumColouring(d=d, order=order)


def _sampled_setup():
    refs = {}
    for (base, d), order, degree in itertools.product(
            T.SAMPLED_CLASSES, T.SAMPLED_ORDERS, (-1, 0)):
        psi = _sampled_base(base, d, order)
        res = solve(GqeEquation.build(psi, psi, degree, order=order))
        refs[T.task_key("sampled", base, d, order, degree)] = \
            _solution_record(res)
    return refs


def _sampled_run(task, refs, tr):
    """A pointwise colouring rescaled edge by edge so that its congruence
    class stays the base class: psi-(n,k) = base-(n,k) s(n,k) and
    psi+(n,m) = base+(n,m) / s(n,n-m+1)."""
    p = task.params
    base = _sampled_base(p["base"], p["d"], p["order"])
    scale = {}

    def s(n, k):
        if (n, k) not in scale:
            h = _mix(p["scale"], n, k)
            scale[(n, k)] = Fraction(1 + h % 8, 1 + (h >> 8) % 4)
        return scale[(n, k)]

    def rule(sign, n, k):
        if sign < 0:
            return base.minus(n, k) * s(n, k)
        return base.plus(n, k) * (1 / s(n, n - k + 1))

    cong = tr.call("crystal.congruence", congruence,
                   PointwiseColouring(rule=rule), p["order"])
    eq = GqeEquation(cong, cong, p["degree"], p["order"], p_max=p["p_max"],
                     n_check=p["n_check"], d0=p["d0"], v_extra=p["v_extra"])
    return _solution_record(tr.call("gqe.solve", solve, eq))


def _sampled_check(task, out, refs):
    if out != refs[task.key]:
        return ["sampled solution differs from the closed-form reference"]
    return []


# ---------------------------------------------------------------------------
# characters


def _characters_setup():
    data = {nm: RootDatum.standard(cartan_by_name(nm), nm)
            for nm in T.CHARACTER_TYPES}
    duals = {nm: langlands_dual(data[nm]) for nm in T.DUALISED}
    return {"datum": data, "dual": duals}


def _items(chi):
    return sorted([list(w), m] for w, m in chi.items())


def _characters_run(task, refs, tr):
    name = task.params["type"]
    datum = refs["datum"][name]
    weight = tuple(task.params["weight"])
    lam = weight
    if task.kind == "duality":
        dual, iso = refs["dual"][name]
        lam = iso.apply(weight)
    chi = tr.call("repmod.freudenthal_char", freudenthal_char, datum, lam)
    out = {"character": _items(chi),
           "weyl_dimension": datum.weyl_dimension(lam),
           "weyl_symmetric": is_weyl_symmetric(datum, chi)}
    if task.kind == "duality":
        dec = tr.call("repmod.decompose_into_irreducibles",
                      decompose_into_irreducibles,
                      restrict_character(chi, iso), dual)
        out["decomposition"] = _items(dec)
    return out


def _characters_check(task, out, refs):
    bad = []
    if sum(m for _, m in out["character"]) != out["weyl_dimension"]:
        bad.append("character total differs from the Weyl dimension")
    if not out["weyl_symmetric"]:
        bad.append("character is not Weyl symmetric")
    if task.kind == "duality":
        dec = {tuple(w): m for w, m in out["decomposition"]}
        if dec.get(tuple(task.params["weight"]), 0) < 1:
            bad.append("dual irreducible missing from the decomposition")
        if any(m < 1 for m in dec.values()):
            bad.append("non-positive decomposition coefficient")
    return bad


# ---------------------------------------------------------------------------
# interp


def _interp_setup():
    return {}


def _interp_run(task, refs, tr):
    g, n, o = task.params["g"], task.params["n"], task.params["order_hp"]
    power = tr.call("langint.power_commutation_residual",
                    power_commutation_residual, "finite", n, g, o)
    comm = commutator_check(build_hh_module("finite", n, g, 6, o))
    rel = dual_relations_report(dual_generators(specialize_eps(
        "finite", n, g, o)))
    verdict, kernel, dual_char = tr.call(
        "langint.dual_module_decomposition", dual_module_decomposition,
        n, g, o)
    return {"reports": [[r.name, r.passed, r.max_nonzero_order, r.detail]
                        for r in (power, comm, rel, verdict)],
            "kernel": kernel,
            "dual_character": sorted([w, m] for w, m in dual_char.items())}


def _interp_check(task, out, refs):
    g, n = task.params["g"], task.params["n"]
    bad = [f"{r[0]} failed" for r in out["reports"] if not r[1]]
    if g % 2 == 0:
        want = [0] if n == 0 else [n // g, n // g - 1]
    else:
        want = [n // g]
    if out["kernel"] != want:
        bad.append(f"dual highest weights {out['kernel']} != {want}")
    return bad


class Workload:
    def __init__(self, setup, run, check):
        self.setup, self.run, self.check = setup, run, check


WORKLOADS = {
    "gqe-closed": Workload(_closed_setup, _closed_run, _closed_check),
    "gqe-sampled": Workload(_sampled_setup, _sampled_run, _sampled_check),
    "characters": Workload(_characters_setup, _characters_run,
                           _characters_check),
    "interp": Workload(_interp_setup, _interp_run, _interp_check),
}
