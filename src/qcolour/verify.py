"""Batch verification harness: the full identity suite in one place.

Each criterion function returns a :class:`CheckResult`; the CLI and the
acceptance tests consume the same records.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

from . import crystal, gqe, langint, repmod, rootdata
from .crystal import (ClassicalColouring, PointwiseColouring,
                      PolySeriesColouring, QuantumColouring, V,
                      check_h_admissible, congruence, h_admissible_expansion,
                      poly_uv)
from .gqe import GqeEquation, NoSolution, solve, trivialised_generator
from .polys import Poly
from .repmod import (a2_vector_module, build_L, character,
                     decompose_into_irreducibles, freudenthal_char,
                     isogeny_restrict, restrict_character)
from .rootdata import (RootDatum, cartan_by_name, check_cone_avoidance,
                       check_unique_dominant, finite_type_names,
                       langlands_dual, rank1_isogeny)
from .series import POLY_U, QQ, TruncSeries1

DEFAULT_SEED = 7021


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""
    max_nonzero_order: object = None
    seconds: float = 0.0

    @property
    def status(self) -> str:
        return "PASS" if self.passed else "FAIL"


def _timed(fn):
    def wrapper(*args, **kw):
        t0 = time.perf_counter()
        out = fn(*args, **kw)
        out.seconds = time.perf_counter() - t0
        return out
    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


def _scl_expected(order):
    u = Poly.variable(("u",), "u")
    return (TruncSeries1(POLY_U, order, [u]),
            TruncSeries1.one(POLY_U, order))


@_timed
def criterion_classical_solutions(order=6, p_max=24) -> CheckResult:
    """Classical lowering/raising rewriting collapses to (u, 1, 0, ...)."""
    cl = ClassicalColouring()
    s = solve(GqeEquation.build(cl, cl, -1, order=order, p_max=p_max))
    sbar = solve(GqeEquation.build(cl, cl, 0, order=order, p_max=p_max))
    want0, want1 = _scl_expected(order)
    ok = bool(s) and bool(sbar)
    if ok:
        ok = (s.support() == 2 and s.entry(0) == want0
              and s.entry(1) == want1)
        ok = ok and (sbar.support() == 2 and sbar.entry(0).is_zero()
                     and sbar.entry(1) == want1)
    return CheckResult("classical-solutions", ok,
                       "degree -1 gives (u, 1, 0, ...), degree 0 gives "
                       "(0, 1, 0, ...)")


@_timed
def criterion_quantum_admissible(order=6) -> CheckResult:
    """All four axioms for the quantum colouring plus solvability with
    the classical h = 0 part."""
    q = QuantumColouring(order=order)
    rep = check_h_admissible(q, order)
    ok = rep.all_pass()
    detail = ",".join(f"{v.name}:{v.status}" for v in rep.verdicts())
    s = solve(GqeEquation.build(q, q, -1, order=order))
    ok = ok and bool(s)
    if ok:
        want0, want1 = _scl_expected(order)
        ok = (s.entry(0).coeffs[0] == want0.coeffs[0]
              and s.entry(1).coeffs[0] == want1.coeffs[0])
        ok = ok and all(s.entry(p).coeffs[0].is_zero()
                        for p in range(2, s.support()))
    return CheckResult("quantum-admissible-solvable", ok, detail)


@_timed
def criterion_trivialisation(order=6, n_max=8) -> CheckResult:
    """The rewritten raising generator acts classically on every string."""
    q = QuantumColouring(order=order)
    sbar = solve(GqeEquation.build(q, ClassicalColouring(), 0, order=order))
    if not sbar:
        return CheckResult("h-trivialisation", False, "degree-0 solve failed")
    bad = []
    for n in range(n_max + 1):
        m = build_L(n, q, order=order)
        op = trivialised_generator(sbar, m, basis="classical")
        for p in range(n + 1):
            e = op.entry(p - 1, p) if p else None
            if p == 0:
                if m.dim and op.columns.get(0):
                    bad.append((n, p))
                continue
            want = TruncSeries1.constant(QQ, Fraction(n - p + 1), order)
            if e != want:
                bad.append((n, p))
    return CheckResult("h-trivialisation", not bad,
                       f"checked n <= {n_max}; failures: {bad}")


@_timed
def criterion_serre(order=6) -> CheckResult:
    """Rewritten Serre sum vanishes on the rank-2 witness modules."""
    q = QuantumColouring(order=order)
    cl = ClassicalColouring()
    sbar_q = solve(GqeEquation.build(q, cl, 0, order=order))
    sbar_cl = solve(GqeEquation.build(cl, cl, 0, order=order))
    mq = a2_vector_module("quantum", order=order)
    oq = gqe.gqe_serre_residual(mq, 0, 1, sbar_q, -1)
    oq2 = gqe.gqe_serre_residual(mq, 1, 0, sbar_q, -1)
    om = gqe.gqe_serre_residual(mq, 0, 1, sbar_q, -1, sign=-1)
    ocl = gqe.gqe_serre_residual(mq, 0, 1, sbar_cl, -1)
    ok = all(o is None for o in (oq, oq2, om, ocl))
    return CheckResult("gqe-serre-rank2", ok,
                       f"residual orders: {(oq, oq2, om, ocl)}")


@_timed
def criterion_negative_control(order=6) -> CheckResult:
    """The shifted-by-h colouring fails the Verma axiom and the solve."""
    one = poly_uv({(0, 0): Fraction(1)})
    pert = PolySeriesColouring([V, one], [V, one], order=order)
    rep = check_h_admissible(pert, order)
    ok = rep.verma.status == "fail" and rep.verma.order == 1
    res = solve(GqeEquation.build(pert, pert, -1, order=order))
    ok = ok and isinstance(res, NoSolution)
    detail = f"verma fails at h-order {rep.verma.order}"
    if isinstance(res, NoSolution):
        detail += f"; witness row (n={res.n}, p={res.p}, order {res.h_order})"
    return CheckResult("negative-control", ok, detail)


@_timed
def criterion_interpolation_suite(order_hp=4) -> CheckResult:
    """Part III identities over g = 1, 2, 3 and n = 0..4g."""
    failures = []
    for g in (1, 2, 3):
        for mult in (0, 1, 2, 3, 4):
            n = g * mult
            r = langint.power_commutation_residual("finite", n, g, order_hp)
            if not r.passed:
                failures.append((g, n, "power-commutation", r.max_nonzero_order))
            m = langint.build_hh_module("finite", n, g, 6, order_hp)
            if not langint.hp0_slice_matches_quantum(m).passed:
                failures.append((g, n, "hp0-slice", None))
            if not langint.commutator_check(m).passed:
                failures.append((g, n, "commutator", None))
            em = langint.specialize_eps("finite", n, g, order_hp)
            da = langint.dual_generators(em)
            rep = langint.dual_relations_report(da)
            if not rep.passed:
                failures.append((g, n, "dual-relations",
                                 rep.max_nonzero_order))
            v, kernel, _ = langint.dual_module_decomposition(n, g, order_hp)
            if not v.passed:
                failures.append((g, n, "dual-decomposition", v.detail))
    return CheckResult("interpolation-suite", not failures, f"{failures}")


@_timed
def criterion_langlands_duality(height=4) -> CheckResult:
    """Character duality with containment for the rank-2 BC pair."""
    datum = RootDatum.standard(cartan_by_name("B2"), "B2")
    dual, iso = langlands_dual(datum)
    failures = []
    lams = []
    for h1 in range(height + 1):
        for h2 in range(height + 1 - h1):
            lams.append((h1, h2))
    for lam_dual in lams:
        lam = iso.apply(lam_dual)
        chi = freudenthal_char(datum, lam)
        if sum(chi.values()) != datum.weyl_dimension(lam):
            failures.append((lam, "weyl-total"))
            continue
        lchi = restrict_character(chi, iso)
        try:
            dec = decompose_into_irreducibles(lchi, dual)
        except ValueError as exc:
            failures.append((lam, f"decomposition: {exc}"))
            continue
        if any(v < 0 for v in dec.values()):
            failures.append((lam, "negative coefficient"))
        if dec.get(tuple(lam_dual), 0) < 1:
            failures.append((lam, "missing dual irreducible"))
    return CheckResult("langlands-duality-characters", not failures,
                       f"{len(lams)} dominant duals checked; "
                       f"failures: {failures}")


@_timed
def criterion_root_combinatorics(max_rank=4) -> CheckResult:
    """Exhaustive cone avoidance and unique-dominance checks."""
    failures = []
    names = [nm for nm in finite_type_names(max_rank)
             if cartan_by_name(nm).rank >= 2]
    for nm in names:
        cm = cartan_by_name(nm)
        if not check_unique_dominant(cm).passed:
            failures.append((nm, "unique-dominant"))
        if not check_cone_avoidance(cm).passed:
            failures.append((nm, "cone"))
        if not rootdata.check_zero_cone_avoidance(cm).passed:
            failures.append((nm, "zero-cone"))
    return CheckResult("root-lattice-combinatorics", not failures,
                       f"{len(names)} matrices; failures: {failures}")


# ---------------------------------------------------------------------------
# seeded property suites


def _rng(seed, tag):
    return random.Random(f"{seed}:{tag}")


def _random_series(rng, order, ring=QQ):
    coeffs = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
              for _ in range(order)]
    return TruncSeries1(ring, order, coeffs)


@_timed
def property_series_axioms(seed=DEFAULT_SEED, cases=500) -> CheckResult:
    rng = _rng(seed, "series")
    bad = 0
    for _ in range(cases):
        order = rng.randrange(2, 6)
        a = _random_series(rng, order)
        b = _random_series(rng, order)
        c = _random_series(rng, order)
        if (a + b) + c != a + (b + c):
            bad += 1
        elif a * (b + c) != a * b + a * c:
            bad += 1
        elif (a * b) * c != a * (b * c):
            bad += 1
        elif a * b != b * a:
            bad += 1
    return CheckResult("series-ring-axioms", bad == 0,
                       f"{cases} cases, seed {seed}, failures {bad}")


@_timed
def property_solver_uniqueness(seed=DEFAULT_SEED, cases=500) -> CheckResult:
    """Resolving with other sampling parameters returns the same column."""
    rng = _rng(seed, "uniqueness")
    cl = ClassicalColouring()
    base_cong = congruence(cl, 3)
    pointwise = crystal.CongruenceClass(
        3, rule=lambda n, k: base_cong.value(n, k))
    reference = solve(GqeEquation(base_cong, base_cong, -1, 3))
    bad = 0
    for _ in range(cases):
        eq = GqeEquation(pointwise, pointwise, -1, 3,
                         p_max=rng.randrange(6, 12),
                         n_check=rng.randrange(6, 12),
                         d0=rng.randrange(2, 7),
                         v_extra=rng.randrange(2, 7))
        s = solve(eq)
        if not s or s.support() != reference.support():
            bad += 1
            continue
        if any(s.entry(p) != reference.entry(p)
               for p in range(reference.support())):
            bad += 1
    return CheckResult("solver-uniqueness", bad == 0,
                       f"{cases} resamplings, seed {seed}, failures {bad}")


@_timed
def property_congruence_invariance(seed=DEFAULT_SEED, cases=500) -> CheckResult:
    """Colourings with the same congruence class give the same solution."""
    rng = _rng(seed, "congruence")
    cl = ClassicalColouring()
    reference = solve(GqeEquation.build(cl, cl, -1, order=3))
    bad = 0
    for _ in range(cases):
        scale = {}
        def s(n, k):
            if (n, k) not in scale:
                scale[(n, k)] = Fraction(rng.randrange(1, 9),
                                         rng.randrange(1, 5))
            return scale[(n, k)]
        # psi-(n,k) = k s(n,k) and psi+(n,m) = m / s(n, n-m+1) leave the
        # congruence class classical
        psi = PointwiseColouring(
            rule=lambda sg, n, k:
            Fraction(k) * s(n, k) if sg < 0 else Fraction(k) / s(n, n - k + 1))
        cong = congruence(psi, 3)
        sol = solve(GqeEquation(cong, cong, -1, 3, p_max=8, n_check=8))
        if not sol or sol.support() != reference.support() or \
                any(sol.entry(p) != reference.entry(p)
                    for p in range(reference.support())):
            bad += 1
    return CheckResult("congruence-invariance", bad == 0,
                       f"{cases} rescalings, seed {seed}, failures {bad}")


@_timed
def property_isogeny_characters(seed=DEFAULT_SEED, cases=500) -> CheckResult:
    rng = _rng(seed, "isogeny")
    cl = ClassicalColouring()
    bad = 0
    for _ in range(cases):
        n = rng.randrange(0, 13)
        xi = rng.choice((1, 2, 3))
        source = rng.choice(("weight", "adjoint"))
        iso = rank1_isogeny(xi, source)
        m = build_L(n, cl)
        r = isogeny_restrict(m, iso)
        if character(r) != restrict_character(character(m), iso):
            bad += 1
    return CheckResult("isogeny-character-functoriality", bad == 0,
                       f"{cases} cases, seed {seed}, failures {bad}")


@_timed
def property_expansion_reconstruction(seed=DEFAULT_SEED,
                                      cases=500) -> CheckResult:
    rng = _rng(seed, "expansion")
    bad = 0
    for _ in range(cases):
        depth = rng.randrange(1, 4)
        vals = {}
        def rule(sign, n, k):
            key = (sign, n, k)
            if key not in vals:
                vals[key] = Fraction(rng.randrange(1, 13),
                                     rng.randrange(1, 5))
            return vals[key]
        psi = PointwiseColouring(rule=rule)
        expn = h_admissible_expansion(psi, depth)
        if not check_h_admissible(expn, depth + 1).all_pass():
            bad += 1
            continue
        for n in range(1, depth + 1):
            for k in range(1, n + 1):
                for sign, coeffs in ((1, expn.plus_coeffs),
                                     (-1, expn.minus_coeffs)):
                    tot = sum((p(Fraction(n), Fraction(k)) for p in coeffs),
                              Fraction(0))
                    if tot != psi.value(sign, n, k):
                        bad += 1
    return CheckResult("expansion-reconstruction", bad == 0,
                       f"{cases} cases, seed {seed}, failures {bad}")


@_timed
def criterion_property_suites(seed=DEFAULT_SEED, cases=500) -> CheckResult:
    subs = [property_series_axioms(seed, cases),
            property_solver_uniqueness(seed, cases),
            property_congruence_invariance(seed, cases),
            property_isogeny_characters(seed, cases),
            property_expansion_reconstruction(seed, cases)]
    ok = all(s.passed for s in subs)
    detail = "; ".join(f"{s.name}:{s.status}" for s in subs)
    return CheckResult("property-suites", ok, detail)


ACCEPTANCE = [
    criterion_classical_solutions,
    criterion_quantum_admissible,
    criterion_trivialisation,
    criterion_serre,
    criterion_negative_control,
    criterion_interpolation_suite,
    criterion_langlands_duality,
    criterion_root_combinatorics,
]


def run_all(seed=DEFAULT_SEED, cases=500):
    out = [fn() for fn in ACCEPTANCE]
    out.append(criterion_property_suites(seed, cases))
    return out
