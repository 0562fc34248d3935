from fractions import Fraction

import pytest

from qcolour.crystal import (ClassicalColouring, CongruenceClass,
                             PointwiseColouring, PolySeriesColouring,
                             QuantumColouring, V, congruence, poly_uv)
from qcolour.gqe import (POLY_U, GqeDegreeExhausted, GqeEquation,
                         GqeSampleError, GqeSolution, NoSolution,
                         _forced_value, _lagrange,
                         deformed_commutator_operator, gqe_serre_residual,
                         rhs_row, solve, trivialised_generator,
                         verify_residuals)
from qcolour.polys import Poly
from qcolour.repmod import Operator, a2_vector_module, build_L
from qcolour.series import QQ, TruncSeries1, series_div

CL = ClassicalColouring()
U1 = Poly.variable(("u",), "u")


def classical_solution(order):
    return (TruncSeries1(POLY_U, order, [U1]),
            TruncSeries1.one(POLY_U, order))


def test_rhs_row_examples():
    ccl = congruence(CL, 4)
    assert rhs_row(ccl, -1, 4, 4).is_zero()        # p + 1 out of range
    assert rhs_row(ccl, -1, 4, 1).coeffs[0] == 6   # 2 * 3
    assert rhs_row(ccl, 0, 6, 0).is_zero()


def test_classical_degree_minus_one():
    sol = solve(GqeEquation.build(CL, CL, -1, order=6, p_max=24))
    w0, w1 = classical_solution(6)
    assert sol and sol.support() == 2
    assert sol.entry(0) == w0 and sol.entry(1) == w1
    assert sol.entry(7).is_zero()


def test_classical_degree_zero():
    sol = solve(GqeEquation.build(CL, CL, 0, order=6, p_max=24))
    assert sol and sol.support() == 2
    assert sol.entry(0).is_zero()
    assert sol.entry(1) == TruncSeries1.one(POLY_U, 6)


def test_quantum_h0_part_is_classical():
    q = QuantumColouring(order=6)
    sol = solve(GqeEquation.build(q, q, -1, order=6))
    assert sol
    assert sol.entry(0).coeffs[0] == U1
    assert sol.entry(1).coeffs[0] == Poly.constant(("u",), Fraction(1))
    for p in range(2, sol.support()):
        assert sol.entry(p).coeffs[0].is_zero()


def test_quantum_solution_is_the_textbook_relation():
    # the degree -1 rewriting for the quantum colouring is exactly
    # X+X- = [H] + X- X+: entry 0 is the truncated quantum integer of u
    # and entry 1 is the constant 1
    from qcolour.series import quantum_number_poly
    from qcolour.polys import Poly
    q = QuantumColouring(order=8)
    sol = solve(GqeEquation.build(q, q, -1, order=8))
    u = Poly.variable(("u", "v"), "u")
    hu = quantum_number_poly(u, 8)
    want = hu.map_coeffs(
        lambda c: Poly(("u",), {(e[0],): x for e, x in c.coeffs.items()}),
        ring=POLY_U)
    assert sol.support() == 2
    assert sol.entry(0) == want
    assert sol.entry(1) == TruncSeries1.one(POLY_U, 8)


def test_tail_exhaustion_is_not_a_refutation():
    # cutting the row bound below the vanishing tail is inconclusive
    with pytest.raises(GqeDegreeExhausted):
        solve(GqeEquation.build(CL, CL, -1, order=4, p_max=2))


def test_uniqueness_under_resolve():
    q = QuantumColouring(order=5)
    a = solve(GqeEquation.build(q, q, -1, order=5, p_max=16, n_check=10))
    b = solve(GqeEquation.build(q, q, -1, order=5, p_max=24, n_check=14))
    assert a.support() == b.support()
    for p in range(a.support()):
        assert a.entry(p) == b.entry(p)


def test_congruence_invariance_of_solutions():
    # colouring with psi- = 1 carrying the quantum class
    q = QuantumColouring(order=4)
    cong = congruence(q, 4)
    sol_closed = solve(GqeEquation(cong, cong, -1, 4))
    pointwise = CongruenceClass(4, rule=lambda n, k: cong.value(n, k))
    sol_sampled = solve(GqeEquation(pointwise, pointwise, -1, 4,
                                    p_max=10, n_check=10))
    assert sol_sampled.support() == sol_closed.support()
    for p in range(sol_closed.support()):
        assert sol_sampled.entry(p) == sol_closed.entry(p)


def test_shift_lemma():
    # a solution of degree -1 shifts to one of degree 0 with the product
    # class on the right
    for psi in (CL, QuantumColouring(order=4)):
        c1 = congruence(psi, 4)
        sol = solve(GqeEquation(c1, c1, -1, 4))
        shifted_rhs = c1 * c1
        entries = (TruncSeries1.zero(POLY_U, 4),) + sol.entries
        eq0 = GqeEquation(c1, shifted_rhs, 0, 4)
        assert verify_residuals(eq0, list(entries)) is None


def test_existence_matches_admissibility():
    from qcolour.crystal import check_h_admissible
    one = poly_uv({(0, 0): Fraction(1)})
    cases = [(CL, True), (QuantumColouring(order=4), True),
             (PolySeriesColouring([V, one], [V, one], order=4), False)]
    for psi, expect in cases:
        admissible = check_h_admissible(psi, 4).all_pass()
        result = solve(GqeEquation.build(psi, psi, -1, order=4))
        assert admissible is expect
        assert bool(result) is expect


def test_no_solution_witness():
    one = poly_uv({(0, 0): Fraction(1)})
    pert = PolySeriesColouring([V, one], [V, one], order=5)
    res = solve(GqeEquation.build(pert, pert, -1, order=5))
    assert isinstance(res, NoSolution)
    assert res.h_order == 1 and res.p >= 1


def test_degree_exhaustion_is_distinct():
    # admissible-looking data that is not polynomial in n: 2^n bump
    def rule(n, k):
        base = Fraction(k * (n - k + 1))
        return TruncSeries1(QQ, 3, [base, Fraction(2) ** n])
    cong = CongruenceClass(3, rule=rule)
    with pytest.raises(GqeDegreeExhausted):
        solve(GqeEquation(cong, cong, -1, 3, p_max=6, d_max=8))


def test_deformed_commutator_matches_product():
    for psi in (CL, QuantumColouring(order=6)):
        sol = solve(GqeEquation.build(psi, psi, -1, order=6))
        for n in range(0, 11):
            m = build_L(n, psi, order=6)
            lhs = deformed_commutator_operator(sol, m)
            rhs = m.operator("X0+").compose(m.operator("X0-"))
            assert (lhs - rhs).is_zero(), (psi.variant, n)


def test_commutator_on_lowest_vector():
    q = QuantumColouring(order=5)
    sol = solve(GqeEquation.build(q, q, -1, order=5))
    cong = congruence(q, 5)
    for n in (1, 3, 5):
        m = build_L(n, q, order=5)
        op = deformed_commutator_operator(sol, m)
        assert op.entry(0, 0) == cong.value(n, 1)


def test_trivialised_generator_classical_coefficients():
    q = QuantumColouring(order=6)
    sbar = solve(GqeEquation.build(q, CL, 0, order=6))
    for n in (0, 1, 4, 7):
        m = build_L(n, q, order=6)
        op = trivialised_generator(sbar, m, basis="classical")
        for p in range(1, n + 1):
            assert op.entry(p - 1, p) == \
                TruncSeries1.constant(QQ, Fraction(n - p + 1), 6)
        assert 0 not in op.columns or not op.columns[0]


def test_trivialised_generator_identity_for_classical():
    sbar = solve(GqeEquation.build(CL, CL, 0, order=5))
    m = build_L(5, CL, order=5)
    op = trivialised_generator(sbar, m, basis="module")
    assert (op - m.operator("X0+")).is_zero()


def test_serre_residual_rank2():
    q = QuantumColouring(order=6)
    sbar_q = solve(GqeEquation.build(q, CL, 0, order=6))
    sbar_cl = solve(GqeEquation.build(CL, CL, 0, order=6))
    mq = a2_vector_module("quantum", order=6)
    assert gqe_serre_residual(mq, 0, 1, sbar_q, -1) is None
    assert gqe_serre_residual(mq, 1, 0, sbar_q, -1) is None
    assert gqe_serre_residual(mq, 0, 1, sbar_q, -1, sign=-1) is None
    assert gqe_serre_residual(mq, 0, 1, sbar_cl, -1) is None


def test_serre_residual_zero_module():
    q = QuantumColouring(order=4)
    sbar_q = solve(GqeEquation.build(q, CL, 0, order=4))
    from qcolour.repmod import WeightModule
    from qcolour.rootdata import RootDatum, cartan_by_name
    datum = RootDatum.standard(cartan_by_name("A2"))
    empty = WeightModule(datum, (), (), {
        "X0+": Operator(0), "X0-": Operator(0),
        "X1+": Operator(0), "X1-": Operator(0)}, ring=QQ, order=4)
    assert gqe_serre_residual(empty, 0, 1, sbar_q, -1) is None


def test_sampling_path_on_pointwise_classical():
    cong = congruence(CL, 3)
    pointwise = CongruenceClass(3, rule=lambda n, k: cong.value(n, k))
    sol = solve(GqeEquation(pointwise, pointwise, -1, 3, p_max=8, n_check=8))
    w0, w1 = classical_solution(3)
    assert sol.entry(0) == w0 and sol.entry(1) == w1


def test_full_chain_on_expanded_random_colouring():
    # random table -> admissible expansion -> solvable equations ->
    # classical trivialised action: the whole theory chain on a
    # colouring that is not one of the built-ins
    import random
    from qcolour.crystal import h_admissible_expansion, check_h_admissible
    from qcolour.gqe import deformed_commutator_operator
    rng = random.Random(99)
    cache = {}
    def rule(s, n, k):
        key = (s, n, k)
        if key not in cache:
            cache[key] = Fraction(rng.randrange(1, 9), rng.randrange(1, 4))
        return cache[key]
    depth = 3
    psi = h_admissible_expansion(PointwiseColouring(rule=rule), depth)
    order = depth + 1
    assert check_h_admissible(psi, order).all_pass()
    sol = solve(GqeEquation.build(psi, psi, -1, order=order))
    sbar = solve(GqeEquation.build(psi, CL, 0, order=order))
    assert sol and sbar
    for n in (2, 5):
        m = build_L(n, psi, order=order)
        lhs = deformed_commutator_operator(sol, m)
        rhs = m.operator("X0+").compose(m.operator("X0-"))
        assert (lhs - rhs).is_zero()
        op = trivialised_generator(sbar, m, basis="classical")
        for p in range(1, n + 1):
            assert op.entry(p - 1, p) == \
                TruncSeries1.constant(QQ, Fraction(n - p + 1), order)


def test_congruence_exactness_flag():
    # the truncated product of two h-polynomials is only the full
    # congruence when their degrees cannot reach the cutoff
    from qcolour.crystal import h_admissible_expansion
    import random
    rng = random.Random(5)
    cache = {}
    def rule(s, n, k):
        key = (s, n, k)
        if key not in cache:
            cache[key] = Fraction(rng.randrange(1, 7))
        return cache[key]
    psi = h_admissible_expansion(PointwiseColouring(rule=rule), 3)
    cong = congruence(psi, 4)
    assert not cong.exact
    with pytest.raises(ValueError):
        cong.at_order(6)
    ccl = congruence(CL, 4)
    assert ccl.exact
    assert ccl.at_order(6).value(3, 1).order == 6


def test_zero_congruence_sample_is_diagnosed():
    # a vanishing constant term in a needed factorial aborts with a
    # precise diagnostic instead of dividing through
    from qcolour.gqe import GqeSampleError
    def rule(n, k):
        if (n, k) == (3, 1):
            return TruncSeries1.zero(QQ, 3)
        return TruncSeries1.constant(QQ, Fraction(k * (n - k + 1)), 3)
    bad = CongruenceClass(3, rule=rule)
    clean = congruence(CL, 3)
    with pytest.raises(GqeSampleError):
        solve(GqeEquation(bad, clean, 0, 3, p_max=6))


# ---------------------------------------------------------------------------
# the quadratic closed solver and residual check, kept as oracles: every
# ratio and factorial is rebuilt from fresh congruence values, and every
# substitution and evaluation from fresh powers


def _oracle_substitute(poly, **subs):
    images = [subs.get(name, Poly.variable(poly.vars, name))
              for name in poly.vars]
    out = Poly(poly.vars, {})
    for e, c in poly.coeffs.items():
        term = Poly.constant(poly.vars, c)
        for img, k in zip(images, e):
            term = term * img ** k
        out = out + term
    return out


def _oracle_at(poly, x):
    """A polynomial in u evaluated at a rational, as a rational."""
    out = Fraction(0)
    for (k,), c in poly.coeffs.items():
        out = out + c * Fraction(x) ** k
    return out


def _oracle_value_poly(cong, k):
    coeffs = []
    for p in cong.poly_coeffs:
        q = _oracle_substitute(p, v=Poly.constant(("u", "v"), Fraction(k)))
        coeffs.append(Poly(("u",), {(e[0],): c for e, c in q.coeffs.items()}))
    return TruncSeries1(POLY_U, cong.order, coeffs)


def _oracle_ratio(cong, n, p, a):
    out = TruncSeries1.one(QQ, cong.order)
    for k in range(p - a + 1, p + 1):
        out = out * cong.value(n, k)
    return out


def _oracle_entry_at(entry, x):
    return entry.map_coeffs(lambda c: _oracle_at(c, x), ring=QQ)


def _oracle_forced_value(eq, entries, p, n):
    acc = rhs_row(eq.cong2, eq.d, n, p)
    for a in range(min(p, len(entries))):
        acc = acc - _oracle_entry_at(entries[a], n - 2 * p + 2 * a) * \
            _oracle_ratio(eq.cong1, n, p, a)
    denom = eq.cong1.factorial(n, p)
    if denom.coeffs[0] == 0:
        raise GqeSampleError(f"factorial vanishes at (n={n}, p={p})")
    return series_div(acc, denom)


def _oracle_witness(eq, entries, p):
    width = eq.d_max + eq.v_extra + 1
    vals = {n: _oracle_forced_value(eq, entries, p, n)
            for n in range(p, p + width + 1)}
    for m in range(eq.order):
        poly = _lagrange([(n, vals[n].coeffs[m])
                          for n in range(p, p + eq.d_max + 1)])
        for n in range(p + eq.d_max + 1, p + width + 1):
            if _oracle_at(poly, n) != vals[n].coeffs[m]:
                return NoSolution(n, p, m, "interpolated entry fails at a "
                                  "validation point")
    raise GqeDegreeExhausted("no finite witness")


def _oracle_residuals(eq, entries):
    for n in range(eq.n_check + 1):
        for p in range(n + 1):
            lhs = TruncSeries1.zero(QQ, eq.order)
            for a in range(min(p, len(entries) - 1) + 1):
                lhs = lhs + _oracle_entry_at(entries[a], n - 2 * p + 2 * a) \
                    * _oracle_ratio(eq.cong1, n, p, a)
            diff = lhs - rhs_row(eq.cong2, eq.d, n, p)
            if not diff.is_zero():
                return NoSolution(n, p, diff.valuation(),
                                  "residual row is nonzero")
    return None


def _oracle_solve_closed(eq):
    u = Poly.variable(("u",), "u")
    entries, degrees, zeros = [], [], 0
    for p in range(eq.p_max + 1):
        if p - eq.d >= 1:
            acc = _oracle_value_poly(eq.cong2, p - eq.d)
        else:
            acc = TruncSeries1.zero(POLY_U, eq.order)
        for a in range(p):
            ratio = TruncSeries1.one(POLY_U, eq.order)
            for k in range(p - a + 1, p + 1):
                ratio = ratio * _oracle_value_poly(eq.cong1, k)
            target = u + Fraction(2 * a - 2 * p)
            acc = acc - entries[a].map_coeffs(
                lambda c: _oracle_substitute(c, u=target)) * ratio
        denom = TruncSeries1.one(POLY_U, eq.order)
        for k in range(1, p + 1):
            denom = denom * _oracle_value_poly(eq.cong1, k)
        try:
            m_p = series_div(acc, denom)
        except (ArithmeticError, ZeroDivisionError):
            return _oracle_witness(eq, entries, p)
        entries.append(m_p.pad(eq.order) if m_p.order < eq.order else m_p)
        degrees.append(max((c.degree() for c in m_p.coeffs), default=-1))
        zeros = zeros + 1 if m_p.is_zero() else 0
        if zeros >= eq.w_tail:
            break
    else:
        raise GqeDegreeExhausted("no vanishing tail")
    tail = len(entries)
    while tail and entries[tail - 1].is_zero():
        tail -= 1
    witness = _oracle_residuals(eq, entries)
    if witness is not None:
        return witness
    return GqeSolution(tuple(entries[:tail]), tail, eq.order,
                       tuple(degrees[:tail]),
                       (eq.n_check + 1) * (eq.n_check + 2) // 2)


def _assert_matches_oracle(eq):
    got, want = solve(eq), _oracle_solve_closed(eq)
    assert type(got) is type(want)
    if isinstance(want, NoSolution):
        assert got == want
        return
    assert got.entries == want.entries
    assert (got.tail, got.order, got.degrees, got.residual_checked) == \
        (want.tail, want.order, want.degrees, want.residual_checked)
    assert repr(got) == repr(want)


@pytest.mark.parametrize("degree", [-1, 0])
@pytest.mark.parametrize("order", [4, 5, 6, 7, 8])
def test_closed_solver_matches_quadratic_oracle(order, degree):
    ccl = congruence(CL, order)
    for psi in [CL] + [QuantumColouring(d=d, order=order) for d in (1, 2, 3)]:
        cong = congruence(psi, order)
        rhs = cong if degree == -1 else ccl
        _assert_matches_oracle(GqeEquation.build(cong, rhs, degree,
                                                 order=order, n_check=6))


def test_closed_witness_matches_quadratic_oracle():
    # an h-shifted control: admissible at h^0, no solution from h^1 on
    shift = poly_uv({(0, 0): Fraction(2)})
    pert = PolySeriesColouring([V, shift], [V, shift], order=5)
    eq = GqeEquation.build(pert, pert, -1, order=5, n_check=6, d_max=6)
    _assert_matches_oracle(eq)
    assert isinstance(solve(eq), NoSolution)


def test_closed_expansion_matches_quadratic_oracle():
    import random
    from qcolour.crystal import h_admissible_expansion
    rng = random.Random(4)
    cache = {}
    def rule(s, n, k):
        if (s, n, k) not in cache:
            cache[s, n, k] = Fraction(rng.randrange(1, 9), rng.randrange(1, 4))
        return cache[s, n, k]
    psi = h_admissible_expansion(PointwiseColouring(rule=rule), 2)
    cong = congruence(psi, 3)
    assert cong.closed_form is not None
    for rhs, degree in ((cong, -1), (congruence(CL, 3), 0)):
        _assert_matches_oracle(GqeEquation.build(cong, rhs, degree, order=3,
                                                 n_check=6))


def test_residual_check_and_forced_values_match_oracle():
    q = QuantumColouring(d=2, order=4)
    cong = congruence(q, 4)
    pointwise = CongruenceClass(4, rule=lambda n, k: cong.value(n, k))
    entries = list(solve(GqeEquation(cong, cong, -1, 4)).entries)
    entries += [TruncSeries1.zero(POLY_U, 4)] * 2
    bumped = list(entries)
    bumped[1] = bumped[1] + TruncSeries1(POLY_U, 4, [0, 0, U1])
    for c1 in (cong, pointwise):
        eq = GqeEquation(c1, cong, -1, 4, n_check=7)
        for trial in (entries, bumped, entries[:1], []):
            assert verify_residuals(eq, trial) == \
                _oracle_residuals(eq, trial)
        assert verify_residuals(eq, bumped) is not None
        for p in range(4):
            for n in range(p, p + 4):
                short = entries[:max(p - 1, 0)]
                for trial in (entries[:p], bumped[:p], short):
                    assert _forced_value(eq, trial, p, n) == \
                        _oracle_forced_value(eq, trial, p, n)
