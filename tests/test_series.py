import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcolour.polys import LaurentPoly, Poly
from qcolour.series import (POLY_U, QQ, CyclotomicRing, LaurentRing,
                            LaurentTrunc, TruncSeries1, TruncSeries2,
                            TruncationMismatchWarning, compose1,
                            exp_of, quantum_number_poly,
                            quantum_number_series, series_div, series_exp,
                            sinh_series)
from qcolour.scalars import CyclotomicScalar, RingMismatch


def S(*coeffs, order=None):
    return TruncSeries1(QQ, order or len(coeffs),
                        [Fraction(c) for c in coeffs])


def test_exp_examples():
    assert series_exp(QQ, Fraction(1), 3).coeffs == \
        (Fraction(1), Fraction(1), Fraction(1, 2))
    assert series_exp(QQ, Fraction(0), 4) == TruncSeries1.one(QQ, 4)
    assert series_exp(QQ, Fraction(2), 2).coeffs == (Fraction(1), Fraction(2))


def test_exp_of_rejects_constant_term():
    with pytest.raises(ArithmeticError):
        exp_of(S(1, 1))


def test_div_hand_example():
    num = sinh_series(QQ, Fraction(2), 4)
    den = sinh_series(QQ, Fraction(1), 4)
    assert series_div(num, den).coeffs == \
        (Fraction(2), Fraction(0), Fraction(1))


def test_div_identity():
    x = S(0, 1, 0, 0)
    assert series_div(x, x) == TruncSeries1.one(QQ, 3)


def test_div_valuation_violation():
    with pytest.raises(ArithmeticError):
        series_div(S(0, 0, 1, 0), S(0, 0, 0, 1))


def test_div_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        series_div(S(1, 0), S(0, 0))


def test_div_inverts_multiplication():
    import random
    rng = random.Random(3)
    for _ in range(150):
        k = rng.randrange(2, 6)
        a = S(*[Fraction(rng.randrange(-6, 7), rng.randrange(1, 4))
                for _ in range(k)])
        b = S(*[Fraction(rng.randrange(1, 7)) for _ in range(k)])
        q = series_div(a * b, b)
        assert q == a


def test_quantum_number_examples():
    assert quantum_number_series(1, 5) == TruncSeries1.one(QQ, 5)
    assert quantum_number_series(0, 5).is_zero()
    assert quantum_number_series(2, 3).coeffs == \
        (Fraction(2), Fraction(0), Fraction(1))


def test_quantum_number_odd_symmetry():
    for k in range(-20, 21):
        assert quantum_number_series(k, 5) == -quantum_number_series(-k, 5)


def test_quantum_number_matches_sinh_ratio():
    for k in (2, 3, 5):
        num = sinh_series(QQ, Fraction(k), 7)
        den = sinh_series(QQ, Fraction(1), 7)
        assert series_div(num, den) == quantum_number_series(k, 6)


def test_quantum_number_poly_specialises():
    v = Poly.variable(("u", "v"), "v")
    qv = quantum_number_poly(v, 5)
    for k in (1, 2, 3, 7):
        vals = qv.map_coeffs(lambda c: c(Fraction(0), Fraction(k)), ring=QQ)
        assert vals == quantum_number_series(k, 5)


def test_ring_mismatch_raises():
    a = S(1, 2)
    b = TruncSeries1(CyclotomicRing(4), 2,
                     [CyclotomicScalar.zeta(4)])
    with pytest.raises(RingMismatch):
        a + b


def test_explicit_embedding():
    c = CyclotomicRing(6).embed(Fraction(3, 2))
    assert isinstance(c, CyclotomicScalar)
    assert c.rational_part() == Fraction(3, 2)


def test_truncation_mismatch_warns_and_truncates():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = S(1, 2, 3) + S(1, 1)
        assert any(issubclass(w.category, TruncationMismatchWarning)
                   for w in caught)
    assert out.order == 2
    assert out.coeffs == (Fraction(2), Fraction(3))


@given(st.lists(st.integers(-20, 20), min_size=3, max_size=5),
       st.lists(st.integers(-20, 20), min_size=3, max_size=5),
       st.lists(st.integers(-20, 20), min_size=3, max_size=5))
@settings(max_examples=120, deadline=None)
def test_ring_axioms(a, b, c):
    k = min(len(a), len(b), len(c))
    sa = S(*a[:k])
    sb = S(*b[:k])
    sc = S(*c[:k])
    assert (sa + sb) + sc == sa + (sb + sc)
    assert sa * (sb + sc) == sa * sb + sa * sc
    assert (sa * sb) * sc == sa * (sb * sc)
    assert sa * sb == sb * sa


def test_bivariate_specialization_is_morphism():
    import random
    rng = random.Random(5)
    for _ in range(100):
        coeffs_a = {(i, j): Fraction(rng.randrange(-5, 6))
                    for i in range(3) for j in range(3)}
        coeffs_b = {(i, j): Fraction(rng.randrange(-5, 6))
                    for i in range(3) for j in range(3)}
        a = TruncSeries2(QQ, (3, 3), coeffs_a)
        b = TruncSeries2(QQ, (3, 3), coeffs_b)
        assert (a * b).specialize_hp0() == \
            a.specialize_hp0() * b.specialize_hp0()
        assert (a + b).specialize_hp0() == \
            a.specialize_hp0() + b.specialize_hp0()


def test_compose_two_parameter():
    x = TruncSeries2(QQ, (4, 4), {(1, 0): Fraction(1), (0, 1): Fraction(1)})
    f = sinh_series(QQ, Fraction(1), 8, var="y")
    c = compose1(f, x)
    # sinh(h + h') has symmetric coefficients
    assert c.coefficient(1, 0) == 1 and c.coefficient(0, 1) == 1
    assert c.coefficient(2, 1) == c.coefficient(1, 2)


def test_laurent_trunc_inverse_and_regularity():
    T = series_exp(QQ, Fraction(1), 6, var="h'")
    tg = T * T - (T * T).invert()
    sq = tg * tg
    lt = LaurentTrunc.from_series(sq)
    inv = lt.invert()
    assert inv.normalize().shift == -2
    prod = inv * lt
    assert prod.is_regular()
    one = prod.as_series()
    assert one == TruncSeries1.one(QQ, one.order, "h'")
    with pytest.raises(ArithmeticError):
        inv.as_series()
    assert T and not T - T
    assert lt and not LaurentTrunc.from_series(sq - sq)
    assert TruncSeries2.from_h(T, (2, 2)) and not TruncSeries2.zero(QQ, (2, 2))


def test_format_series_is_canonical():
    from qcolour.series import format_series
    s = quantum_number_series(2, 4)
    assert format_series(s) == "2 + 1*h^2 + O(h^4)"
    z = TruncSeries1.zero(QQ, 3)
    assert format_series(z) == "0 + O(h^3)"


U = Poly.variable(("u",), "u")
Z6 = CyclotomicScalar.zeta(6)
Z4 = CyclotomicScalar.zeta(4)
QZ4 = LaurentRing("Q", CyclotomicRing(4))
Q = LaurentPoly.monomial("Q", 1, QZ4.base.one())

# ring, a, b, a unit, a nonzero non-unit, an inexact pair, a foreign value
RINGS = [
    (QQ, Fraction(3, 2), Fraction(-2, 7), Fraction(5), None, None, Z6),
    (CyclotomicRing(6), Z6 + 2, Z6 - 3, Z6, None, None, Z4),
    (POLY_U, U * U + 1, U - 2, U * 0 + 3, U, (U * U + 1, U), Q),
    (QZ4, Q + LaurentPoly.monomial("Q", -1, Z4), Q * Q + Z4,
     LaurentPoly.monomial("Q", -2, Z4), Q + 1, (QZ4.one(), Q + 1), U),
]


@pytest.mark.parametrize("ring,a,b,unit,non_unit,inexact,foreign", RINGS,
                         ids=[r[0].name for r in RINGS])
def test_ring_protocol(ring, a, b, unit, non_unit, inexact, foreign):
    zero, one = ring.zero(), ring.one()
    assert ring.contains(zero) and ring.contains(one)
    assert not zero and one
    assert ring.embed(0) == zero and ring.embed(1) == one
    assert ring.embed(3) == one + one + one
    half = ring.embed(Fraction(1, 2))
    assert half + half == one
    assert ring.embed(a) is a
    assert ring.divexact(a * b, b) == a
    assert ring.inverse(unit) * unit == one
    with pytest.raises(ZeroDivisionError):
        ring.inverse(zero)
    if non_unit is not None:
        with pytest.raises(ZeroDivisionError):
            ring.inverse(non_unit)
    if inexact is not None:
        with pytest.raises(ArithmeticError):
            ring.divexact(*inexact)
    with pytest.raises(RingMismatch):
        ring.embed(foreign)
    with pytest.raises(RingMismatch):
        ring.divexact(foreign, b)
