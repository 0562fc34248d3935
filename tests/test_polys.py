import signal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcolour.crystal import CongruenceClass
from qcolour.polys import LaurentPoly, Poly
from qcolour.series import PolyRing

UV = ("u", "v")
U = Poly.variable(UV, "u")
V = Poly.variable(UV, "v")


def test_divmod_univariate_round_trip():
    u = Poly.variable(("u",), "u")
    a = u ** 5 - u * u * 3 + Fraction(1, 2)
    b = u * u * 2 + u - 1
    q, r = a.divmod(b, "u")
    assert q * b + r == a
    assert r.degree("u") < b.degree("u")
    assert (a * b).divmod(b, "u") == (a, Poly(("u",), {}))


def test_divexact_non_monomial_leading_slice():
    # the leading slice of u v + u in u has two terms
    num, den = U * U * V + U * U, U * V + U
    with pytest.raises(ArithmeticError):
        num.divexact(den, "u")
    # the ring tries v next, where the division is exact
    assert PolyRing(UV).divexact(num, den) == U


def test_laurent_divexact_terminates():
    x = LaurentPoly.monomial("x", 1)

    def on_alarm(signum, frame):
        raise TimeoutError("LaurentPoly.divexact did not terminate")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(5)
    try:
        with pytest.raises(ArithmeticError):
            LaurentPoly("x", {0: 1}).divexact(1 + x)
        with pytest.raises(ArithmeticError):
            LaurentPoly("x", {-3: 2, 4: 1}).divexact(x * x - 1)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    num = LaurentPoly("x", {-1: 1, 1: 1})
    assert num.divexact(x) == LaurentPoly("x", {-2: 1, 0: 1})
    assert num.divexact(LaurentPoly.monomial("x", -1)) == 1 + x * x


# ---------------------------------------------------------------------------
# substitution and evaluation against naive composition and evaluation

SMALL = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def polys_uv(max_exp=4, max_terms=6):
    monomial = st.tuples(st.integers(0, max_exp), st.integers(0, max_exp))
    return st.dictionaries(monomial, SMALL, max_size=max_terms).map(
        lambda cs: Poly(UV, cs))


def affine_uv():
    return st.tuples(SMALL, SMALL, SMALL).map(
        lambda t: U * t[0] + V * t[1] + t[2])


def quadratic_uv():
    return st.tuples(affine_uv(), affine_uv(), SMALL).map(
        lambda t: t[0] * t[1] + t[2])


def _naive_substitute(poly, images):
    """Each monomial composed by repeated multiplication."""
    out = Poly(poly.vars, {})
    for e, c in poly.coeffs.items():
        term = Poly.constant(poly.vars, c)
        for img, k in zip(images, e):
            for _ in range(k):
                term = term * img
        out = out + term
    return out


def _naive_eval(poly, values):
    out = Fraction(0)
    for e, c in poly.coeffs.items():
        term = c
        for v, k in zip(values, e):
            term = term * v ** k
        out = out + term
    return out


@given(polys_uv(), st.one_of(affine_uv(), quadratic_uv()),
       st.one_of(affine_uv(), quadratic_uv()))
@settings(max_examples=80, deadline=2000)
def test_substitute_matches_naive_composition(p, iu, iv):
    assert p.substitute(u=iu, v=iv) == _naive_substitute(p, (iu, iv))
    assert p.substitute(v=iv) == _naive_substitute(p, (U, iv))
    assert p.substitute(u=iu) == _naive_substitute(p, (iu, V))


@given(polys_uv(max_exp=6, max_terms=10), SMALL, st.integers(-5, 5))
@settings(max_examples=120, deadline=2000)
def test_call_matches_naive_evaluation(p, x, y):
    assert p(x, y) == _naive_eval(p, (x, y))
    assert p(Fraction(y), x) == _naive_eval(p, (Fraction(y), x))


@given(st.lists(polys_uv(), min_size=1, max_size=4), st.integers(-6, 12))
@settings(max_examples=80, deadline=2000)
def test_value_poly_matches_substitution(coeffs, k):
    cong = CongruenceClass(len(coeffs), coeffs)
    got = cong.value_poly(k)
    for p, q in zip(coeffs, got.coeffs):
        sub = p.substitute(v=Poly.constant(UV, Fraction(k)))
        assert q == Poly(("u",), {(e[0],): c for e, c in sub.coeffs.items()})
        assert all(type(c) is Fraction for c in q.coeffs.values())
