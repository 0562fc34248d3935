import signal
from fractions import Fraction

import pytest

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
