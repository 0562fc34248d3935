"""Exact scalar arithmetic: rationals and cyclotomic field elements.

Rationals are ``fractions.Fraction`` (already reduced, positive
denominator).  Cyclotomic scalars live in Q[x]/(Phi_m(x)) with x mapped to
a primitive m-th root of unity.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


class RingMismatch(TypeError):
    """Arithmetic between values of two different coefficient rings."""


def as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise RingMismatch(f"not a rational value: {x!r}")


def pow_by_squaring(x, k: int, one):
    """x**k for k >= 0 by square-and-multiply, starting from ``one``.

    Shared by the ``__pow__`` methods of the scalar, polynomial and series
    types; each decides what a negative exponent means before calling it.
    """
    out = one
    while k:
        if k & 1:
            out = out * x
        x = x * x
        k >>= 1
    return out


# ---------------------------------------------------------------------------
# integer polynomials, dense tuples, just enough for cyclotomic polynomials


def _trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_mul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def _poly_divexact(num, den):
    """Exact division of integer polynomials, remainder must vanish."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for k in range(len(q) - 1, -1, -1):
        lead = num[k + len(den) - 1]
        t, r = divmod(lead, den[-1])
        if r:
            raise ArithmeticError("non-exact polynomial division")
        q[k] = t
        for j, d in enumerate(den):
            num[k + j] -= t * d
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return _trim(q)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int):
    """Coefficient tuple of Phi_m, constant term first.

    Computed by dividing x^m - 1 by the product of Phi_d over proper
    divisors d of m.
    """
    if m < 1:
        raise ValueError("order must be >= 1")
    num = tuple([-1] + [0] * (m - 1) + [1])
    den = (1,)
    for d in range(1, m):
        if m % d == 0:
            den = _poly_mul(den, cyclotomic_polynomial(d))
    return _poly_divexact(num, den)


# ---------------------------------------------------------------------------


class CyclotomicScalar:
    """Element of Q(zeta_m), reduced modulo the m-th cyclotomic polynomial.

    ``coeffs`` has length deg(Phi_m); entry i is the coefficient of
    zeta^i.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        phi = cyclotomic_polynomial(order)
        deg = len(phi) - 1
        cs = [as_fraction(c) for c in coeffs]
        if len(cs) > deg:
            cs = _reduce_mod_phi(cs, phi)
        cs += [Fraction(0)] * (deg - len(cs))
        self.order = order
        self.coeffs = tuple(cs)

    # -- constructors -------------------------------------------------
    @staticmethod
    def zeta(order: int, power: int = 1) -> "CyclotomicScalar":
        power %= order
        return CyclotomicScalar(order, [0] * power + [1])

    @staticmethod
    def from_rational(order: int, q) -> "CyclotomicScalar":
        return CyclotomicScalar(order, [as_fraction(q)])

    # -- ring operations ----------------------------------------------
    def _check(self, other):
        if isinstance(other, (int, Fraction)):
            return CyclotomicScalar.from_rational(self.order, other)
        if not isinstance(other, CyclotomicScalar):
            raise RingMismatch(f"cannot mix cyclotomic scalar with {other!r}")
        if other.order != self.order:
            raise RingMismatch(
                f"cyclotomic orders differ: {self.order} vs {other.order}")
        return other

    def __add__(self, other):
        other = self._check(other)
        return CyclotomicScalar(
            self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicScalar(self.order, [-a for a in self.coeffs])

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return (-self) + self._check(other)

    def __mul__(self, other):
        other = self._check(other)
        raw = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        raw[i + j] += a * b
        return CyclotomicScalar(self.order, raw)

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicScalar":
        """Multiplicative inverse via extended Euclid in Q[x] mod Phi_m."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic scalar")
        phi = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        r0, r1 = phi, _trim_frac(self.coeffs)
        s0, s1 = [], [Fraction(1)]
        while len(r1) > 1 or (r1 and r1 != [Fraction(0)]):
            if len(r1) == 1:
                break
            q, r = _frac_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _frac_sub(s0, _frac_mul(q, s1))
            if not r1:
                raise ZeroDivisionError("not invertible modulo Phi_m")
        c = r1[0]
        inv = [x / c for x in s1]
        return CyclotomicScalar(self.order, inv)

    def __truediv__(self, other):
        other = self._check(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self._check(other) * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        return pow_by_squaring(self, k,
                               CyclotomicScalar.from_rational(self.order, 1))

    # -- predicates -----------------------------------------------------
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def rational_part(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if not isinstance(other, CyclotomicScalar):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __bool__(self):
        return not self.is_zero()

    def complex_value(self) -> complex:
        """Floating evaluation at zeta = exp(2*pi*i/m); cross-checks only."""
        import cmath
        z = cmath.exp(2j * cmath.pi / self.order)
        return sum(complex(c) * z ** i for i, c in enumerate(self.coeffs))

    def __repr__(self):
        return f"[{','.join(str(c) for c in self.coeffs)}]@zeta({self.order})"


def _trim_frac(c):
    c = [Fraction(x) for x in c]
    while c and c[-1] == 0:
        c.pop()
    return c


def _frac_divmod(num, den):
    num = list(num)
    q = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    for k in range(len(q) - 1, -1, -1):
        t = num[k + len(den) - 1] / den[-1]
        q[k] = t
        for j, d in enumerate(den):
            num[k + j] -= t * d
    return q, _trim_frac(num)


def _frac_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim_frac(out)


def _frac_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return _trim_frac([x - y for x, y in zip(a, b)])


def _reduce_mod_phi(cs, phi):
    cs = [Fraction(c) for c in cs]
    deg = len(phi) - 1
    for k in range(len(cs) - 1, deg - 1, -1):
        t = cs[k]
        if t:
            cs[k] = Fraction(0)
            for j in range(deg):
                cs[k - deg + j] -= t * phi[j]
    return cs[:deg]


def quantum_number_cyclotomic(a: int, g: int) -> CyclotomicScalar:
    """[a] at a primitive 2g-th root of unity: (e^a - e^-a)/(e - e^-1).

    For g = 1 the denominator vanishes and the limit value a * e^(a-1)
    is used (e = -1), so that [a] = a * (-1)^(a-1).
    """
    if g < 1:
        raise ValueError("g must be >= 1")
    m = 2 * g
    if g == 1:
        return CyclotomicScalar.from_rational(m, a * (-1) ** (a - 1))
    e = CyclotomicScalar.zeta(m)
    num = e ** a - e ** (-a)
    den = e - e ** (-1)
    return num / den


def cyclotomic_qfactorial(g: int) -> CyclotomicScalar:
    """Product of [k] at the primitive 2g-th root of unity, k = 1..g-1."""
    out = CyclotomicScalar.from_rational(2 * g, 1)
    for k in range(1, g):
        out = out * quantum_number_cyclotomic(k, g)
    return out
