"""Truncated formal power series over exact coefficient rings.

``TruncSeries1`` is a series in one deformation parameter cut off at a
fixed order; all arithmetic is modulo h^K.  ``TruncSeries2`` is the
bivariate analogue in (h, h').  ``LaurentTrunc`` attaches a bounded
negative shift to a series, tracking localisation by the second
parameter.

Coefficient rings are tagged explicitly; mixing rings raises
``RingMismatch`` and coercions go through :meth:`RingTag.embed`.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction

from .polys import LaurentPoly, Poly
from .scalars import (CyclotomicScalar, RingMismatch, as_fraction,
                      pow_by_squaring)


class TruncationMismatchWarning(UserWarning):
    """Comparison or arithmetic between series of different orders."""


# ---------------------------------------------------------------------------
# coefficient ring tags


class RingTag:
    """A coefficient ring: ``zero``/``one``/``contains``/``embed``/
    ``inverse``/``divexact``.

    The zero test of an element is ``bool(c)``.  ``inverse`` raises
    ``ZeroDivisionError`` on a non-unit, ``divexact`` raises
    ``ArithmeticError`` on an inexact quotient, and both raise
    ``RingMismatch`` on a value from another ring.
    """

    def __eq__(self, other):
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self):
        return hash((type(self).__name__, self._key()))

    def _key(self):
        return ()

    def __repr__(self):
        return self.name

    def embed(self, x):
        """Explicit coercion: elements of the ring as they are, ints and
        Fractions as constants."""
        if self.contains(x):
            return x
        if isinstance(x, (int, Fraction)):
            return self._rational(Fraction(x))
        raise RingMismatch(f"cannot embed {x!r} into {self.name}")

    def inverse(self, c):
        """1 / c for a unit c."""
        try:
            return self.divexact(self.one(), c)
        except ArithmeticError:
            raise ZeroDivisionError(
                f"{c!r} is not invertible in {self.name}") from None


class RationalRing(RingTag):
    name = "QQ"

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def contains(self, x):
        return isinstance(x, (int, Fraction))

    def _rational(self, q):
        return q

    def divexact(self, a, b):
        return as_fraction(a) / as_fraction(b)


class CyclotomicRing(RingTag):
    def __init__(self, order: int):
        self.order = order
        self.name = f"QQ(zeta{order})"

    def _key(self):
        return (self.order,)

    def zero(self):
        return CyclotomicScalar.from_rational(self.order, 0)

    def one(self):
        return CyclotomicScalar.from_rational(self.order, 1)

    def contains(self, x):
        return isinstance(x, CyclotomicScalar) and x.order == self.order

    def _rational(self, q):
        return CyclotomicScalar.from_rational(self.order, q)

    def inverse(self, c):
        return self.embed(c).inverse()

    def divexact(self, a, b):
        return self.embed(a) / self.embed(b)


class PolyRing(RingTag):
    def __init__(self, vars):
        self.vars = tuple(vars)
        self.name = "QQ[" + ",".join(self.vars) + "]"

    def _key(self):
        return (self.vars,)

    def zero(self):
        return Poly(self.vars, {})

    def one(self):
        return Poly.constant(self.vars, Fraction(1))

    def contains(self, x):
        return isinstance(x, Poly) and x.vars == self.vars

    def _rational(self, q):
        return Poly.constant(self.vars, q)

    def divexact(self, a, b):
        """Exact quotient, by the first variable whose division is exact."""
        a, b = self.embed(a), self.embed(b)
        if not b:
            raise ZeroDivisionError("division by zero polynomial")
        const = (0,) * len(self.vars)
        if list(b.coeffs) == [const]:
            return a * (Fraction(1) / b.coeffs[const])
        for v in self.vars:
            try:
                return a.divexact(b, v)
            except ArithmeticError:
                continue
        raise ArithmeticError("non-exact polynomial coefficient division")


class LaurentRing(RingTag):
    def __init__(self, var, base=None):
        self.var = var
        self.base = base or QQ
        self.name = f"{self.base.name}[{var}^+-1]"

    def _key(self):
        return (self.var, self.base)

    def zero(self):
        return LaurentPoly(self.var, {})

    def one(self):
        return LaurentPoly(self.var, {0: self.base.one()})

    def contains(self, x):
        return isinstance(x, LaurentPoly) and x.var == self.var

    def _rational(self, q):
        return LaurentPoly(self.var, {0: self.base.embed(q)})

    def divexact(self, a, b):
        return self.embed(a).divexact(self.embed(b))


QQ = RationalRing()
POLY_U = PolyRing(("u",))

# ---------------------------------------------------------------------------


class TruncSeries1:
    """Power series in one parameter, truncated at ``order``.

    Two series are equal iff they agree coefficientwise below the common
    truncation; comparing different orders emits
    :class:`TruncationMismatchWarning`.
    """

    __slots__ = ("ring", "order", "coeffs", "var")

    def __init__(self, ring, order, coeffs=(), var="h"):
        if order < 1:
            raise ValueError("truncation order must be >= 1")
        cs = list(coeffs)[:order]
        cs += [ring.zero()] * (order - len(cs))
        self.ring = ring
        self.order = order
        self.coeffs = tuple(cs)
        self.var = var

    # -- constructors ---------------------------------------------------
    @staticmethod
    def constant(ring, c, order, var="h"):
        return TruncSeries1(ring, order, [c], var=var)

    @staticmethod
    def zero(ring, order, var="h"):
        return TruncSeries1(ring, order, [], var=var)

    @staticmethod
    def one(ring, order, var="h"):
        return TruncSeries1(ring, order, [ring.one()], var=var)

    @staticmethod
    def gen(ring, order, var="h"):
        return TruncSeries1(ring, order, [ring.zero(), ring.one()], var=var)

    # -- plumbing -------------------------------------------------------
    def _align(self, other):
        if not isinstance(other, TruncSeries1):
            c = self.ring.embed(other)
            other = TruncSeries1.constant(self.ring, c, self.order, self.var)
        if other.ring != self.ring:
            raise RingMismatch(
                f"series rings differ: {self.ring.name} vs {other.ring.name}")
        if other.var != self.var:
            raise RingMismatch(
                f"series variables differ: {self.var} vs {other.var}")
        if other.order != self.order:
            warnings.warn("series truncation orders differ; truncating to "
                          "the minimum", TruncationMismatchWarning,
                          stacklevel=3)
            k = min(self.order, other.order)
            return self.truncate(k), other.truncate(k)
        return self, other

    def truncate(self, order) -> "TruncSeries1":
        return TruncSeries1(self.ring, order, self.coeffs[:order], self.var)

    def pad(self, order) -> "TruncSeries1":
        """Extend the truncation window, new coefficients unknown-as-zero."""
        return TruncSeries1(self.ring, order, self.coeffs, self.var)

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other):
        a, b = self._align(other)
        return TruncSeries1(a.ring, a.order,
                            [x + y for x, y in zip(a.coeffs, b.coeffs)], a.var)

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries1(self.ring, self.order,
                            [-c for c in self.coeffs], self.var)

    def __sub__(self, other):
        a, b = self._align(other)
        return a + (-b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._align(other)
        out = [a.ring.zero() for _ in range(a.order)]
        for i, x in enumerate(a.coeffs):
            if not x:
                continue
            for j, y in enumerate(b.coeffs):
                if i + j >= a.order:
                    break
                if y:
                    out[i + j] = out[i + j] + x * y
        return TruncSeries1(a.ring, a.order, out, a.var)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative series power; use invert()")
        one = TruncSeries1.one(self.ring, self.order, self.var)
        return pow_by_squaring(self, k, one)

    def __eq__(self, other):
        try:
            a, b = self._align(other)
        except RingMismatch:
            return NotImplemented
        return all(x == y for x, y in zip(a.coeffs, b.coeffs))

    def __hash__(self):
        return hash((self.ring, self.order, self.coeffs))

    # -- structure ----------------------------------------------------------
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self):
        return not self.is_zero()

    def valuation(self):
        """Index of the first nonzero coefficient; None when zero mod h^K."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return None

    def shift(self, k: int) -> "TruncSeries1":
        """Multiply by h^k (k >= 0), keeping the truncation order."""
        if k < 0:
            raise ValueError("negative shift on a plain series")
        return TruncSeries1(self.ring, self.order,
                            [self.ring.zero()] * k + list(self.coeffs), self.var)

    def shift_down(self, k: int) -> "TruncSeries1":
        """Exact division by h^k; the first k coefficients must vanish."""
        if any(self.coeffs[:k]):
            raise ArithmeticError("series not divisible by the parameter power")
        if self.order - k < 1:
            raise ArithmeticError("shift exhausts the truncation window")
        return TruncSeries1(self.ring, self.order - k, self.coeffs[k:], self.var)

    def invert(self) -> "TruncSeries1":
        """Inverse of a series whose constant term is invertible."""
        c0 = self.coeffs[0]
        if not c0:
            raise ZeroDivisionError("series has zero constant term")
        inv0 = self.ring.inverse(c0)
        out = [inv0]
        for k in range(1, self.order):
            acc = self.ring.zero()
            for j in range(1, k + 1):
                acc = acc + self.coeffs[j] * out[k - j]
            out.append(-(acc * inv0))
        return TruncSeries1(self.ring, self.order, out, self.var)

    def map_coeffs(self, f, ring=None, var=None) -> "TruncSeries1":
        return TruncSeries1(ring or self.ring, self.order,
                            [f(c) for c in self.coeffs], var or self.var)

    def __repr__(self):
        return format_series(self)


def series_div(num: TruncSeries1, den: TruncSeries1) -> TruncSeries1:
    """Exact quotient after cancelling the common parameter valuation.

    Requires val(num) >= val(den) and den nonzero modulo its truncation.
    The result satisfies result * den = num at the reduced order.
    """
    if den.is_zero():
        raise ZeroDivisionError("division by a series that is zero to full order")
    num, den = num._align(den)
    vd = den.valuation()
    vn = num.valuation()
    if vn is None:
        vn = num.order
    if vn < vd:
        raise ArithmeticError(
            f"valuation mismatch: numerator {vn} < denominator {vd}")
    if vd:
        den = den.shift_down(vd)
        num = num.truncate(den.order + vd).shift_down(vd)
    out = []
    k_max = den.order
    for k in range(k_max):
        acc = num.coeffs[k]
        for j in range(k):
            acc = acc - out[j] * den.coeffs[k - j]
        out.append(den.ring.divexact(acc, den.coeffs[0]))
    return TruncSeries1(den.ring, k_max, out, den.var)


def series_exp(ring, a, order, var="h") -> TruncSeries1:
    """exp(a * h) truncated: sum over m of a^m h^m / m!."""
    coeffs = []
    power = ring.one()
    for m in range(order):
        coeffs.append(power * Fraction(1, math.factorial(m)))
        power = power * a
    return TruncSeries1(ring, order, coeffs, var=var)


def exp_of(s: TruncSeries1) -> TruncSeries1:
    """exp of a series with zero constant term."""
    if s.coeffs[0]:
        raise ArithmeticError("exp needs a zero constant term")
    out = TruncSeries1.one(s.ring, s.order, s.var)
    term = TruncSeries1.one(s.ring, s.order, s.var)
    for m in range(1, s.order):
        term = term * s * Fraction(1, m)
        out = out + term
    return out


def sinh_series(ring, a, order, var="h") -> TruncSeries1:
    """sinh(a * h) truncated."""
    e = series_exp(ring, a, order, var)
    em = series_exp(ring, -a, order, var)
    return (e - em) * Fraction(1, 2)


def quantum_number_series(k: int, order: int, d: int = 1) -> TruncSeries1:
    """The quantum integer [k] at q^d: sinh(k d h)/sinh(d h) mod h^order."""
    if k == 0:
        return TruncSeries1.zero(QQ, order)
    sign = 1 if k > 0 else -1
    k = abs(k)
    out = TruncSeries1.zero(QQ, order)
    for j in range(k):
        out = out + series_exp(QQ, Fraction(d * (k - 1 - 2 * j)), order)
    return out * sign


def quantum_number_poly(x: Poly, order: int, d: int = 1) -> TruncSeries1:
    """[x] at q^d with a polynomial exponent: sinh(x d h)/sinh(d h)."""
    ring = PolyRing(x.vars)
    work = order + 1
    num = sinh_series(ring, x * Fraction(d), work)
    den = sinh_series(ring, Poly.constant(x.vars, Fraction(d)), work)
    return series_div(num, den)


# ---------------------------------------------------------------------------


class TruncSeries2:
    """Bivariate truncated series in (h, h'): coefficients c[i][j] with
    i < order_h and j < order_hp."""

    __slots__ = ("ring", "orders", "coeffs")

    def __init__(self, ring, orders, coeffs=None):
        kh, kp = orders
        if kh < 1 or kp < 1:
            raise ValueError("truncation orders must be >= 1")
        self.ring = ring
        self.orders = (kh, kp)
        cleaned = {}
        for (i, j), c in (coeffs or {}).items():
            if i < kh and j < kp and c:
                cleaned[(i, j)] = c
        self.coeffs = cleaned

    @staticmethod
    def constant(ring, c, orders):
        return TruncSeries2(ring, orders, {(0, 0): c})

    @staticmethod
    def zero(ring, orders):
        return TruncSeries2(ring, orders, {})

    @staticmethod
    def one(ring, orders):
        return TruncSeries2(ring, orders, {(0, 0): ring.one()})

    @staticmethod
    def from_h(s: TruncSeries1, orders):
        return TruncSeries2(s.ring, orders,
                            {(i, 0): c for i, c in enumerate(s.coeffs)})

    @staticmethod
    def from_hp(s: TruncSeries1, orders):
        return TruncSeries2(s.ring, orders,
                            {(0, j): c for j, c in enumerate(s.coeffs)})

    def _align(self, other):
        if not isinstance(other, TruncSeries2):
            c = self.ring.embed(other)
            other = TruncSeries2.constant(self.ring, c, self.orders)
        if other.ring != self.ring:
            raise RingMismatch(
                f"series rings differ: {self.ring.name} vs {other.ring.name}")
        if other.orders != self.orders:
            warnings.warn("bivariate truncation orders differ; truncating to "
                          "the minimum", TruncationMismatchWarning,
                          stacklevel=3)
            ko = (min(self.orders[0], other.orders[0]),
                  min(self.orders[1], other.orders[1]))
            return self.truncate(ko), other.truncate(ko)
        return self, other

    def truncate(self, orders) -> "TruncSeries2":
        return TruncSeries2(self.ring, orders, self.coeffs)

    def __add__(self, other):
        a, b = self._align(other)
        out = dict(a.coeffs)
        for k, c in b.coeffs.items():
            s = out.get(k, a.ring.zero()) + c
            if not s:
                out.pop(k, None)
            else:
                out[k] = s
        return TruncSeries2(a.ring, a.orders, out)

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries2(self.ring, self.orders,
                            {k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        a, b = self._align(other)
        return a + (-b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._align(other)
        kh, kp = a.orders
        out = {}
        for (i1, j1), c1 in a.coeffs.items():
            for (i2, j2), c2 in b.coeffs.items():
                i, j = i1 + i2, j1 + j2
                if i < kh and j < kp:
                    s = out.get((i, j), a.ring.zero()) + c1 * c2
                    out[(i, j)] = s
        return TruncSeries2(a.ring, a.orders, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative series power")
        one = TruncSeries2.one(self.ring, self.orders)
        return pow_by_squaring(self, k, one)

    def __eq__(self, other):
        try:
            a, b = self._align(other)
        except RingMismatch:
            return NotImplemented
        keys = set(a.coeffs) | set(b.coeffs)
        z = a.ring.zero()
        return all(a.coeffs.get(k, z) == b.coeffs.get(k, z) for k in keys)

    def __hash__(self):
        return hash((self.ring, self.orders, frozenset(self.coeffs.items())))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return not self.is_zero()

    def coefficient(self, i, j):
        return self.coeffs.get((i, j), self.ring.zero())

    def specialize_hp0(self) -> TruncSeries1:
        """Set h' = 0; a ring morphism onto univariate series in h."""
        out = [self.ring.zero()] * self.orders[0]
        for (i, j), c in self.coeffs.items():
            if j == 0:
                out[i] = c
        return TruncSeries1(self.ring, self.orders[0], out, var="h")

    def reduce_mod_hp(self) -> "TruncSeries2":
        return TruncSeries2(self.ring, self.orders,
                            {k: c for k, c in self.coeffs.items() if k[1] == 0})

    def __repr__(self):
        return format_series(self)


def compose1(f: TruncSeries1, x) -> "TruncSeries2 | TruncSeries1":
    """f(x) for a univariate series f and an argument with zero constant term."""
    if isinstance(x, TruncSeries1):
        if x.coeffs[0]:
            raise ArithmeticError("composition needs zero constant term")
        out = TruncSeries1.constant(x.ring, x.ring.embed(f.coeffs[0]), x.order,
                                    x.var)
        power = TruncSeries1.one(x.ring, x.order, x.var)
        for m in range(1, f.order):
            power = power * x
            if power.is_zero():
                break
            out = out + power * x.ring.embed(f.coeffs[m])
        return out
    if x.coefficient(0, 0):
        raise ArithmeticError("composition needs zero constant term")
    out = TruncSeries2.constant(x.ring, x.ring.embed(f.coeffs[0]), x.orders)
    power = TruncSeries2.one(x.ring, x.orders)
    for m in range(1, f.order):
        power = power * x
        if power.is_zero():
            break
        out = out + power * x.ring.embed(f.coeffs[m])
    return out


# ---------------------------------------------------------------------------


class LaurentTrunc:
    """h'-Laurent element: shift v with a truncated regular series part.

    Represents (h')^v * series.  A value is regular when its normalised
    shift is >= 0.
    """

    __slots__ = ("shift", "series")

    def __init__(self, shift: int, series: TruncSeries1):
        self.shift = shift
        self.series = series

    @staticmethod
    def from_series(s: TruncSeries1) -> "LaurentTrunc":
        return LaurentTrunc(0, s)

    def normalize(self) -> "LaurentTrunc":
        v = self.series.valuation()
        if v is None or v == 0:
            return self
        return LaurentTrunc(self.shift + v, self.series.shift_down(v))

    def is_regular(self) -> bool:
        n = self.normalize()
        return n.shift >= 0 or n.series.is_zero()

    def as_series(self, order=None) -> TruncSeries1:
        n = self.normalize()
        if n.series.is_zero():
            s = TruncSeries1.zero(n.series.ring, n.series.order, n.series.var)
            return s.truncate(order) if order else s
        if n.shift < 0:
            raise ArithmeticError(
                f"negative parameter valuation {n.shift}: not a regular value")
        s = n.series.pad(n.series.order + n.shift).shift(n.shift) \
            if n.shift else n.series
        # shifting loses knowledge of the top window
        s = s.truncate(n.series.order)
        return s.truncate(order) if order else s

    def __mul__(self, other):
        if not isinstance(other, LaurentTrunc):
            other = LaurentTrunc(0, other) if isinstance(other, TruncSeries1) \
                else LaurentTrunc(0, TruncSeries1.constant(
                    self.series.ring, self.series.ring.embed(other),
                    self.series.order, self.series.var))
        # normalizing first keeps the full known window of the unit parts
        a, b = self.normalize(), other.normalize()
        return LaurentTrunc(a.shift + b.shift, a.series * b.series)

    __rmul__ = __mul__

    def __add__(self, other):
        if not isinstance(other, LaurentTrunc):
            other = LaurentTrunc(0, other)
        a, b = self.normalize(), other.normalize()
        v = min(a.shift, b.shift)
        sa = a.series.shift(a.shift - v) if a.shift > v else a.series
        sb = b.series.shift(b.shift - v) if b.shift > v else b.series
        return LaurentTrunc(v, sa + sb)

    def __neg__(self):
        return LaurentTrunc(self.shift, -self.series)

    def __sub__(self, other):
        if not isinstance(other, LaurentTrunc):
            other = LaurentTrunc(0, other)
        return self + (-other)

    def invert(self) -> "LaurentTrunc":
        n = self.normalize()
        if n.series.is_zero():
            raise ZeroDivisionError("inverse of zero Laurent element")
        return LaurentTrunc(-n.shift, n.series.invert())

    def is_zero(self) -> bool:
        return self.series.is_zero()

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, TruncSeries1):
            other = LaurentTrunc(0, other)
        if not isinstance(other, LaurentTrunc):
            return NotImplemented
        return (self - other).is_zero()

    def __repr__(self):
        n = self.normalize()
        return f"(h')^{n.shift} * ({n.series!r})"


# ---------------------------------------------------------------------------
# canonical text format


def _format_coeff(c) -> str:
    if isinstance(c, (int, Fraction)):
        return str(c)
    if isinstance(c, CyclotomicScalar):
        return repr(c)
    if isinstance(c, (Poly, LaurentPoly)):
        return f"({c!r})"
    return str(c)


def _poly_terms(c, h_exp, hp_exp):
    """Split a coefficient into (exponent-dict, scalar) monomial terms."""
    base = {"h": h_exp, "h'": hp_exp}
    if isinstance(c, Poly):
        for e, s in c.coeffs.items():
            d = dict(base)
            for v, k in zip(c.vars, e):
                if k:
                    d[v] = k
            yield d, s
    else:
        yield base, c


def format_series(s) -> str:
    """Bit-exact text: monomials by total degree then lexicographic in
    (h, h', u, v); reduced-fraction coefficients; trailing O-marker."""
    var_order = ("h", "h'", "u", "v")
    terms = []
    if isinstance(s, TruncSeries1):
        items = [((i, 0), c) for i, c in enumerate(s.coeffs) if c]
        hvar = s.var
        omark = f"O({s.var}^{s.order})"
    else:
        items = sorted(s.coeffs.items())
        hvar = "h"
        omark = f"O(h^{s.orders[0]},h'^{s.orders[1]})"
    for (i, j), c in items:
        he = {"h": i} if hvar == "h" else {"h'": i}
        for d, scalar in _poly_terms(c, he.get("h", 0) if hvar == "h" else 0,
                                     j if hvar == "h" else i):
            if hvar == "h'":
                d = dict(d)
                d["h'"] = d.pop("h", 0) or d.get("h'", 0)
            if scalar:
                terms.append((d, scalar))
    def key(t):
        d, _ = t
        total = sum(d.values())
        return (total, tuple(-d.get(v, 0) for v in var_order))
    parts = []
    for d, scalar in sorted(terms, key=key):
        mono = "*".join(f"{v}^{d[v]}" if d[v] > 1 else v
                        for v in var_order if d.get(v))
        cs = _format_coeff(scalar)
        parts.append(f"{cs}*{mono}" if mono else cs)
    body = " + ".join(parts) if parts else "0"
    return f"{body} + {omark}"
