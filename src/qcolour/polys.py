"""Sparse polynomials and Laurent polynomials over an exact scalar ring.

A ``Poly`` stores a map from exponent tuples to nonzero coefficients.
Coefficients are whatever scalar type the caller works with (Fraction or
CyclotomicScalar); they only need ring arithmetic through operators,
``bool(c)`` as the zero test and ``/`` for division by a nonzero scalar.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import RingMismatch, pow_by_squaring


class Poly:
    """Multivariate polynomial, sparse exponent-tuple representation."""

    __slots__ = ("vars", "coeffs")

    def __init__(self, vars, coeffs=None):
        self.vars = tuple(vars)
        cleaned = {}
        for exp, c in (coeffs or {}).items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != len(self.vars):
                raise ValueError("exponent arity mismatch")
            if any(e < 0 for e in exp):
                raise ValueError("negative exponent in polynomial")
            if c:
                cleaned[exp] = cleaned.get(exp, 0) + c if exp in cleaned else c
        self.coeffs = {e: c for e, c in cleaned.items() if c}

    # -- constructors ---------------------------------------------------
    @staticmethod
    def constant(vars, c) -> "Poly":
        return Poly(vars, {(0,) * len(tuple(vars)): c})

    @staticmethod
    def variable(vars, name) -> "Poly":
        vars = tuple(vars)
        exp = [0] * len(vars)
        exp[vars.index(name)] = 1
        return Poly(vars, {tuple(exp): Fraction(1)})

    # -- ring operations --------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.vars != self.vars:
                raise RingMismatch(
                    f"polynomial variables differ: {self.vars} vs {other.vars}")
            return other
        return Poly.constant(self.vars, other)

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e, 0) + c
            if not s:
                out.pop(e, None)
            else:
                out[e] = s
        return Poly(self.vars, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.vars, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, 0) + c1 * c2
                if not s:
                    out.pop(e, None)
                else:
                    out[e] = s
        return Poly(self.vars, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        return pow_by_squaring(self, k, Poly.constant(self.vars, Fraction(1)))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.vars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.vars == other.vars and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.vars, frozenset(self.coeffs.items())))

    def __bool__(self):
        return bool(self.coeffs)

    # -- queries --------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self, var=None) -> int:
        """Total degree, or degree in one variable; zero polynomial -> -1."""
        if not self.coeffs:
            return -1
        if var is None:
            return max(sum(e) for e in self.coeffs)
        i = self.vars.index(var)
        return max(e[i] for e in self.coeffs)

    def coefficient(self, exp):
        return self.coeffs.get(tuple(exp), Fraction(0))

    # -- evaluation / substitution ----------------------------------------
    def __call__(self, *values):
        """Evaluate at scalars; values follow the variable order."""
        if len(values) != len(self.vars):
            raise ValueError("wrong number of values")
        # powers[i][k - 1] = values[i] ** k, grown as exponents ask
        powers = [[v] for v in values]
        out = 0
        for e, c in self.coeffs.items():
            term = c
            for v, pw, k in zip(values, powers, e):
                if k:
                    while len(pw) < k:
                        pw.append(pw[-1] * v)
                    term = term * pw[k - 1]
            out = out + term
        return out

    def substitute(self, **subs) -> "Poly":
        """Substitute polynomials (same variable set) for variables."""
        images = []
        for name in self.vars:
            img = subs.get(name)
            images.append(Poly.variable(self.vars, name) if img is None
                          else self._coerce(img))
        # powers[i][k] = images[i] ** k, grown as exponents ask
        one = Poly.constant(self.vars, Fraction(1))
        powers = [[one] for _ in images]
        out = Poly(self.vars, {})
        for e, c in self.coeffs.items():
            term = Poly.constant(self.vars, c)
            for img, pw, k in zip(images, powers, e):
                while len(pw) <= k:
                    pw.append(pw[-1] * img)
                term = term * pw[k]
            out = out + term
        return out

    def divmod(self, den: "Poly", var) -> "tuple[Poly, Poly]":
        """Division with remainder in ``var``: self = q * den + r.

        The remainder has lower degree in ``var`` than ``den``.  Each step
        peels the top slice in ``var``, so the divisor's leading slice must
        be one monomial that divides every term it meets; otherwise the
        division raises ``ArithmeticError``.
        """
        den = self._coerce(den)
        if not den:
            raise ZeroDivisionError("division by zero polynomial")
        i = self.vars.index(var)
        dd = den.degree(var)
        quot, rem = {}, self
        nd = rem.degree(var)
        if nd >= dd:
            lead = [(e, c) for e, c in den.coeffs.items() if e[i] == dd]
            if len(lead) != 1:
                raise ArithmeticError("divisor leading slice not a monomial")
            (le, lc), = lead
            inv = Fraction(1) / lc
        while nd >= dd:
            top = {}
            for e, c in rem.coeffs.items():
                if e[i] == nd:
                    qe = tuple(a - b for a, b in zip(e, le))
                    if any(x < 0 for x in qe):
                        raise ArithmeticError("non-exact polynomial division")
                    top[qe] = c * inv
            quot.update(top)
            rem = rem - Poly(self.vars, top) * den
            nd = rem.degree(var)
        return Poly(self.vars, quot), rem

    def divexact(self, den: "Poly", var) -> "Poly":
        """Exact division by a univariate-in-``var`` divisor; raises
        ``ArithmeticError`` if inexact."""
        quot, rem = self.divmod(den, var)
        if rem:
            raise ArithmeticError("non-exact polynomial division")
        return quot

    def __repr__(self):
        return format_poly(self)


def format_poly(p: Poly) -> str:
    """Canonical text: monomials by total degree then lexicographic order."""
    if not p.coeffs:
        return "0"
    def key(e):
        return (sum(e), tuple(-x for x in e))
    parts = []
    for e in sorted(p.coeffs, key=key):
        c = p.coeffs[e]
        mono = "*".join(
            f"{v}^{k}" if k > 1 else v
            for v, k in zip(p.vars, e) if k)
        cs = str(c)
        parts.append(f"{cs}*{mono}" if mono else cs)
    return " + ".join(parts)


class LaurentPoly:
    """Univariate Laurent polynomial: finitely supported map int -> scalar."""

    __slots__ = ("var", "coeffs")

    def __init__(self, var: str, coeffs=None):
        self.var = var
        self.coeffs = {int(k): c for k, c in (coeffs or {}).items() if c}

    @staticmethod
    def monomial(var, k, c=Fraction(1)) -> "LaurentPoly":
        return LaurentPoly(var, {k: c})

    def _coerce(self, other):
        if isinstance(other, LaurentPoly):
            if other.var != self.var:
                raise RingMismatch("Laurent variables differ")
            return other
        return LaurentPoly(self.var, {0: other})

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            s = out.get(k, 0) + c
            if not s:
                out.pop(k, None)
            else:
                out[k] = s
        return LaurentPoly(self.var, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(self.var, {k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        out = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                k = k1 + k2
                s = out.get(k, 0) + c1 * c2
                if not s:
                    out.pop(k, None)
                else:
                    out[k] = s
        return LaurentPoly(self.var, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.var == other.var and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.var, frozenset(self.coeffs.items())))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __call__(self, value):
        """Evaluate at an invertible scalar."""
        out = 0
        for k, c in sorted(self.coeffs.items()):
            out = out + c * (value ** k)
        return out

    def substitute_monomial(self, var: str, power: int) -> "LaurentPoly":
        """Image under x -> y^power."""
        return LaurentPoly(var, {k * power: c for k, c in self.coeffs.items()})

    def divexact(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact division; raises ``ArithmeticError`` if inexact.

        Both sides are shifted to ordinary polynomials with a nonzero
        constant term, so the quotient is their polynomial quotient
        shifted by the difference of the lowest exponents.
        """
        other = self._coerce(other)
        if not other:
            raise ZeroDivisionError("division by zero Laurent polynomial")
        if not self:
            return LaurentPoly(self.var, {})
        lo_num, lo_den = min(self.coeffs), min(other.coeffs)
        num = Poly((self.var,), {(k - lo_num,): c
                                 for k, c in self.coeffs.items()})
        den = Poly((self.var,), {(k - lo_den,): c
                                 for k, c in other.coeffs.items()})
        quot = num.divexact(den, self.var)
        return LaurentPoly(self.var, {e + lo_num - lo_den: c
                                      for (e,), c in quot.coeffs.items()})

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in sorted(self.coeffs):
            c = self.coeffs[k]
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*{self.var}")
            else:
                parts.append(f"{c}*{self.var}^{k}")
        return " + ".join(parts)
