"""Colourings of the rank-1 global crystal and their calculus.

The crystal has one string per n >= 0 with vertices b_{n,0..n}; the
signed edges are indexed by (sign, n, k) with 1 <= k <= n.  A colouring
assigns a ring element to every edge; the congruence class
[psi](n,k) = psi^-(n,k) psi^+(n,n-k+1) is the invariant all derived
structures depend on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .polys import Poly
from .scalars import RingMismatch
from .series import (POLY_U, QQ, PolyRing, TruncSeries1,
                     quantum_number_poly, quantum_number_series)

UV = ("u", "v")


def poly_uv(coeffs=None) -> Poly:
    return Poly(UV, coeffs or {})


U = Poly.variable(UV, "u")
V = Poly.variable(UV, "v")


@dataclass(frozen=True)
class Edge:
    sign: int                 # -1 or +1
    n: int
    k: int

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise ValueError("edge sign must be -1 or +1")
        if not (1 <= self.k <= self.n):
            raise ValueError(f"edge ({self.n},{self.k}) out of range")


# ---------------------------------------------------------------------------
# colouring variants


class Colouring:
    """Base: a two-signed function on crystal edges."""

    variant = "abstract"

    def minus(self, n, k):
        raise NotImplementedError

    def plus(self, n, k):
        raise NotImplementedError

    def value(self, sign, n, k):
        if not (1 <= k <= n):
            raise ValueError(f"edge ({n},{k}) out of range")
        return self.minus(n, k) if sign < 0 else self.plus(n, k)

    def eval_edge(self, edge: Edge):
        return self.value(edge.sign, edge.n, edge.k)

    def congruence_value(self, n, k):
        return self.minus(n, k) * self.plus(n, n - k + 1)


class ClassicalColouring(Colouring):
    """psi^+-(n,k) = k over the rationals."""

    variant = "classical"

    def minus(self, n, k):
        return Fraction(k)

    plus = minus


class QuantumColouring(Colouring):
    """psi^+-(n,k) = [k] at q^d, values truncated at ``order``."""

    variant = "quantum"

    def __init__(self, d: int = 1, order: int = 6):
        self.d = d
        self.order = order

    def minus(self, n, k):
        return quantum_number_series(k, self.order, self.d)

    plus = minus


class PolySeriesColouring(Colouring):
    """Both signs given by elements of Q[u,v][h] mod h^order."""

    variant = "polyseries"

    def __init__(self, minus_coeffs, plus_coeffs, order=None):
        mc = [_as_poly_uv(p) for p in minus_coeffs]
        pc = [_as_poly_uv(p) for p in plus_coeffs]
        self.order = order or max(len(mc), len(pc), 1)
        self.minus_coeffs = tuple(mc + [poly_uv()] * (self.order - len(mc)))
        self.plus_coeffs = tuple(pc + [poly_uv()] * (self.order - len(pc)))

    def minus(self, n, k):
        return TruncSeries1(QQ, self.order,
                            [p(Fraction(n), Fraction(k))
                             for p in self.minus_coeffs])

    def plus(self, n, k):
        return TruncSeries1(QQ, self.order,
                            [p(Fraction(n), Fraction(k))
                             for p in self.plus_coeffs])

    def series_pair(self):
        ring = PolyRing(UV)
        mk = TruncSeries1(ring, self.order, self.minus_coeffs)
        pk = TruncSeries1(ring, self.order, self.plus_coeffs)
        return mk, pk


class PointwiseColouring(Colouring):
    """Explicit table over a declared ring, optionally backed by a rule."""

    variant = "pointwise"

    def __init__(self, table=None, rule=None, ring=QQ):
        self.table = dict(table or {})
        self.rule = rule
        self.ring = ring

    def value(self, sign, n, k):
        if not (1 <= k <= n):
            raise ValueError(f"edge ({n},{k}) out of range")
        key = (sign, n, k)
        if key in self.table:
            return self.table[key]
        if self.rule is not None:
            return self.rule(sign, n, k)
        raise KeyError(f"edge {key} missing from the pointwise table")

    def minus(self, n, k):
        return self.value(-1, n, k)

    def plus(self, n, k):
        return self.value(1, n, k)


class SwappedColouring(Colouring):
    """Cartan dual: the two signs exchanged."""

    variant = "cartan-dual"

    def __init__(self, base: Colouring):
        self.base = base

    def minus(self, n, k):
        return self.base.plus(n, k)

    def plus(self, n, k):
        return self.base.minus(n, k)


def cartan_dual(psi):
    """Swap the signs; involutive.  Maps of colourings are handled
    index by index."""
    if isinstance(psi, dict):
        return {i: cartan_dual(p) for i, p in psi.items()}
    if isinstance(psi, SwappedColouring):
        return psi.base
    return SwappedColouring(psi)


class IsogenyColouring(Colouring):
    """Reindexed product colouring along an isogeny scaling.

    value^+-(n,k) = prod over k' = 1..xi of
    base^+-(xi n + 2 d, xi (k-1) + k' + d).
    """

    variant = "isogeny"

    def __init__(self, base: Colouring, xi: int, d: int):
        if not (0 <= d < xi):
            raise ValueError("layer d must satisfy 0 <= d < xi")
        self.base = base
        self.xi = xi
        self.d = d

    def _prod(self, sign, n, k):
        out = None
        for kp in range(1, self.xi + 1):
            v = self.base.value(sign, self.xi * n + 2 * self.d,
                                self.xi * (k - 1) + kp + self.d)
            out = v if out is None else out * v
        return out

    def minus(self, n, k):
        return self._prod(-1, n, k)

    def plus(self, n, k):
        return self._prod(1, n, k)


def isogeny_colouring(psi: Colouring, xi: int, d: int) -> Colouring:
    if xi == 1 and d == 0:
        return psi
    return IsogenyColouring(psi, xi, d)


# ---------------------------------------------------------------------------
# rational functions regular at 0 and 1 (the interpolation coefficient ring)


class RegRat:
    """f/g with f, g in Q[u] and g(0) != 0 != g(1).

    Regularity of the denominator is certified at construction.
    """

    __slots__ = ("num", "den")
    VARS = ("u",)

    def __init__(self, num, den=None):
        num = _as_poly_u(num)
        den = _as_poly_u(den if den is not None else Fraction(1))
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        for beta in (Fraction(0), Fraction(1)):
            if den(beta) == 0:
                raise ArithmeticError(
                    f"denominator vanishes at u = {beta}: not in the ring")
        g = _poly_gcd_u(num, den)
        if g.degree() > 0:
            num = num.divexact(g, "u")
            den = den.divexact(g, "u")
        lead = den.coeffs[max(den.coeffs, key=lambda e: e[0])]
        num = num * (Fraction(1) / lead)
        den = den * (Fraction(1) / lead)
        self.num = num
        self.den = den

    @staticmethod
    def variable() -> "RegRat":
        return RegRat(Poly.variable(("u",), "u"))

    def _coerce(self, other):
        if isinstance(other, RegRat):
            return other
        return RegRat(other)

    def __add__(self, other):
        o = self._coerce(other)
        return RegRat(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RegRat(-self.num, self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        return RegRat(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        return RegRat(self.num * o.den, self.den * o.num)

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except (RingMismatch, TypeError, ArithmeticError):
            return NotImplemented
        return self.num * o.den == o.num * self.den

    def __hash__(self):
        return hash((self.num, self.den))

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return not self.is_zero()

    def at(self, beta):
        """Evaluate, raising on a pole."""
        beta = Fraction(beta)
        d = self.den(beta)
        if d == 0:
            raise ArithmeticError(f"pole at u = {beta}")
        return self.num(beta) / d

    def __repr__(self):
        if self.den == Poly.constant(("u",), Fraction(1)):
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"


def _as_poly_u(x):
    if isinstance(x, Poly):
        if x.vars == ("u",):
            return x
        raise RingMismatch("expected a polynomial in u")
    return Poly.constant(("u",), Fraction(x))


def _as_poly_uv(x):
    if isinstance(x, Poly):
        if x.vars == UV:
            return x
        raise RingMismatch("expected a polynomial in (u, v)")
    return Poly.constant(UV, Fraction(x))


def _poly_gcd_u(a, b):
    while b:
        a, b = b, a.divmod(b, "u")[1]
    if not a:
        return a
    lead = a.coeffs[max(a.coeffs, key=lambda e: e[0])]
    return a * (Fraction(1) / lead)


class InterpColouring(Colouring):
    """Affine blend of two scalar colourings along an isogeny scaling.

    On xi-divisible k the second colouring contributes at the rescaled
    edge; elsewhere its slot degenerates to the constant 1.  The
    ``orientation`` flag decides which endpoint carries which colouring:
    "u1" places the first colouring at u = 1 (the displayed convention),
    "u0" swaps u and 1 - u.
    """

    variant = "interp"

    def __init__(self, psi: Colouring, psi_prime: Colouring, xi: int,
                 orientation: str = "u1"):
        if orientation not in ("u1", "u0"):
            raise ValueError("orientation must be 'u1' or 'u0'")
        self.psi = psi
        self.psi_prime = psi_prime
        self.xi = xi
        self.orientation = orientation

    def _blend(self, sign, n, k):
        u = RegRat.variable()
        va = Fraction(self.psi.value(sign, n, k))
        if va == 0:
            raise ArithmeticError(
                f"first colouring is not admissible: zero at edge "
                f"({sign},{n},{k})")
        a = RegRat(va)
        if k % self.xi == 0:
            vb = Fraction(self.psi_prime.value(sign, n, k // self.xi))
            if vb == 0:
                raise ArithmeticError(
                    f"second colouring is not admissible: zero at edge "
                    f"({sign},{n},{k // self.xi})")
            b = RegRat(vb)
        else:
            b = RegRat(Fraction(1))
        one = RegRat(Fraction(1))
        if self.orientation == "u1":
            return u * a + (one - u) * b
        return (one - u) * a + u * b

    def minus(self, n, k):
        return self._blend(-1, n, k)

    def plus(self, n, k):
        return self._blend(1, n, k)


def interpolation_colouring(psi, psi_prime, xi, orientation="u1"):
    """Blend I-colourings along an isogeny; maps give maps, single
    colourings give a single colouring."""
    if isinstance(psi, dict):
        def scaling(i):
            if isinstance(xi, (dict, list, tuple)):
                return xi[i]
            return xi
        return {i: InterpColouring(psi[i], psi_prime[i], scaling(i),
                                   orientation)
                for i in psi}
    return InterpColouring(psi, psi_prime, xi, orientation)


class SpecializedColouring(Colouring):
    """Pushforward of a RegRat-valued colouring along u -> beta."""

    variant = "specialized"

    def __init__(self, base: Colouring, beta):
        self.base = base
        self.beta = Fraction(beta)

    def _push(self, x):
        if isinstance(x, RegRat):
            return x.at(self.beta)
        return x

    def minus(self, n, k):
        return self._push(self.base.minus(n, k))

    def plus(self, n, k):
        return self._push(self.base.plus(n, k))


def specialize_colouring(psi: Colouring, beta) -> Colouring:
    if isinstance(psi, dict):
        return {i: specialize_colouring(p, beta) for i, p in psi.items()}
    return SpecializedColouring(psi, beta)


# ---------------------------------------------------------------------------
# congruence classes


class CongruenceClass:
    """The edge product [psi](n,k) = psi^-(n,k) psi^+(n,n-k+1)."""

    def __init__(self, order: int, poly_coeffs=None, rule=None, exact=False):
        self.order = order
        self.poly_coeffs = tuple(poly_coeffs) if poly_coeffs is not None \
            else None
        self.rule = rule
        self.exact = exact and poly_coeffs is not None

    @property
    def closed_form(self):
        return self.poly_coeffs

    def at_order(self, order: int) -> "CongruenceClass":
        if order <= self.order:
            return CongruenceClass(order,
                                   self.poly_coeffs[:order]
                                   if self.poly_coeffs else None,
                                   self.rule, self.exact)
        if self.exact:
            pad = self.poly_coeffs + (poly_uv(),) * (order - self.order)
            return CongruenceClass(order, pad, None, True)
        raise ValueError(
            f"congruence only known modulo h^{self.order}; rebuild the "
            f"colouring at order {order}")

    def value(self, n, k) -> TruncSeries1:
        """[psi](n,k) as a rational series, n may be any integer for
        closed forms."""
        if self.poly_coeffs is not None:
            return TruncSeries1(QQ, self.order,
                                [p(Fraction(n), Fraction(k))
                                 for p in self.poly_coeffs])
        return self.rule(n, k)

    def factorial(self, n, k) -> TruncSeries1:
        """[psi](n,k)! = prod of [psi](n,k') for k' = 1..k; empty product 1."""
        out = TruncSeries1.one(QQ, self.order)
        for kp in range(1, k + 1):
            out = out * self.value(n, kp)
        return out

    def value_poly(self, k: int) -> TruncSeries1:
        """[psi](u,k) as a series with Q[u] coefficients (closed form only)."""
        if self.poly_coeffs is None:
            raise ValueError("no closed form available")
        kf = Fraction(k)
        coeffs = []
        for p in self.poly_coeffs:
            # c u^i v^j -> (c k^j) u^i, summed per power of u
            out = {}
            for (i, j), c in p.coeffs.items():
                out[(i,)] = out.get((i,), 0) + c * kf ** j
            coeffs.append(Poly(("u",), out))
        return TruncSeries1(POLY_U, self.order, coeffs)

    def __eq__(self, other):
        if not isinstance(other, CongruenceClass):
            return NotImplemented
        if self.poly_coeffs is not None and other.poly_coeffs is not None:
            k = min(self.order, other.order)
            return self.poly_coeffs[:k] == other.poly_coeffs[:k]
        return NotImplemented

    def __mul__(self, other: "CongruenceClass") -> "CongruenceClass":
        """Congruence class of the edgewise product colouring."""
        order = min(self.order, other.order)
        if self.poly_coeffs is not None and other.poly_coeffs is not None:
            ring = PolyRing(UV)
            a = TruncSeries1(ring, order, self.poly_coeffs[:order])
            b = TruncSeries1(ring, order, other.poly_coeffs[:order])
            exact = self.exact and other.exact and \
                _top_index(self.poly_coeffs) + _top_index(other.poly_coeffs) \
                < order
            return CongruenceClass(order, (a * b).coeffs, exact=exact)
        return CongruenceClass(
            order, rule=lambda n, k: (self.value(n, k).truncate(order) *
                                      other.value(n, k).truncate(order)))


def _series_congruence(psi, order):
    """Pointwise congruence rule producing rational series values."""
    def rule(n, k):
        a = psi.minus(n, k)
        b = psi.plus(n, n - k + 1)
        v = a * b
        if isinstance(v, TruncSeries1):
            if v.order < order:
                raise ValueError(
                    f"colouring values truncated below h^{order}")
            return v.truncate(order)
        return TruncSeries1.constant(QQ, Fraction(v), order)
    return rule


def congruence(psi: Colouring, order: int = 6) -> CongruenceClass:
    """Congruence class of a colouring, closed form when available."""
    if isinstance(psi, SwappedColouring) and \
            isinstance(psi.base, (ClassicalColouring, QuantumColouring)):
        # the built-in colourings are sign-symmetric
        return congruence(psi.base, order)
    if isinstance(psi, ClassicalColouring):
        return CongruenceClass(order, [V * (U - V + 1)] +
                               [poly_uv()] * (order - 1), exact=True)
    if isinstance(psi, QuantumColouring):
        if psi.order < order:
            raise ValueError(f"quantum colouring built at order {psi.order}, "
                             f"need {order}")
        qa = quantum_number_poly(V, order, psi.d)
        qb = quantum_number_poly(U - V + 1, order, psi.d)
        return CongruenceClass(order, (qa * qb).coeffs)
    if isinstance(psi, PolySeriesColouring):
        if psi.order < order:
            raise ValueError(f"colouring built at order {psi.order}, "
                             f"need {order}")
        ring = PolyRing(UV)
        mk = TruncSeries1(ring, order, psi.minus_coeffs[:order])
        pk = TruncSeries1(ring, order,
                          [p.substitute(v=U - V + 1)
                           for p in psi.plus_coeffs[:order]])
        prod = mk * pk
        return CongruenceClass(order, prod.coeffs,
                               exact=_polyseries_exact(psi, order))
    return CongruenceClass(order, rule=_series_congruence(psi, order))


def _top_index(coeffs):
    top = -1
    for i, p in enumerate(coeffs):
        if not p.is_zero():
            top = i
    return top


def _polyseries_exact(psi, order):
    """The truncated congruence is the full one only when the product of
    the two h-polynomials does not reach the cutoff."""
    return _top_index(psi.minus_coeffs) + _top_index(psi.plus_coeffs) < order


def colouring_from_congruence(cong: CongruenceClass) -> Colouring:
    """Normalized colouring with psi^- = 1 and psi^+ carrying the class."""
    order = cong.order
    one = TruncSeries1.one(QQ, order)
    def rule(sign, n, k):
        if sign < 0:
            return one
        return cong.value(n, n - k + 1)
    return PointwiseColouring(rule=rule, ring=QQ)


def factorial_product(psi, n, k):
    """[psi](n,k)! with the empty product equal to 1."""
    if k > n or k < 0:
        raise ValueError(f"need 0 <= k <= n, got ({n},{k})")
    if isinstance(psi, CongruenceClass):
        return psi.factorial(n, k)
    out = None
    for kp in range(1, k + 1):
        v = psi.congruence_value(n, kp)
        out = v if out is None else out * v
    return out if out is not None else Fraction(1)


# ---------------------------------------------------------------------------
# h-admissibility


@dataclass
class AxiomVerdict:
    name: str
    status: str               # "pass" | "fail" | "undecidable"
    order: int = None         # first failing h-order
    witness: str = ""

    def __bool__(self):
        return self.status == "pass"


@dataclass
class AdmissibilityReport:
    deformation: AxiomVerdict
    regularity: AxiomVerdict
    quotient: AxiomVerdict
    verma: AxiomVerdict

    def all_pass(self) -> bool:
        return all([self.deformation, self.regularity, self.quotient,
                    self.verma])

    def verdicts(self):
        return [self.deformation, self.regularity, self.quotient, self.verma]


def check_h_admissible(psi, order: int = 6) -> AdmissibilityReport:
    """Decide the four admissibility axioms on the congruence class.

    Works on the closed bivariate form modulo h^order; colourings
    without a closed form get explicit "undecidable" verdicts.
    """
    cong = psi if isinstance(psi, CongruenceClass) else congruence(psi, order)
    if cong.closed_form is None:
        und = lambda nm: AxiomVerdict(nm, "undecidable",
                                      witness="no closed bivariate form")
        return AdmissibilityReport(und("deformation"), und("regularity"),
                                   und("quotient"), und("verma"))
    cs = cong.closed_form
    classical = V * (U - V + 1)
    if cs[0] == classical:
        deform = AxiomVerdict("deformation", "pass")
    else:
        deform = AxiomVerdict("deformation", "fail", 0, repr(cs[0]))
    regular = AxiomVerdict("regularity", "pass")
    quotient = AxiomVerdict("quotient", "pass")
    for m, p in enumerate(cs):
        q = p.substitute(v=U + 1)
        if not q.is_zero():
            quotient = AxiomVerdict("quotient", "fail", m, repr(q))
            break
    verma = AxiomVerdict("verma", "pass")
    for m, p in enumerate(cs):
        lhs = p.substitute(u=-U - 2)
        rhs = p.substitute(v=U + V + 1)
        if lhs != rhs:
            verma = AxiomVerdict("verma", "fail", m, repr(lhs - rhs))
            break
    return AdmissibilityReport(deform, regular, quotient, verma)


# ---------------------------------------------------------------------------
# h-admissible expansion


def h_admissible_expansion(psi: Colouring, depth: int) -> PolySeriesColouring:
    """Expand a scalar colouring into an admissible polynomial family.

    Returns psi_h = sum of P_m h^m modulo h^(depth+1) with P_0 = v, the
    stagewise vanishing/matching point constraints, and the antisymmetry
    P^+-_m(-u-2, v) = -P^-+_m(u, -v).  Every P_m keeps v as a factor so
    the quotient axiom holds identically; summing the family at h = 1
    reproduces psi on all edges with n <= depth.
    """
    probe = psi.value(1, max(depth, 1), 1)
    if not isinstance(probe, (int, Fraction)):
        raise ValueError(
            "the admissible expansion needs a scalar colouring over the "
            f"rationals, got values like {probe!r}")
    plus_list = [V]
    minus_list = [V]
    for m in range(1, depth + 1):
        points = {}
        for n in range(1, m):
            for k in range(1, n + 2):
                points[(Fraction(n), Fraction(k))] = Fraction(0)
                points[(Fraction(-n - 2), Fraction(-k))] = Fraction(0)
        for k in range(1, m + 1):
            rp = Fraction(psi.plus(m, k)) - sum(
                (p(Fraction(m), Fraction(k)) for p in plus_list),
                Fraction(0))
            rm = Fraction(psi.minus(m, k)) - sum(
                (p(Fraction(m), Fraction(k)) for p in minus_list),
                Fraction(0))
            points[(Fraction(m), Fraction(k))] = rp / k
            points[(Fraction(-m - 2), Fraction(-k))] = rm / k
        points[(Fraction(m), Fraction(m + 1))] = Fraction(0)
        points[(Fraction(-m - 2), Fraction(-(m + 1)))] = Fraction(0)
        r = _interpolate_uv(points, vmax=m)
        p_plus = V * r
        p_minus = -p_plus.substitute(u=-U - 2, v=-V)
        plus_list.append(p_plus)
        minus_list.append(p_minus)
    return PolySeriesColouring(minus_list, plus_list, order=depth + 1)


# ---------------------------------------------------------------------------
# textual polynomial and colouring configuration


def parse_poly_uv(text: str) -> Poly:
    """Parse a polynomial in u, v with rational coefficients.

    Accepts +, -, *, ^, parentheses and implicit multiplication, e.g.
    "v(u - v + 1)" or "3/2*u^2*v - 1".
    """
    tokens = _tokenize(text)
    pos = [0]

    def peek():
        return tokens[pos[0]] if pos[0] < len(tokens) else None

    def take():
        if pos[0] >= len(tokens):
            raise ValueError("unexpected end of polynomial text")
        t = tokens[pos[0]]
        pos[0] += 1
        return t

    def parse_expr():
        t = peek()
        neg = False
        while t in ("+", "-"):
            take()
            if t == "-":
                neg = not neg
            t = peek()
        out = parse_term()
        if neg:
            out = -out
        while peek() in ("+", "-"):
            op = take()
            rhs = parse_term()
            out = out + rhs if op == "+" else out - rhs
        return out

    def parse_term():
        out = parse_factor()
        while True:
            t = peek()
            if t == "*":
                take()
                out = out * parse_factor()
            elif t is not None and (t == "(" or t in ("u", "v") or
                                    t[0].isdigit()):
                out = out * parse_factor()
            else:
                return out

    def parse_factor():
        base = parse_atom()
        if peek() == "^":
            take()
            expo = take()
            if not expo.isdigit():
                raise ValueError(f"expected an integer exponent, got {expo!r}")
            base = base ** int(expo)
        return base

    def parse_atom():
        t = take()
        if t == "(":
            out = parse_expr()
            if take() != ")":
                raise ValueError("unbalanced parentheses")
            return out
        if t in ("u", "v"):
            return Poly.variable(UV, t)
        if t and (t[0].isdigit()):
            return Poly.constant(UV, Fraction(t))
        raise ValueError(f"unexpected token {t!r}")

    out = parse_expr()
    if pos[0] != len(tokens):
        raise ValueError(f"trailing input at token {tokens[pos[0]]!r}")
    return out


def _tokenize(text: str):
    out = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "+-*^()":
            out.append(c)
            i += 1
        elif c in "uv":
            out.append(c)
            i += 1
        elif c.isdigit():
            j = i
            while j < len(text) and (text[j].isdigit() or text[j] == "/"):
                j += 1
            out.append(text[i:j])
            i = j
        else:
            raise ValueError(f"bad character {c!r} in polynomial")
    return out


def parse_config(text: str) -> dict:
    """key = value lines; later duplicate keys override earlier ones."""
    out = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"expected 'key = value', got {raw!r}")
        key, val = line.split("=", 1)
        out[key.strip()] = val.strip()
    return out


def colouring_from_config(text: str) -> Colouring:
    """Build a colouring from its key-value description.

    Transformer variants reference their components through dotted key
    prefixes, e.g. ``base.variant = classical`` under
    ``variant = isogeny``.
    """
    return _colouring_from_dict(parse_config(text))


def _component(cfg: dict, prefix: str) -> Colouring:
    sub = {key[len(prefix) + 1:]: val for key, val in cfg.items()
           if key.startswith(prefix + ".")}
    if not sub:
        raise ValueError(f"missing component {prefix!r} in the colouring "
                         "configuration")
    return _colouring_from_dict(sub)


def _colouring_from_dict(cfg: dict) -> Colouring:
    variant = cfg.get("variant")
    if variant == "classical":
        return ClassicalColouring()
    if variant == "quantum":
        return QuantumColouring(d=int(cfg.get("d", 1)),
                                order=int(cfg.get("order", 6)))
    if variant == "polyseries":
        order = int(cfg.get("order", 6))
        minus, plus = [], []
        for m in range(order):
            minus.append(parse_poly_uv(cfg[f"minus.{m}"])
                         if f"minus.{m}" in cfg else poly_uv())
            plus.append(parse_poly_uv(cfg[f"plus.{m}"])
                        if f"plus.{m}" in cfg else poly_uv())
        return PolySeriesColouring(minus, plus, order=order)
    if variant == "pointwise":
        table = {}
        for key, val in cfg.items():
            if key.startswith("value."):
                sign, n, k = key.split(".")[1:]
                table[(int(sign), int(n), int(k))] = Fraction(val)
        return PointwiseColouring(table=table)
    if variant == "cartan-dual":
        return cartan_dual(_component(cfg, "base"))
    if variant == "isogeny":
        return IsogenyColouring(_component(cfg, "base"),
                                int(cfg["xi"]), int(cfg.get("d", 0)))
    if variant == "interp":
        return InterpColouring(_component(cfg, "first"),
                               _component(cfg, "second"), int(cfg["xi"]),
                               cfg.get("orientation", "u1"))
    if variant == "specialized":
        return SpecializedColouring(_component(cfg, "base"),
                                    Fraction(cfg["beta"]))
    raise ValueError(f"unknown colouring variant {cfg.get('variant')!r}")


def colouring_to_config(psi: Colouring) -> str:
    """Canonical normal form of a colouring's configuration."""
    return "\n".join(_colouring_lines(psi, "")) + "\n"


def _colouring_lines(psi: Colouring, prefix: str):
    from .polys import format_poly
    def key(name):
        return f"{prefix}.{name}" if prefix else name
    lines = [f"{key('variant')} = {psi.variant}"]
    if isinstance(psi, QuantumColouring):
        lines.append(f"{key('d')} = {psi.d}")
        lines.append(f"{key('order')} = {psi.order}")
    elif isinstance(psi, PolySeriesColouring):
        lines.append(f"{key('order')} = {psi.order}")
        for m, p in enumerate(psi.minus_coeffs):
            if not p.is_zero():
                lines.append(f"{key(f'minus.{m}')} = {format_poly(p)}")
        for m, p in enumerate(psi.plus_coeffs):
            if not p.is_zero():
                lines.append(f"{key(f'plus.{m}')} = {format_poly(p)}")
    elif isinstance(psi, PointwiseColouring):
        for (sign, n, k) in sorted(psi.table):
            lines.append(f"{key(f'value.{sign}.{n}.{k}')} = "
                         f"{psi.table[(sign, n, k)]}")
    elif isinstance(psi, SwappedColouring):
        lines += _colouring_lines(psi.base, key("base"))
    elif isinstance(psi, IsogenyColouring):
        lines.append(f"{key('xi')} = {psi.xi}")
        lines.append(f"{key('d')} = {psi.d}")
        lines += _colouring_lines(psi.base, key("base"))
    elif isinstance(psi, InterpColouring):
        lines.append(f"{key('xi')} = {psi.xi}")
        lines.append(f"{key('orientation')} = {psi.orientation}")
        lines += _colouring_lines(psi.psi, key("first"))
        lines += _colouring_lines(psi.psi_prime, key("second"))
    elif isinstance(psi, SpecializedColouring):
        lines.append(f"{key('beta')} = {psi.beta}")
        lines += _colouring_lines(psi.base, key("base"))
    return lines


def named_colouring(spec: str, order: int = 6) -> Colouring:
    """Resolve a CLI colouring argument: builtin name or @file."""
    if spec.startswith("@"):
        with open(spec[1:], "r", encoding="utf-8") as fh:
            return colouring_from_config(fh.read())
    name, _, arg = spec.partition(":")
    if name == "classical":
        return ClassicalColouring()
    if name == "quantum":
        return QuantumColouring(d=int(arg) if arg else 1, order=order)
    if name == "perturbed-verma":
        one = poly_uv({(0, 0): Fraction(1)})
        return PolySeriesColouring([V, one], [V, one], order=order)
    raise ValueError(f"unknown colouring {spec!r}")


def _interpolate_uv(points, vmax):
    """Minimal canonical polynomial through the given (u,v) -> value map.

    Monomials u^a v^b with b <= vmax enter in (total degree, a) order;
    Gaussian elimination picks the earliest usable columns.
    """
    pts = sorted(points.items())
    npts = len(pts)
    monos = sorted(((a, b) for a in range(0, 2 * max(vmax, 1) + 2)
                    for b in range(0, vmax + 1)),
                   key=lambda ab: (ab[0] + ab[1], ab[0], ab[1]))
    rows = []
    for (pu, pv), val in pts:
        rows.append([pu ** a * pv ** b for (a, b) in monos] + [val])
    # column-pivoted elimination in canonical order
    pivots = []
    r = 0
    for c in range(len(monos)):
        piv = next((i for i in range(r, npts) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        f = Fraction(1) / rows[r][c]
        rows[r] = [x * f for x in rows[r]]
        for i in range(npts):
            if i != r and rows[i][c]:
                g = rows[i][c]
                rows[i] = [x - g * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == npts:
            break
    for i in range(r, npts):
        if rows[i][-1] != 0:
            raise ArithmeticError("inconsistent interpolation constraints")
    coeffs = {}
    for row_i, c in enumerate(pivots):
        val = rows[row_i][-1]
        if val:
            coeffs[monos[c]] = val
    return Poly(UV, coeffs)
