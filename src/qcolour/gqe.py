"""The GQE linear system and its degree-by-degree solver.

The unknown is a column of polynomials M_p(u) with truncated series
coefficients; row (n, p) of the system reads

    sum over a <= p of  M_a(n - 2p + 2a) * F(n,p)!/F(n,p-a)!  =  rhs(n, p)

with F the congruence factorial of the first colouring and rhs the
shifted column built from the second one.  Congruence classes with a
closed bivariate form are solved by exact per-order polynomial division;
pointwise classes fall back to sampling with Lagrange interpolation and
independent validation points.

Each row's ratios are running products: the ratio for a + 1 is the one
for a times the congruence value at k = p - a, and the ratio for a = p
is the factorial F(n,p)!, the closed solver's divisor.  Each solve
evaluates a congruence value once per k (closed) or per (n, k)
(residual check).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .crystal import CongruenceClass, congruence
from .polys import Poly
from .repmod import Operator, WeightModule
from .series import POLY_U, QQ, TruncSeries1, series_div


class GqeDegreeExhausted(RuntimeError):
    """Degree discovery hit its cap; inconclusive, not a refutation."""


class GqeSampleError(RuntimeError):
    """A congruence factorial vanished at h = 0 on a needed sample point."""


@dataclass(frozen=True)
class GqeEquation:
    cong1: CongruenceClass
    cong2: CongruenceClass
    d: int
    order: int = 6
    p_max: int = 24
    n_check: int = 12
    d0: int = 4
    d_max: int = 32
    v_extra: int = 4
    w_tail: int = 3

    @staticmethod
    def build(psi1, psi2, d, order=6, **kw) -> "GqeEquation":
        c1 = psi1 if isinstance(psi1, CongruenceClass) else \
            congruence(psi1, order)
        c2 = psi2 if isinstance(psi2, CongruenceClass) else \
            congruence(psi2, order)
        return GqeEquation(c1.at_order(order), c2.at_order(order), d,
                           order, **kw)


@dataclass
class NoSolution:
    """Exact inconsistency witness: the offending row and h-order."""

    n: int
    p: int
    h_order: int
    message: str = ""

    def __bool__(self):
        return False


@dataclass
class GqeSolution:
    entries: tuple            # TruncSeries1 over Q[u] per index p
    tail: int                 # first index from which entries vanish
    order: int
    degrees: tuple
    residual_checked: int

    def __bool__(self):
        return True

    def entry(self, p: int) -> TruncSeries1:
        if p < len(self.entries):
            return self.entries[p]
        return TruncSeries1.zero(POLY_U, self.order)

    def entry_at(self, p: int, n) -> TruncSeries1:
        """Value of M_p at an integer point, as a rational series."""
        s = self.entry(p)
        return s.map_coeffs(lambda c: c(Fraction(n)), ring=QQ)

    def support(self) -> int:
        for p in range(len(self.entries) - 1, -1, -1):
            if not self.entries[p].is_zero():
                return p + 1
        return 0

    def __repr__(self):
        parts = [f"M_{p} = {e!r}" for p, e in enumerate(self.entries)
                 if not e.is_zero()]
        return "GqeSolution(" + "; ".join(parts) + ", 0, ...)"


def rhs_row(cong2: CongruenceClass, d: int, n: int, p: int) -> TruncSeries1:
    """Row p of the shifted right-hand column at the integer n."""
    k = p - d
    if 0 < k <= n:
        return cong2.value(n, k)
    return TruncSeries1.zero(QQ, cong2.order)


_U = Poly.variable(("u",), "u")


def _subst_u(series: TruncSeries1, shift: int) -> TruncSeries1:
    """M(u) -> M(u + shift) coefficientwise."""
    target = _U + Fraction(shift)
    return series.map_coeffs(lambda c: c.substitute(u=target))


def solve(eq: GqeEquation):
    """Solve the system; a ``GqeSolution`` or an exact ``NoSolution``.

    Closed-form congruences are solved per h-order by exact polynomial
    division, which certifies inconsistencies; pointwise ones go through
    sampled Lagrange interpolation with validation points and doubling
    degree discovery.
    """
    closed = eq.cong1.closed_form is not None and \
        eq.cong2.closed_form is not None
    if closed:
        result = _solve_closed(eq)
    else:
        result = _solve_sampling(eq)
    if isinstance(result, NoSolution):
        return result
    entries, degrees = result
    tail = len(entries)
    while tail and entries[tail - 1].is_zero():
        tail -= 1
    witness = verify_residuals(eq, entries)
    if witness is not None:
        return witness
    checked = (eq.n_check + 1) * (eq.n_check + 2) // 2
    return GqeSolution(tuple(entries[:tail]), tail, eq.order,
                       tuple(degrees[:tail]), checked)


def _solve_closed(eq: GqeEquation):
    entries, degrees = [], []
    values = [None]           # values[k] = [psi1](u, k), k = 1 .. p
    one = TruncSeries1.one(POLY_U, eq.order)
    zeros = 0
    for p in range(eq.p_max + 1):
        if p:
            values.append(eq.cong1.value_poly(p))
        if p - eq.d >= 1:
            rhs = eq.cong2.value_poly(p - eq.d)
        else:
            rhs = TruncSeries1.zero(POLY_U, eq.order)
        acc = rhs
        ratio = one           # F(u,p)!/F(u,p-a)!
        for a in range(p):
            acc = acc - _subst_u(entries[a], -2 * p + 2 * a) * ratio
            ratio = ratio * values[p - a]
        denom = ratio         # a = p: the whole factorial F(u,p)!
        try:
            m_p = series_div(acc, denom)
        except (ArithmeticError, ZeroDivisionError):
            return _pointwise_witness(eq, entries, p)
        if m_p.order < eq.order:
            m_p = m_p.pad(eq.order)
        entries.append(m_p)
        degrees.append(max((c.degree() for c in m_p.coeffs), default=-1))
        zeros = zeros + 1 if m_p.is_zero() else 0
        if zeros >= eq.w_tail:
            return entries, degrees
    raise GqeDegreeExhausted(
        f"no vanishing tail within p_max = {eq.p_max}; inconclusive")


def _forced_value(eq: GqeEquation, entries, p: int, n: int) -> TruncSeries1:
    acc = rhs_row(eq.cong2, eq.d, n, p)
    ratio = TruncSeries1.one(QQ, eq.cong1.order)   # F(n,p)!/F(n,p-a)!
    for a in range(p):
        if a < len(entries):
            acc = acc - entries[a].map_coeffs(
                lambda c: c(Fraction(n - 2 * p + 2 * a)), ring=QQ) * ratio
        ratio = ratio * eq.cong1.value(n, p - a)
    denom = ratio                                  # a = p: F(n,p)!
    if denom.coeffs[0] == 0:
        raise GqeSampleError(
            f"congruence factorial vanishes at h = 0 on row (n={n}, p={p})")
    return series_div(acc, denom)


def _lagrange(points) -> Poly:
    """Exact interpolation through (x, y) pairs, polynomial in u."""
    out = Poly(("u",), {})
    for i, (xi, yi) in enumerate(points):
        if yi == 0:
            continue
        term = Poly.constant(("u",), Fraction(yi))
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            term = term * (_U - Fraction(xj)) * \
                Fraction(1, xi - xj)
        out = out + term
    return out


def _pointwise_witness(eq: GqeEquation, entries, p: int):
    """Locate a row the interpolated polynomial cannot satisfy."""
    width = eq.d_max + eq.v_extra + 1
    vals = {}
    for n in range(p, p + width + 1):
        vals[n] = _forced_value(eq, entries, p, n)
    for m in range(eq.order):
        pts = [(n, vals[n].coeffs[m]) for n in range(p, p + eq.d_max + 1)]
        poly = _lagrange(pts)
        for n in range(p + eq.d_max + 1, p + width + 1):
            if poly(Fraction(n)) != vals[n].coeffs[m]:
                return NoSolution(n, p, m,
                                  "interpolated entry fails at a validation "
                                  "point")
    raise GqeDegreeExhausted(
        f"entry {p}: division failed but no finite witness found")


def _solve_sampling(eq: GqeEquation):
    entries, degrees = [], []
    zeros = 0
    for p in range(eq.p_max + 1):
        deg = eq.d0
        cache = {}
        def val(n):
            if n not in cache:
                cache[n] = _forced_value(eq, entries, p, n)
            return cache[n]
        while True:
            coeffs = []
            ok = True
            first_bad = None
            for m in range(eq.order):
                pts = [(n, val(n).coeffs[m]) for n in range(p, p + deg + 1)]
                poly = _lagrange(pts)
                for n in range(p + deg + 1, p + deg + 1 + eq.v_extra):
                    if poly(Fraction(n)) != val(n).coeffs[m]:
                        ok = False
                        first_bad = (n, m)
                        break
                if not ok:
                    break
                coeffs.append(poly)
            if ok:
                entries.append(TruncSeries1(POLY_U, eq.order, coeffs))
                degrees.append(max((c.degree() for c in coeffs), default=-1))
                break
            if deg >= eq.d_max:
                raise GqeDegreeExhausted(
                    f"entry {p}: no polynomial of degree <= {eq.d_max} "
                    f"matches the sampled values (first failure at "
                    f"n={first_bad[0]}, h-order {first_bad[1]}); "
                    "inconclusive")
            deg = min(2 * deg, eq.d_max)
        zeros = zeros + 1 if entries[-1].is_zero() else 0
        if zeros >= eq.w_tail:
            return entries, degrees
    raise GqeDegreeExhausted(
        f"no vanishing tail within p_max = {eq.p_max}; inconclusive")


def verify_residuals(eq: GqeEquation, entries):
    """Recheck every row (n, p) with p <= n <= n_check; None when clean."""
    one = TruncSeries1.one(QQ, eq.cong1.order)
    for n in range(eq.n_check + 1):
        values = {}           # values[k] = [psi1](n, k), taken once
        for p in range(n + 1):
            lhs = TruncSeries1.zero(QQ, eq.order)
            ratio = one       # F(n,p)!/F(n,p-a)!
            for a in range(min(p, len(entries) - 1) + 1):
                if a:
                    k = p - a + 1
                    if k not in values:
                        values[k] = eq.cong1.value(n, k)
                    ratio = ratio * values[k]
                lhs = lhs + entries[a].map_coeffs(
                    lambda c: c(Fraction(n - 2 * p + 2 * a)), ring=QQ) * \
                    ratio
            rhs = rhs_row(eq.cong2, eq.d, n, p)
            diff = lhs - rhs
            if not diff.is_zero():
                m = diff.valuation()
                return NoSolution(n, p, m, "residual row is nonzero")
    return None


# ---------------------------------------------------------------------------
# derived operators on rank-1 and rank-2 modules


def _diag_for(module: WeightModule, series_poly: TruncSeries1, i: int,
              sign: int = 1) -> Operator:
    """Diagonal operator with entries S(+-<coroot_i, weight>)."""
    vals = []
    for w in module.weights:
        x = sign * module.datum.coroot_pairing(i, w)
        v = series_poly.map_coeffs(lambda c: c(Fraction(x)), ring=QQ)
        vals.append(v.truncate(module.order))
    return Operator.diagonal(vals)


def deformed_commutator_operator(sol: GqeSolution,
                                 module: WeightModule) -> Operator:
    """The finite sum of (X-)^a M_a(H) (X+)^a as one endomorphism."""
    if module.order is None or module.order > sol.order:
        raise ValueError("module truncation exceeds the solution's order")
    xp = module.operator("X0+")
    xm = module.operator("X0-")
    out = Operator.zero(module.dim)
    ident = Operator.identity(module.dim, module.one())
    xma, xpa = ident, ident
    for a in range(sol.support()):
        term = xma.compose(_diag_for(module, sol.entry(a), 0)).compose(xpa)
        out = out + term
        xma = xma.compose(xm)
        xpa = xp.compose(xpa)
    return out


def trivialised_generator(solbar: GqeSolution, module: WeightModule,
                          i: int = 0, sign: int = 1,
                          basis: str = "module") -> Operator:
    """The rewritten raising generator from a degree-0 solution.

    The operator is the sum over a >= 0 of
    (X_i^-)^a Sbar_{a+1}(H_i) (X_i^+)^(a+1) (the mirrored version for
    ``sign = -1``).  With ``basis='classical'`` the result is written in
    the diagonally rescaled basis in which the lowering generator acts
    classically; there it must act by n - p + 1.
    """
    if module.order is None or module.order > solbar.order:
        raise ValueError("module truncation exceeds the solution's order")
    up, down = ("+", "-") if sign == 1 else ("-", "+")
    xp = module.operator(f"X{i}{up}")
    xm = module.operator(f"X{i}{down}")
    out = Operator.zero(module.dim)
    ident = Operator.identity(module.dim, module.one())
    xma = ident
    xpa = xp
    for a in range(max(solbar.support() - 1, 0) + 1):
        coeff = solbar.entry(a + 1)
        term = xma.compose(_diag_for(module, coeff, i, sign)).compose(xpa)
        out = out + term
        xma = xma.compose(xm)
        xpa = xp.compose(xpa)
    if basis == "module":
        return out
    if basis != "classical":
        raise ValueError("basis must be 'module' or 'classical'")
    return _conjugate_to_classical(out, module, i, sign)


def _conjugate_to_classical(op: Operator, module: WeightModule, i: int,
                            sign: int) -> Operator:
    """Conjugate by the diagonal map matching the lowering generator to
    its classical coefficients."""
    down = "-" if sign == 1 else "+"
    xm = module.operator(f"X{i}{down}")
    order = sorted(range(module.dim),
                   key=lambda j: sign * module.datum.coroot_pairing(
                       i, module.weights[j]), reverse=True)
    scale = {order[0]: module.one()}
    for step, j in enumerate(order[:-1]):
        nxt = order[step + 1]
        entry = xm.entry(nxt, j)
        if entry is None:
            scale[nxt] = module.one()
        else:
            prev = scale[j]
            denom = module.scalar(step + 1)
            num = prev * entry
            scale[nxt] = series_div(num, denom) if isinstance(
                num, TruncSeries1) else num / denom
    inv = {}
    for j, v in scale.items():
        if isinstance(v, TruncSeries1):
            if v.coeffs[0] == 0:
                raise ZeroDivisionError(
                    "change of basis not invertible: colouring value with "
                    "zero constant term")
            inv[j] = v.invert()
        else:
            inv[j] = 1 / v
    cols = {}
    for c, entriesc in op.columns.items():
        cols[c] = [(r, inv[r] * v * scale[c]) for r, v in entriesc]
    return Operator(op.dim, cols)


def gqe_serre_residual(module: WeightModule, i: int, j: int,
                       solbar_i: GqeSolution, c_ij: int,
                       sign: int = 1):
    """Lowest h-order with a nonzero entry of the rewritten Serre sum
    (its minimum valuation); None when the sum vanishes.

    Evaluates sum over k + k' = 1 - c_ij of
    (-1)^k C(1-c_ij, k) (tX_i)^k X_j (tX_i)^k' on every basis vector,
    where tX_i is the trivialised generator for colouring i.
    """
    n_tot = 1 - c_ij
    suffix = "+" if sign == 1 else "-"
    txi = trivialised_generator(solbar_i, module, i=i, sign=sign)
    xj = module.operator(f"X{j}{suffix}")
    ident = Operator.identity(module.dim, module.one())
    powers = [ident]
    for _ in range(n_tot):
        powers.append(txi.compose(powers[-1]))
    acc = Operator.zero(module.dim)
    for k in range(n_tot + 1):
        term = powers[k].compose(xj).compose(powers[n_tot - k])
        term = term.scale(module.scalar((-1) ** k * comb(n_tot, k)))
        acc = acc + term
    worst = None
    for c, entriesc in acc.columns.items():
        for r, v in entriesc:
            if isinstance(v, TruncSeries1):
                val = v.valuation()
                if val is not None:
                    worst = val if worst is None else min(worst, val)
            elif v != 0:
                worst = 0
    return worst
