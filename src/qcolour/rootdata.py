"""Generalised Cartan matrices, root data, Weyl combinatorics.

Weights are stored in pairing coordinates of the ambient lattice X; for
the standard realization of a Cartan matrix C the coordinate i of a
weight is its pairing with the i-th simple coroot, simple roots are the
columns of C and simple coroots the unit vectors.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction


def _intify(x):
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


class GcmError(ValueError):
    """A generalised-Cartan-matrix axiom fails; carries axiom and entry."""

    def __init__(self, axiom, entry, message):
        self.axiom = axiom
        self.entry = entry
        super().__init__(message)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CartanMatrix:
    entries: tuple            # tuple of row tuples
    d: tuple                  # symmetrising vector, coprime per component
    symmetrisable: bool = True

    @property
    def rank(self) -> int:
        return len(self.entries)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def transpose(self) -> "CartanMatrix":
        n = self.rank
        t = tuple(tuple(self.entries[j][i] for j in range(n)) for i in range(n))
        return validate_gcm(t)

    def components(self):
        """Connected components of the Dynkin diagram, sorted."""
        n = self.rank
        seen, comps = set(), []
        for s in range(n):
            if s in seen:
                continue
            comp, todo = set(), [s]
            while todo:
                i = todo.pop()
                if i in comp:
                    continue
                comp.add(i)
                todo.extend(j for j in range(n)
                            if j not in comp and self.entries[i][j] != 0)
            seen |= comp
            comps.append(tuple(sorted(comp)))
        return comps

    def symmetrized(self):
        """B = diag(d) C, a symmetric matrix over the integers."""
        if not self.symmetrisable:
            raise GcmError("symmetrisable", None, "matrix is not symmetrisable")
        n = self.rank
        return [[self.d[i] * self.entries[i][j] for j in range(n)]
                for i in range(n)]

    def is_finite_type(self) -> bool:
        """Positive definiteness of the symmetrized matrix."""
        if not self.symmetrisable:
            return False
        b = [[Fraction(x) for x in row] for row in self.symmetrized()]
        n = self.rank
        for k in range(1, n + 1):
            if _det([row[:k] for row in b[:k]]) <= 0:
                return False
        return True

    def __repr__(self):
        rows = "; ".join(",".join(str(x) for x in r) for r in self.entries)
        return f"CartanMatrix[{rows}]"


def _det(m):
    m = [row[:] for row in m]
    n = len(m)
    out = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            out = -out
        out *= m[c][c]
        inv = Fraction(1) / m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] * inv
            for k in range(c, n):
                m[r][k] -= f * m[c][k]
    return out


def validate_gcm(a) -> CartanMatrix:
    """Check the GCM axioms and compute a deterministic symmetrising vector.

    The vector is found by propagating the relation d_i a_ij = d_j a_ji
    over a spanning tree of each component and normalising to coprime
    positive integers per component.
    """
    rows = tuple(tuple(int(x) for x in row) for row in a)
    n = len(rows)
    for i, row in enumerate(rows):
        if len(row) != n:
            raise GcmError("square", (i,), f"row {i} has length {len(row)}, "
                           f"expected {n}")
    for i in range(n):
        if rows[i][i] != 2:
            raise GcmError("diagonal", (i, i),
                           f"entry ({i},{i}) = {rows[i][i]}, expected 2")
    for i in range(n):
        for j in range(n):
            if i != j and rows[i][j] > 0:
                raise GcmError("offdiagonal", (i, j),
                               f"entry ({i},{j}) = {rows[i][j]} is positive")
            if i != j and (rows[i][j] == 0) != (rows[j][i] == 0):
                raise GcmError("zero-pattern", (i, j),
                               f"entries ({i},{j}) and ({j},{i}) do not "
                               "vanish together")
    # symmetriser by tree propagation
    d = [None] * n
    symmetrisable = True
    for s in range(n):
        if d[s] is not None:
            continue
        d[s] = Fraction(1)
        comp = [s]
        todo = [s]
        while todo:
            i = todo.pop()
            for j in range(n):
                if i == j or rows[i][j] == 0:
                    continue
                want = d[i] * Fraction(rows[i][j], rows[j][i])
                if d[j] is None:
                    d[j] = want
                    comp.append(j)
                    todo.append(j)
                elif d[j] != want:
                    symmetrisable = False
        lcm_den = math.lcm(*[x.denominator for x in (d[k] for k in comp)])
        for k in comp:
            d[k] *= lcm_den
        g = math.gcd(*[int(d[k]) for k in comp])
        for k in comp:
            d[k] = int(d[k] // g)
    if symmetrisable:
        for i in range(n):
            for j in range(n):
                if d[i] * rows[i][j] != d[j] * rows[j][i]:
                    symmetrisable = False
    return CartanMatrix(rows, tuple(int(x) for x in d), symmetrisable)


# ---------------------------------------------------------------------------
# built-in finite-type matrices


def _chain(n, low_pairs=()):
    """A-type chain with selected (i, j) entries overridden."""
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = 2
        if i + 1 < n:
            m[i][i + 1] = -1
            m[i + 1][i] = -1
    for (i, j, v) in low_pairs:
        m[i][j] = v
    return m


_CONNECTED = {
    "A1": _chain(1),
    "A2": _chain(2),
    "A3": _chain(3),
    "A4": _chain(4),
    "B2": _chain(2, [(1, 0, -2)]),
    "B3": _chain(3, [(2, 1, -2)]),
    "B4": _chain(4, [(3, 2, -2)]),
    "C2": _chain(2, [(0, 1, -2)]),
    "C3": _chain(3, [(1, 2, -2)]),
    "C4": _chain(4, [(2, 3, -2)]),
    "D4": [[2, 0, -1, 0], [0, 2, -1, 0], [-1, -1, 2, -1], [0, 0, -1, 2]],
    "G2": [[2, -1], [-3, 2]],
    "F4": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -2, 2, -1], [0, 0, -1, 2]],
}


def cartan_by_name(name: str) -> CartanMatrix:
    """Built-in matrix by name; products join factors with 'x'."""
    parts = name.replace("*", "x").split("x")
    mats = []
    for p in parts:
        p = p.strip()
        if p not in _CONNECTED:
            raise KeyError(f"unknown Cartan type {p!r}")
        mats.append(_CONNECTED[p])
    return validate_gcm(direct_sum(*mats))


def direct_sum(*mats):
    n = sum(len(m) for m in mats)
    out = [[0] * n for _ in range(n)]
    off = 0
    for m in mats:
        for i, row in enumerate(m):
            for j, v in enumerate(row):
                out[off + i][off + j] = v
        off += len(m)
    return out


def finite_type_names(max_rank: int):
    """All finite-type matrices (as products of connected types) up to rank."""
    by_rank = {1: ["A1"], 2: ["A2", "B2", "C2", "G2"],
               3: ["A3", "B3", "C3"], 4: ["A4", "B4", "C4", "D4", "F4"]}
    out = []
    def extend(prefix, remaining, min_rank):
        for r in range(min_rank, remaining + 1):
            for t in by_rank.get(r, []):
                name = t if not prefix else prefix + "x" + t
                out.append(name)
                extend(name, remaining - r, r)
    # nondecreasing factor ranks avoid duplicate unordered products
    for total in range(1, max_rank + 1):
        pass
    extend("", max_rank, 1)
    return sorted(set(out), key=lambda s: (len(cartan_by_name(s).entries), s))


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RootDatum:
    """Lattices X, Y with a perfect pairing realizing a Cartan matrix.

    ``roots`` are X-coordinate columns, ``coroots`` Y-coordinate vectors,
    ``pairing`` the matrix of the Y x X pairing.
    """

    cartan: CartanMatrix
    roots: tuple              # tuple of X-coordinate tuples
    coroots: tuple            # tuple of Y-coordinate tuples
    pairing: tuple            # pairing[y][x]
    name: str = ""

    @staticmethod
    def standard(cartan: CartanMatrix, name: str = "") -> "RootDatum":
        n = cartan.rank
        roots = tuple(tuple(cartan.entries[i][j] for i in range(n))
                      for j in range(n))
        coroots = tuple(tuple(1 if k == i else 0 for k in range(n))
                        for i in range(n))
        pairing = tuple(tuple(1 if a == b else 0 for b in range(n))
                        for a in range(n))
        return RootDatum(cartan, roots, coroots, pairing, name)

    @property
    def rank(self) -> int:
        return len(self.pairing[0]) if self.pairing else 0

    @property
    def nroots(self) -> int:
        return self.cartan.rank

    def pair(self, y, x):
        """<y, x>, summed in the entries' own number type.

        An integral result comes back as an int, any other as a Fraction.
        """
        return _intify(sum(
            yi * self.pairing[a][b] * xj
            for a, yi in enumerate(y) for b, xj in enumerate(x)
            if yi and self.pairing[a][b] and xj))

    def coroot_pairing(self, i: int, weight) -> Fraction:
        return self.pair(self.coroots[i], weight)

    def coroot_pairings(self, weight):
        return tuple(self.coroot_pairing(i, weight)
                     for i in range(self.nroots))

    def is_dominant(self, weight) -> bool:
        return all(self.coroot_pairing(i, weight) >= 0
                   for i in range(self.nroots))

    def check(self):
        for i in range(self.nroots):
            for j in range(self.nroots):
                if self.coroot_pairing(i, self.roots[j]) != \
                        self.cartan.entries[i][j]:
                    raise ValueError(
                        f"pairing of coroot {i} with root {j} does not match "
                        "the Cartan matrix")
        return self

    # -- Weyl action ------------------------------------------------------
    def reflect(self, i: int, weight):
        c = self.coroot_pairing(i, weight)
        return tuple(_intify(w - c * r)
                     for w, r in zip(weight, self.roots[i]))

    def shifted_reflect(self, i: int, weight):
        """s_i * lam = s_i(lam + rho) - rho = lam - (<a_i, lam> + 1) a_i."""
        if not self.cartan.is_finite_type():
            raise GcmError("finite-type", None,
                           "shifted Weyl action needs a finite-type datum")
        c = self.coroot_pairing(i, weight) + 1
        return tuple(_intify(w - c * r)
                     for w, r in zip(weight, self.roots[i]))

    def dominant_representative(self, weight):
        w = tuple(weight)
        while True:
            for i in range(self.nroots):
                if self.coroot_pairing(i, w) < 0:
                    w = self.reflect(i, w)
                    break
            else:
                return w

    def weyl_orbit(self, weight):
        seen = {tuple(weight)}
        todo = [tuple(weight)]
        while todo:
            w = todo.pop()
            for i in range(self.nroots):
                r = self.reflect(i, w)
                if r not in seen:
                    seen.add(r)
                    todo.append(r)
        return seen

    # -- inner product (finite type) --------------------------------------
    def pairing_vector(self, weight):
        """All simple-coroot pairings of a weight; realization independent."""
        return self.coroot_pairings(weight)

    @functools.cached_property
    def _cartan_inverse(self):
        """C^-1 over Q as a tuple of row tuples, built on first use."""
        n = self.cartan.rank
        m = [[Fraction(self.cartan.entries[i][j]) for j in range(n)]
             for i in range(n)]
        inv = [[Fraction(1 if i == j else 0) for j in range(n)]
               for i in range(n)]
        for c in range(n):
            piv = next(r for r in range(c, n) if m[r][c] != 0)
            m[c], m[piv] = m[piv], m[c]
            inv[c], inv[piv] = inv[piv], inv[c]
            f = Fraction(1) / m[c][c]
            m[c] = [x * f for x in m[c]]
            inv[c] = [x * f for x in inv[c]]
            for r in range(n):
                if r != c and m[r][c]:
                    g = m[r][c]
                    m[r] = [x - g * y for x, y in zip(m[r], m[c])]
                    inv[r] = [x - g * y for x, y in zip(inv[r], inv[c])]
        return tuple(tuple(row) for row in inv)

    def inner(self, lam, mu):
        """Symmetric W-invariant form with (a_i, a_j) = d_i C_ij.

        Computed through the coroot pairings, so any realization works;
        the arguments are X-coordinate weights.
        """
        return self.inner_pairings(self.pairing_vector(lam),
                                   self.pairing_vector(mu))

    def inner_pairings(self, lp, mp):
        """The same form on coroot-pairing vectors."""
        inv = self._cartan_inverse
        n = self.cartan.rank
        mu_rt = [sum(inv[i][j] * Fraction(mp[j]) for j in range(n))
                 for i in range(n)]
        return sum(Fraction(self.cartan.d[j]) * Fraction(lp[j]) * mu_rt[j]
                   for j in range(n))

    def positive_roots(self):
        """All positive roots in simple-root coordinates (finite type),
        as a sorted tuple shared by every call."""
        return self._positive_roots

    @functools.cached_property
    def _positive_roots(self):
        """The positive roots, built on first use."""
        n = self.cartan.rank
        simple = [tuple(1 if k == i else 0 for k in range(n))
                  for i in range(n)]
        seen = set(simple)
        todo = list(simple)
        while todo:
            m = todo.pop()
            pairing = [sum(self.cartan.entries[i][k] * m[k] for k in range(n))
                       for i in range(n)]
            for i in range(n):
                r = list(m)
                r[i] -= pairing[i]
                r = tuple(r)
                if r not in seen:
                    seen.add(r)
                    todo.append(r)
        return tuple(sorted(m for m in seen if all(x >= 0 for x in m)))

    def root_to_weight(self, root_coords):
        """Simple-root coordinates -> X coordinates."""
        n = self.cartan.rank
        return tuple(_intify(sum(Fraction(self.roots[j][i]) * root_coords[j]
                                 for j in range(n)))
                     for i in range(self.rank))

    def weight_to_root(self, weight):
        """Simple-root coordinates of a root-lattice weight."""
        inv = self._cartan_inverse
        p = self.pairing_vector(weight)
        n = self.cartan.rank
        return tuple(sum(inv[i][j] * Fraction(p[j]) for j in range(n))
                     for i in range(n))

    def weyl_dimension(self, lam) -> int:
        """Dimension of the irreducible with dominant highest weight lam."""
        num, den = Fraction(1), Fraction(1)
        n = self.cartan.rank
        lr = tuple(a + 1 for a in self.pairing_vector(lam))
        rho = (1,) * n
        for alpha in self.positive_roots():
            # (mu, alpha) = sum_j alpha_j d_j <a_j, mu>
            num *= sum(Fraction(alpha[j] * self.cartan.d[j]) * lr[j]
                       for j in range(n))
            den *= sum(Fraction(alpha[j] * self.cartan.d[j]) * rho[j]
                       for j in range(n))
        dim = num / den
        if dim.denominator != 1:
            raise ArithmeticError("Weyl dimension did not come out integral")
        return int(dim)


def shifted_weyl_action(datum: RootDatum, word, weight):
    """Apply s_{i_1} * (s_{i_2} * (... * lam)) for a word of indices."""
    out = tuple(weight)
    for i in reversed(tuple(word)):
        out = datum.shifted_reflect(i, out)
    return out


# ---------------------------------------------------------------------------
# root-lattice combinatorics


def sharp(mu, sign: int) -> int:
    """Number of coordinates of mu (over simple roots) with sign*m_i >= 1."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return sum(1 for m in mu if sign * m >= 1)


def serre_exponent_set(cartan: CartanMatrix):
    """The finite set {a_j - a_l + (1-C_ij) a_i - (1-C_kl) a_k}.

    Deduplicated, deterministically ordered; indices range over i != j
    and k != l.
    """
    n = cartan.rank
    if n < 2:
        raise ValueError("needs at least two Dynkin vertices")
    out = set()
    for i, j, k, l in itertools.product(range(n), repeat=4):
        if i == j or k == l:
            continue
        mu = [0] * n
        mu[j] += 1
        mu[l] -= 1
        mu[i] += 1 - cartan.entries[i][j]
        mu[k] -= 1 - cartan.entries[k][l]
        out.add(tuple(mu))
    return sorted(out)


def in_lower_cone(mu, top) -> bool:
    """mu <= top in the root order: top - mu has nonnegative coordinates."""
    return all(t - m >= 0 for m, t in zip(mu, top))


@dataclass
class LemmaReport:
    name: str
    passed: bool
    checked: int
    counterexample: object = None

    def __bool__(self):
        return self.passed


def check_zero_cone_avoidance(cartan: CartanMatrix) -> LemmaReport:
    """0 avoids the cones D(-a_j + a_k - (1-C_ij) a_i) for all i != j, k."""
    n = cartan.rank
    checked = 0
    for i, j, k in itertools.product(range(n), repeat=3):
        if i == j:
            continue
        top = [0] * n
        top[j] -= 1
        top[k] += 1
        top[i] -= 1 - cartan.entries[i][j]
        checked += 1
        if in_lower_cone((0,) * n, top):
            return LemmaReport("zero-cone", False, checked, (i, j, k))
    return LemmaReport("zero-cone", True, checked)


def check_cone_avoidance(cartan: CartanMatrix) -> LemmaReport:
    """A meets no cone D(-a_j' + a_k' - (1-C_i'j') a_i')."""
    n = cartan.rank
    a_set = serre_exponent_set(cartan)
    checked = 0
    for i, j, k in itertools.product(range(n), repeat=3):
        if i == j:
            continue
        top = [0] * n
        top[j] -= 1
        top[k] += 1
        top[i] -= 1 - cartan.entries[i][j]
        for mu in a_set:
            checked += 1
            if in_lower_cone(mu, top):
                return LemmaReport("cone", False, checked,
                                   {"triple": (i, j, k), "element": mu})
    return LemmaReport("cone", True, checked)


def check_unique_dominant(cartan: CartanMatrix) -> LemmaReport:
    """0 is the only dominant element of the Serre set A."""
    n = cartan.rank
    checked = 0
    for mu in serre_exponent_set(cartan):
        checked += 1
        if all(mu) == 0 and not any(mu):
            continue
        pairings = [sum(cartan.entries[s][i] * mu[i] for i in range(n))
                    for s in range(n)]
        if all(p >= 0 for p in pairings) and any(mu):
            return LemmaReport("unique-dominant", False, checked, mu)
    return LemmaReport("unique-dominant", True, checked)


# ---------------------------------------------------------------------------
# isogenies


@dataclass(frozen=True)
class Isogeny:
    """Lattice map from a source root datum into a target root datum.

    ``matrix`` sends source X-coordinates to target X-coordinates;
    ``xi`` are the positive scalings with xi(alpha'_i) = xi_i alpha_i.
    """

    source: RootDatum
    target: RootDatum
    xi: tuple
    matrix: tuple             # rows: target coords, columns: source coords

    def apply(self, weight):
        return tuple(sum(row[j] * weight[j] for j in range(len(weight)))
                     for row in self.matrix)

    def preimage(self, weight):
        """Source coordinates of a target weight, or None if outside."""
        n = len(self.matrix)
        m = len(self.matrix[0])
        a = [[Fraction(self.matrix[i][j]) for j in range(m)] +
             [Fraction(weight[i])] for i in range(n)]
        # gaussian elimination, exact
        row = 0
        pivots = []
        for col in range(m):
            piv = next((r for r in range(row, n) if a[r][col] != 0), None)
            if piv is None:
                continue
            a[row], a[piv] = a[piv], a[row]
            f = Fraction(1) / a[row][col]
            a[row] = [x * f for x in a[row]]
            for r in range(n):
                if r != row and a[r][col]:
                    g = a[r][col]
                    a[r] = [x - g * y for x, y in zip(a[r], a[row])]
            pivots.append(col)
            row += 1
        if any(any(x != 0 for x in a[r][:m]) is False and a[r][m] != 0
               for r in range(row, n)):
            return None
        sol = [Fraction(0)] * m
        for r, col in enumerate(pivots):
            sol[col] = a[r][m]
        # verify and require integrality
        if self.apply(sol) != tuple(Fraction(w) for w in weight):
            return None
        if any(x.denominator != 1 for x in sol):
            return None
        return tuple(int(x) for x in sol)

    def check(self):
        for i in range(self.source.nroots):
            img = self.apply(self.source.roots[i])
            want = tuple(self.xi[i] * r for r in self.target.roots[i])
            if img != want:
                raise ValueError(f"isogeny does not scale root {i} by xi")
        # transpose condition on coroots
        for i in range(self.target.nroots):
            for j in range(self.source.rank):
                e = tuple(1 if k == j else 0 for k in range(self.source.rank))
                lhs = self.target.pair(self.target.coroots[i], self.apply(e))
                rhs = self.xi[i] * self.source.pair(self.source.coroots[i], e)
                if lhs != rhs:
                    raise ValueError(
                        f"transpose of the isogeny does not scale coroot {i}")
        return self

    @staticmethod
    def identity(datum: RootDatum) -> "Isogeny":
        n = datum.rank
        eye = tuple(tuple(1 if i == j else 0 for j in range(n))
                    for i in range(n))
        return Isogeny(datum, datum, (1,) * datum.nroots, eye).check()


def langlands_dual(datum: RootDatum):
    """Dual datum on the transposed matrix plus the embedding isogeny.

    The scalings are xi_i = d / d_i with d the lcm of the symmetrisers;
    the dual weight lattice embeds as {lam : <a_i, lam> in xi_i Z}.
    Only standard realizations are supported.
    """
    if not datum.cartan.symmetrisable:
        raise GcmError("symmetrisable", None,
                       "Langlands dual needs a symmetrisable matrix")
    if datum.pairing != RootDatum.standard(datum.cartan).pairing or \
            datum.roots != RootDatum.standard(datum.cartan).roots:
        raise ValueError("Langlands dual implemented for standard realizations")
    d = math.lcm(*datum.cartan.d)
    xi = tuple(d // di for di in datum.cartan.d)
    dual_cartan = datum.cartan.transpose()
    dual = RootDatum.standard(dual_cartan,
                              name=(datum.name + "^L") if datum.name else "")
    n = datum.cartan.rank
    matrix = tuple(tuple(xi[i] if i == j else 0 for j in range(n))
                   for i in range(n))
    iso = Isogeny(dual, datum, xi, matrix).check()
    return dual, iso


# -- rank-1 conveniences ------------------------------------------------------


def sl2_weight_datum() -> RootDatum:
    """X the weight lattice: coordinate is the coroot pairing, root = 2."""
    return RootDatum.standard(cartan_by_name("A1"), name="sl2")


def sl2_adjoint_datum() -> RootDatum:
    """X the root lattice: the root is a basis vector, coroot pairs to 2."""
    c = cartan_by_name("A1")
    return RootDatum(c, roots=((1,),), coroots=((2,),), pairing=((1,),),
                     name="sl2-adjoint").check()


def rank1_isogeny(xi: int, source: str = "weight") -> Isogeny:
    """Scaling isogeny into the rank-1 weight datum.

    ``source='weight'`` uses a weight-lattice source (image: pairings in
    xi Z); ``source='adjoint'`` a root-lattice source (image: pairings
    in 2 xi Z).
    """
    target = sl2_weight_datum()
    if source == "weight":
        src = sl2_weight_datum()
        matrix = ((xi,),)
    elif source == "adjoint":
        src = sl2_adjoint_datum()
        matrix = ((2 * xi,),)
    else:
        raise ValueError("source must be 'weight' or 'adjoint'")
    return Isogeny(src, target, (xi,), matrix).check()
