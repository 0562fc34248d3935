"""Weight modules with sparse generator actions, characters, Freudenthal
multiplicities and character-level Langlands duality."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .crystal import Colouring
from .rootdata import Isogeny, RootDatum, sl2_weight_datum
from .series import QQ, TruncSeries1


class Operator:
    """Sparse linear map on a module basis: column index -> [(row, coeff)]."""

    __slots__ = ("columns", "dim")

    def __init__(self, dim, columns=None):
        self.dim = dim
        self.columns = {}
        for c, entries in (columns or {}).items():
            cleaned = [(r, v) for r, v in entries if v]
            if cleaned:
                self.columns[c] = cleaned

    @staticmethod
    def zero(dim):
        return Operator(dim)

    @staticmethod
    def identity(dim, one):
        return Operator(dim, {i: [(i, one)] for i in range(dim)})

    @staticmethod
    def diagonal(values):
        return Operator(len(values),
                        {i: [(i, v)] for i, v in enumerate(values)})

    def compose(self, other: "Operator") -> "Operator":
        """self after other."""
        out = {}
        for c, entries in other.columns.items():
            acc = {}
            for mid, v in entries:
                for r, w in self.columns.get(mid, ()):
                    s = acc.get(r)
                    acc[r] = w * v if s is None else s + w * v
            bucket = [(r, v) for r, v in sorted(acc.items()) if v]
            if bucket:
                out[c] = bucket
        return Operator(self.dim, out)

    def __mul__(self, other):
        if isinstance(other, Operator):
            return self.compose(other)
        return self.scale(other)

    def scale(self, c) -> "Operator":
        return Operator(self.dim, {col: [(r, v * c) for r, v in entries]
                                   for col, entries in self.columns.items()})

    def __add__(self, other: "Operator") -> "Operator":
        out = {}
        for c in set(self.columns) | set(other.columns):
            acc = {}
            for r, v in list(self.columns.get(c, ())) + \
                    list(other.columns.get(c, ())):
                s = acc.get(r)
                acc[r] = v if s is None else s + v
            bucket = [(r, v) for r, v in sorted(acc.items()) if v]
            if bucket:
                out[c] = bucket
        return Operator(self.dim, out)

    def __neg__(self):
        return Operator(self.dim, {c: [(r, -v) for r, v in e]
                                   for c, e in self.columns.items()})

    def __sub__(self, other):
        return self + (-other)

    def power(self, k: int) -> "Operator":
        if k == 0:
            raise ValueError("identity power needs an explicit ring one")
        out = self
        for _ in range(k - 1):
            out = out.compose(self)
        return out

    def is_zero(self) -> bool:
        return not self.columns

    def entry(self, r, c):
        for rr, v in self.columns.get(c, ()):
            if rr == r:
                return v
        return None

    def __eq__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        return (self - other).is_zero()

    def __repr__(self):
        return f"Operator(dim={self.dim}, cols={len(self.columns)})"


@dataclass
class WeightModule:
    """Finite weighted basis with sparse generator actions.

    ``weights`` are pairing-coordinate tuples in the datum's lattice X;
    diagonal actions of Y are derived from them.  ``actions`` maps
    generator names ("X0+", "X0-", ...) to operators.
    """

    datum: RootDatum
    labels: tuple
    weights: tuple
    actions: dict
    ring: object = QQ
    order: int = None         # truncation when ring values are series

    @property
    def dim(self):
        return len(self.labels)

    def one(self):
        if self.order is not None:
            return TruncSeries1.one(self.ring, self.order)
        return self.ring.one()

    def scalar(self, q):
        if self.order is not None:
            return TruncSeries1.constant(self.ring,
                                         self.ring.embed(Fraction(q)),
                                         self.order)
        return self.ring.embed(Fraction(q))

    def operator(self, name) -> Operator:
        if name in self.actions:
            return self.actions[name]
        if name.startswith("H"):
            i = int(name[1:]) if len(name) > 1 else 0
            vals = [self.scalar(self.datum.coroot_pairing(i, w))
                    for w in self.weights]
            return Operator.diagonal(vals)
        raise KeyError(f"no generator named {name!r}")

    def coroot_values(self, i):
        return [self.datum.coroot_pairing(i, w) for w in self.weights]


# ---------------------------------------------------------------------------


def build_L(n: int, psi: Colouring, order: int = None) -> WeightModule:
    """The rank-1 module on b_{n,0..n} with edge coefficients from psi.

    H b_p = (n-2p) b_p, the lowering generator uses psi^-(n, p+1) and the
    raising one psi^+(n, n-p+1).
    """
    datum = sl2_weight_datum()
    labels = tuple(f"b{n},{p}" for p in range(n + 1))
    weights = tuple((n - 2 * p,) for p in range(n + 1))
    sample = psi.value(-1, max(n, 1), 1) if n >= 1 else Fraction(1)
    if isinstance(sample, TruncSeries1):
        ring, k = sample.ring, sample.order
        if order is not None:
            k = min(k, order)
        def lift(v):
            return v.truncate(k)
    else:
        ring, k = QQ, order
        if k is not None:
            def lift(v):
                return TruncSeries1.constant(QQ, Fraction(v), k)
        else:
            def lift(v):
                return Fraction(v)
    lower = {}
    raise_ = {}
    for p in range(n + 1):
        if p < n:
            lower[p] = [(p + 1, lift(psi.minus(n, p + 1)))]
        if p > 0:
            raise_[p] = [(p - 1, lift(psi.plus(n, n - p + 1)))]
    m = WeightModule(datum, labels, weights,
                     {"X0-": Operator(n + 1, lower),
                      "X0+": Operator(n + 1, raise_)},
                     ring=ring, order=k)
    m.actions["X-"] = m.actions["X0-"]
    m.actions["X+"] = m.actions["X0+"]
    return m


@dataclass
class RelationReport:
    passed: bool
    failures: list = field(default_factory=list)

    def __bool__(self):
        return self.passed


def verify_ladder_relations(m: WeightModule) -> RelationReport:
    """Exact check of the non-deformable relations on the basis.

    Weight shifts by +-alpha_i for the ladder generators (equivalently
    [mu, X_i+-] = +-<mu, alpha_i> X_i+-), commuting Y, and
    [X_i+, X_j-] = 0 for i != j.
    """
    failures = []
    nr = m.datum.nroots
    for i in range(nr):
        for sign, suffix in ((1, "+"), (-1, "-")):
            name = f"X{i}{suffix}"
            if name not in m.actions:
                continue
            op = m.actions[name]
            alpha = m.datum.roots[i]
            for c, entries in op.columns.items():
                want = tuple(w + sign * a
                             for w, a in zip(m.weights[c], alpha))
                for r, v in entries:
                    if m.weights[r] != want:
                        failures.append(
                            (name, m.labels[c],
                             f"weight {m.weights[r]} != {want}"))
    for i in range(nr):
        for j in range(nr):
            if i == j:
                continue
            pi, mj = f"X{i}+", f"X{j}-"
            if pi in m.actions and mj in m.actions:
                comm = m.actions[pi].compose(m.actions[mj]) - \
                    m.actions[mj].compose(m.actions[pi])
                if not comm.is_zero():
                    col = next(iter(comm.columns))
                    failures.append((f"[{pi},{mj}]", m.labels[col],
                                     "nonzero commutator"))
    return RelationReport(not failures, failures)


# ---------------------------------------------------------------------------
# characters


def character(m: WeightModule) -> dict:
    """Finitely supported weight -> multiplicity map."""
    out = {}
    for w in m.weights:
        key = tuple(int(x) for x in w)
        out[key] = out.get(key, 0) + 1
    return out


def add_characters(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def isogeny_restrict(m: WeightModule, iso: Isogeny) -> WeightModule:
    """Submodule on weights in the isogeny image, recoordinated.

    The i-th ladder generators act through their xi_i-th powers; the
    resulting character is the original one composed with the embedding.
    """
    keep = []
    new_weights = []
    for idx, w in enumerate(m.weights):
        pre = iso.preimage(tuple(int(x) for x in w))
        if pre is not None:
            keep.append(idx)
            new_weights.append(pre)
    pos = {old: new for new, old in enumerate(keep)}
    actions = {}
    for i in range(iso.source.nroots):
        for suffix in ("+", "-"):
            name = f"X{i}{suffix}"
            if name not in m.actions:
                continue
            op = m.actions[name].power(iso.xi[i]) if iso.xi[i] >= 1 \
                else m.actions[name]
            cols = {}
            for c, entries in op.columns.items():
                if c not in pos:
                    continue
                bucket = []
                for r, v in entries:
                    if r not in pos:
                        raise ValueError(
                            "power of a ladder operator left the "
                            "restricted weight lattice")
                    bucket.append((pos[r], v))
                if bucket:
                    cols[pos[c]] = bucket
            actions[name] = Operator(len(keep), cols)
    out = WeightModule(iso.source,
                       tuple(m.labels[i] for i in keep),
                       tuple(new_weights), actions,
                       ring=m.ring, order=m.order)
    if iso.source.nroots == 1:
        out.actions.setdefault("X-", out.actions.get("X0-"))
        out.actions.setdefault("X+", out.actions.get("X0+"))
    return out


def restrict_character(chi: dict, iso: Isogeny) -> dict:
    """Character restriction to the embedded sublattice, recoordinated."""
    out = {}
    for w, mult in chi.items():
        pre = iso.preimage(w)
        if pre is not None:
            out[pre] = out.get(pre, 0) + mult
    return out


# ---------------------------------------------------------------------------
# Freudenthal multiplicities


def freudenthal_char(datum: RootDatum, lam) -> dict:
    """Weight multiplicities of the finite-type irreducible L(lam).

    Freudenthal's recursion over descending weights mu = lam - beta,
    beta = sum cs_j a_j, in the symmetrised form (a_i, a_j) = d_i C_ij:

        ((lam+rho)^2 - (mu+rho)^2) m(mu)
            = 2 sum_{alpha > 0, k >= 1} m(mu + k alpha) (mu + k alpha, alpha).

    Since (x, a_j) = d_j <a_j^v, x> for every weight x, both sides are
    integers: the left factor is 2 (lam+rho, beta) - (beta, beta) with
    (lam+rho, a_j) = d_j (<a_j^v, lam> + 1), and each right term is
    (lam, alpha) - (beta, alpha) + k (alpha, alpha).  The recursion is
    therefore pure integer arithmetic, and a non-zero remainder of the
    final division raises instead of rounding.  It runs on coroot
    pairings and simple-root displacements, so any lattice realization
    works; the result is keyed by X coordinates and its total is
    cross-checked against the Weyl dimension formula.
    """
    lam = tuple(int(x) for x in lam)
    if not datum.cartan.is_finite_type():
        raise ValueError("Freudenthal needs a finite-type datum")
    if not datum.is_dominant(lam):
        raise ValueError(f"{lam} is not dominant")
    n = datum.cartan.rank
    cm, d = datum.cartan.entries, datum.cartan.d
    p0 = datum.pairing_vector(lam)
    # gram[j][k] = (a_j, a_k); lam_rho[j] = (lam + rho, a_j)
    gram = tuple(tuple(d[j] * cm[j][k] for k in range(n)) for j in range(n))
    lam_rho = tuple(d[j] * (p0[j] + 1) for j in range(n))

    def xcoords(cs):
        return tuple(
            int(lam[i] - sum(datum.roots[j][i] * cs[j] for j in range(n)))
            for i in range(datum.rank))

    # box bound: weights lie between w0(lam) and lam in the root order
    w0lam = tuple(-x for x in datum.dominant_representative(
        tuple(-x for x in lam)))
    span = datum.weight_to_root(tuple(a - b for a, b in zip(lam, w0lam)))
    box = []
    for x in span:
        if x.denominator != 1 or x < 0:
            raise ArithmeticError("weight box is not integral")
        box.append(int(x))
    # per positive root alpha: its support, (a_j, alpha), (lam, alpha)
    # and (alpha, alpha)
    pos_roots = []
    for alpha in datum.positive_roots():
        ga = tuple(sum(gram[j][k] * alpha[k] for k in range(n))
                   for j in range(n))
        pos_roots.append((alpha,
                          tuple((j, a) for j, a in enumerate(alpha) if a),
                          ga,
                          sum(a * d[j] * p0[j] for j, a in enumerate(alpha)),
                          sum(a * g for a, g in zip(alpha, ga))))
    mult = {(0,) * n: 1}
    # iterate by height of lam - mu
    layers = {}
    for cs in product(*[range(b + 1) for b in box]):
        layers.setdefault(sum(cs), []).append(cs)
    for h in sorted(layers):
        if h == 0:
            continue
        for cs in layers[h]:
            beta_a = tuple(sum(g * c for g, c in zip(row, cs))
                           for row in gram)
            denom = 2 * sum(c * x for c, x in zip(cs, lam_rho)) - \
                sum(c * x for c, x in zip(cs, beta_a))
            if denom <= 0:
                continue
            acc = 0
            for alpha, support, ga, lam_alpha, alpha_alpha in pos_roots:
                mu_alpha = lam_alpha - sum(c * g for c, g in zip(cs, ga))
                for k in range(1, min(cs[j] // a for j, a in support) + 1):
                    mk = mult.get(tuple(c - k * a for c, a in zip(cs, alpha)))
                    if mk:
                        acc += mk * (mu_alpha + k * alpha_alpha)
            val, rem = divmod(2 * acc, denom)
            if rem:
                raise ArithmeticError("non-integral multiplicity")
            if val:
                mult[cs] = val
    out = {}
    for cs, mval in mult.items():
        key = xcoords(cs)
        out[key] = out.get(key, 0) + mval
    total = sum(out.values())
    if total != datum.weyl_dimension(lam):
        raise ArithmeticError(
            f"multiplicity total {total} disagrees with the Weyl "
            f"dimension {datum.weyl_dimension(lam)}")
    return out


def is_weyl_symmetric(datum: RootDatum, chi: dict) -> bool:
    """chi is constant on Weyl orbits.

    The simple reflections generate W, so it suffices that every simple
    reflection of every support weight carries the same multiplicity.
    """
    for w, mval in chi.items():
        for i in range(datum.nroots):
            key = tuple(int(x) for x in datum.reflect(i, w))
            if chi.get(key, 0) != mval:
                return False
    return True


def decompose_into_irreducibles(chi: dict, datum: RootDatum) -> dict:
    """Multiplicities of irreducibles in a Weyl-symmetric character.

    Greedy peel from dominance-maximal support; exact, errors on any
    negative coefficient.
    """
    if not is_weyl_symmetric(datum, chi):
        raise ValueError("character is not Weyl symmetric")
    work = {k: v for k, v in chi.items() if v}
    # a peel adds no weight to the support without raising below, so the
    # heights of the initial support are all the peels need
    height = {w: sum(datum.weight_to_root(w)) for w in work}
    out = {}
    while work:
        # a maximal-height support weight is dominant for symmetric chi
        top = max(work, key=lambda w: (height[w], w))
        if not datum.is_dominant(top):
            raise ValueError(f"maximal support weight {top} not dominant")
        mult = work[top]
        if mult < 0:
            raise ValueError(f"negative coefficient at {top}")
        out[top] = out.get(top, 0) + mult
        irr = freudenthal_char(datum, top)
        for w, mval in irr.items():
            s = work.get(w, 0) - mult * mval
            if s:
                work[w] = s
            else:
                work.pop(w, None)
        if any(v < 0 for v in work.values()):
            bad = next(w for w, v in work.items() if v < 0)
            raise ValueError(f"negative coefficient at {bad} while peeling")
    return out


# ---------------------------------------------------------------------------
# built-in rank-2 modules


def a2_vector_module(kind: str = "classical", order: int = 6,
                     d=(1, 1)) -> WeightModule:
    """Three-dimensional module of the rank-2 type-A datum.

    Basis v1, v2, v3 with weights (1,0), (-1,1), (0,-1); the raising
    actions are the elementary shifts v2 -> v1 and v3 -> v2.  The
    classical and quantum actions coincide because every ladder string
    has length two.
    """
    from .rootdata import RootDatum, cartan_by_name
    datum = RootDatum.standard(cartan_by_name("A2"), name="A2")
    labels = ("v1", "v2", "v3")
    weights = ((1, 0), (-1, 1), (0, -1))
    if kind == "classical":
        ring, k = QQ, None
        one = Fraction(1)
    elif kind == "quantum":
        ring, k = QQ, order
        one = TruncSeries1.one(QQ, order)
    else:
        raise ValueError("kind must be 'classical' or 'quantum'")
    acts = {
        "X0+": Operator(3, {1: [(0, one)]}),
        "X0-": Operator(3, {0: [(1, one)]}),
        "X1+": Operator(3, {2: [(1, one)]}),
        "X1-": Operator(3, {1: [(2, one)]}),
    }
    return WeightModule(datum, labels, weights, acts, ring=ring, order=k)
