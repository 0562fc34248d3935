import itertools
import random
from fractions import Fraction

import pytest

from qcolour import repmod
from qcolour.crystal import ClassicalColouring, QuantumColouring, congruence
from qcolour.repmod import (WeightModule, a2_vector_module, add_characters,
                            build_L, character, decompose_into_irreducibles,
                            freudenthal_char, is_weyl_symmetric,
                            isogeny_restrict, restrict_character,
                            verify_ladder_relations)
from qcolour.rootdata import (Isogeny, RootDatum, cartan_by_name,
                              langlands_dual, rank1_isogeny,
                              sl2_adjoint_datum, sl2_weight_datum,
                              validate_gcm)
from qcolour.series import QQ, TruncSeries1

CL = ClassicalColouring()
QU = QuantumColouring(order=6)


def test_build_L_trivial():
    m = build_L(0, CL)
    assert m.dim == 1
    assert m.operator("X+").is_zero() and m.operator("X-").is_zero()


def test_build_L_product_examples():
    m = build_L(2, CL)
    assert m.operator("X+").compose(m.operator("X-")).entry(0, 0) == 2
    mq = build_L(1, QU)
    assert mq.operator("X+").compose(mq.operator("X-")).entry(0, 0) == \
        TruncSeries1.one(QQ, 6)


def test_ladder_diagonals_are_congruence_values():
    cong = congruence(QU, 6)
    for n in (1, 3, 5):
        m = build_L(n, QU)
        xp, xm = m.operator("X+"), m.operator("X-")
        plus_minus = xp.compose(xm)
        minus_plus = xm.compose(xp)
        for p in range(n + 1):
            want_pm = cong.value(n, p + 1) if p < n else None
            want_mp = cong.value(n, p) if p > 0 else None
            if p < n:
                assert plus_minus.entry(p, p) == want_pm
            if p > 0:
                assert minus_plus.entry(p, p) == want_mp


def test_relations_pass_and_detect_corruption():
    m = build_L(4, QU)
    assert verify_ladder_relations(m).passed
    bad = WeightModule(m.datum, m.labels,
                       ((99,),) + tuple(m.weights[1:]), m.actions,
                       m.ring, m.order)
    report = verify_ladder_relations(bad)
    assert not report.passed and report.failures


def test_character_examples():
    assert character(build_L(3, CL)) == {(3,): 1, (1,): 1, (-1,): 1, (-3,): 1}
    assert character(build_L(0, CL)) == {(0,): 1}
    a = character(build_L(2, CL))
    b = character(build_L(0, CL))
    assert add_characters(a, b) == {(2,): 1, (0,): 2, (-2,): 1}


def test_isogeny_restrict_examples():
    iso = rank1_isogeny(2, "adjoint")
    m4 = build_L(4, CL)
    r = isogeny_restrict(m4, iso)
    assert [str(x) for x in r.labels] == ["b4,0", "b4,2", "b4,4"]
    assert r.coroot_values(0) == [2, 0, -2]
    assert isogeny_restrict(build_L(3, CL), iso).dim == 0
    ide = Isogeny.identity(sl2_weight_datum())
    assert character(isogeny_restrict(m4, ide)) == character(m4)


def test_isogeny_restrict_powers_act():
    iso = rank1_isogeny(2, "adjoint")
    m = isogeny_restrict(build_L(4, CL), iso)
    assert verify_ladder_relations(m).passed
    # (X-)^2 sends b4,0 to 2 b4,2 classically (1*2)
    assert m.operator("X0-").entry(1, 0) == 2


def test_character_functoriality_random():
    rng = random.Random(17)
    for _ in range(120):
        n = rng.randrange(0, 13)
        xi = rng.choice((1, 2, 3))
        src = rng.choice(("weight", "adjoint"))
        iso = rank1_isogeny(xi, src)
        m = build_L(n, CL)
        assert character(isogeny_restrict(m, iso)) == \
            restrict_character(character(m), iso)


def test_freudenthal_small_examples():
    a1 = RootDatum.standard(cartan_by_name("A1"))
    assert freudenthal_char(a1, (2,)) == {(2,): 1, (0,): 1, (-2,): 1}
    b2 = RootDatum.standard(cartan_by_name("B2"))
    assert sum(freudenthal_char(b2, (1, 0)).values()) == 5
    assert freudenthal_char(b2, (0, 0)) == {(0, 0): 1}
    a2 = RootDatum.standard(cartan_by_name("A2"))
    adj = freudenthal_char(a2, (1, 1))
    assert sum(adj.values()) == 8 and adj[(0, 0)] == 2


def test_freudenthal_rejects_bad_input():
    b2 = RootDatum.standard(cartan_by_name("B2"))
    with pytest.raises(ValueError):
        freudenthal_char(b2, (-1, 0))
    aff = RootDatum.standard(
        __import__("qcolour.rootdata", fromlist=["validate_gcm"])
        .validate_gcm([[2, -2], [-2, 2]]))
    with pytest.raises(ValueError):
        freudenthal_char(aff, (1, 0))


def test_freudenthal_weyl_symmetric_and_total():
    for nm in ("A1", "A2", "B2", "G2"):
        datum = RootDatum.standard(cartan_by_name(nm))
        rank = datum.cartan.rank
        lams = []
        if rank == 1:
            lams = [(h,) for h in range(7)]
        else:
            lams = [(a, b) for a in range(7) for b in range(7 - a)]
        for lam in lams:
            chi = freudenthal_char(datum, lam)
            assert is_weyl_symmetric(datum, chi), (nm, lam)
            assert sum(chi.values()) == datum.weyl_dimension(lam), (nm, lam)


def test_decompose_examples():
    a1 = RootDatum.standard(cartan_by_name("A1"))
    chi = freudenthal_char(a1, (2,))
    assert decompose_into_irreducibles(chi, a1) == {(2,): 1}
    both = add_characters(chi, freudenthal_char(a1, (0,)))
    assert decompose_into_irreducibles(both, a1) == {(2,): 1, (0,): 1}
    with pytest.raises(ValueError):
        decompose_into_irreducibles({(1,): 1}, a1)


def test_langlands_containment_height_4():
    datum = RootDatum.standard(cartan_by_name("B2"))
    dual, iso = langlands_dual(datum)
    for h1 in range(5):
        for h2 in range(5 - h1):
            lam_dual = (h1, h2)
            lam = iso.apply(lam_dual)
            chi = freudenthal_char(datum, lam)
            dec = decompose_into_irreducibles(
                restrict_character(chi, iso), dual)
            assert all(v >= 0 for v in dec.values())
            assert dec.get(lam_dual, 0) >= 1


def test_freudenthal_on_nonstandard_realization():
    # the adjoint rank-1 datum stores weights in root coordinates; the
    # recursion must run on the true coroot pairings
    from qcolour.rootdata import sl2_adjoint_datum
    adj = sl2_adjoint_datum()
    chi = freudenthal_char(adj, (4,))      # 4 alpha, pairing value 8
    assert chi == {(c,): 1 for c in range(-4, 5)}
    assert adj.weyl_dimension((4,)) == 9
    assert decompose_into_irreducibles(chi, adj) == {(4,): 1}


def test_rank1_langlands_dual_char_examples():
    # odd scaling keeps one string, even scaling splits in two
    iso3 = rank1_isogeny(3, "weight")
    chi6 = character(build_L(6, CL))
    assert restrict_character(chi6, iso3) == {(2,): 1, (0,): 1, (-2,): 1}
    iso2 = rank1_isogeny(2, "weight")
    chi4 = character(build_L(4, CL))
    assert restrict_character(chi4, iso2) == \
        {(2,): 1, (1,): 1, (0,): 1, (-1,): 1, (-2,): 1}
    assert restrict_character({(0,): 1}, iso2) == {(0,): 1}


def test_a2_modules():
    for kind in ("classical", "quantum"):
        m = a2_vector_module(kind)
        assert verify_ladder_relations(m).passed
        assert character(m) == {(1, 0): 1, (-1, 1): 1, (0, -1): 1}


# ---------------------------------------------------------------------------
# reference oracle: Freudenthal's recursion over Fractions, with the form
# (lam, mu) = sum_j d_j <a_j^v, lam> (C^-1 <a^v, mu>)_j built from an
# explicit Gauss-Jordan inverse of the Cartan matrix


def _fraction_cartan_inverse(cartan):
    n = cartan.rank
    m = [[Fraction(x) for x in row] for row in cartan.entries]
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for c in range(n):
        piv = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[piv] = m[piv], m[c]
        inv[c], inv[piv] = inv[piv], inv[c]
        f = 1 / m[c][c]
        m[c] = [x * f for x in m[c]]
        inv[c] = [x * f for x in inv[c]]
        for r in range(n):
            if r != c and m[r][c]:
                g = m[r][c]
                m[r] = [x - g * y for x, y in zip(m[r], m[c])]
                inv[r] = [x - g * y for x, y in zip(inv[r], inv[c])]
    return inv


def _fraction_pairings(datum, weight):
    return tuple(sum((Fraction(y) * datum.pairing[a][b] * Fraction(x)
                      for a, y in enumerate(coroot)
                      for b, x in enumerate(weight)), Fraction(0))
                 for coroot in datum.coroots)


def _fraction_inner(datum, inv, lp, mp):
    n = datum.cartan.rank
    mu_rt = [sum(inv[i][j] * Fraction(mp[j]) for j in range(n))
             for i in range(n)]
    return sum(Fraction(datum.cartan.d[j]) * Fraction(lp[j]) * mu_rt[j]
               for j in range(n))


def _fraction_weight_to_root(datum, inv, weight):
    p = _fraction_pairings(datum, weight)
    n = datum.cartan.rank
    return tuple(sum(inv[i][j] * p[j] for j in range(n)) for i in range(n))


def _fraction_freudenthal(datum, lam):
    n = datum.cartan.rank
    cm = datum.cartan.entries
    inv = _fraction_cartan_inverse(datum.cartan)
    p0 = _fraction_pairings(datum, lam)

    def pvec(cs):
        return tuple(p0[i] - sum(cm[i][j] * cs[j] for j in range(n))
                     for i in range(n))

    w0lam = tuple(-x for x in datum.dominant_representative(
        tuple(-x for x in lam)))
    span = _fraction_weight_to_root(
        datum, inv, tuple(a - b for a, b in zip(lam, w0lam)))
    assert all(x.denominator == 1 and x >= 0 for x in span)
    pos = datum.positive_roots()
    root_pairings = {alpha: tuple(sum(cm[i][j] * alpha[j] for j in range(n))
                                  for i in range(n)) for alpha in pos}
    lam_rho = tuple(a + 1 for a in p0)
    norm_top = _fraction_inner(datum, inv, lam_rho, lam_rho)
    mult = {(0,) * n: 1}
    boxes = itertools.product(*[range(int(x) + 1) for x in span])
    for cs in sorted(boxes, key=sum)[1:]:
        mu_rho = tuple(a + 1 for a in pvec(cs))
        denom = norm_top - _fraction_inner(datum, inv, mu_rho, mu_rho)
        if denom <= 0:
            continue
        acc = Fraction(0)
        for alpha in pos:
            k = 1
            while all(c - k * a >= 0 for c, a in zip(cs, alpha)):
                cs_up = tuple(c - k * a for c, a in zip(cs, alpha))
                mk = mult.get(cs_up)
                if mk:
                    acc += mk * _fraction_inner(
                        datum, inv, pvec(cs_up), root_pairings[alpha])
                k += 1
        val = 2 * acc / denom
        assert val.denominator == 1
        if val:
            mult[cs] = int(val)
    out = {}
    for cs, mval in mult.items():
        key = tuple(int(lam[i] - sum(datum.roots[j][i] * cs[j]
                                     for j in range(n)))
                    for i in range(datum.rank))
        out[key] = out.get(key, 0) + mval
    return out


def _dominant_weights(rank, height):
    return [w for w in itertools.product(range(height + 1), repeat=rank)
            if sum(w) <= height]


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "B2", "C2", "G2",
                                  "B3", "C3"])
def test_freudenthal_matches_fraction_oracle(name):
    datum = RootDatum.standard(cartan_by_name(name), name)
    for lam in _dominant_weights(datum.cartan.rank, 2):
        assert freudenthal_char(datum, lam) == \
            _fraction_freudenthal(datum, lam), (name, lam)


def test_freudenthal_oracle_nonstandard_and_dual_data():
    adj = sl2_adjoint_datum()
    for h in range(5):
        assert freudenthal_char(adj, (h,)) == \
            _fraction_freudenthal(adj, (h,)), h
    for name in ("B2", "G2"):
        dual, _ = langlands_dual(RootDatum.standard(cartan_by_name(name)))
        for lam in _dominant_weights(2, 3):
            assert freudenthal_char(dual, lam) == \
                _fraction_freudenthal(dual, lam), (name, lam)


def test_pair_keeps_values_and_types():
    for datum in (RootDatum.standard(cartan_by_name("G2")),
                  sl2_adjoint_datum()):
        rank = datum.rank
        for w in itertools.product(range(-2, 3), repeat=rank):
            as_frac = tuple(Fraction(x) for x in w)
            halves = tuple(Fraction(x, 2) for x in w)
            for weight in (w, as_frac, halves):
                want = _fraction_pairings(datum, weight)
                for i in range(datum.nroots):
                    got = datum.coroot_pairing(i, weight)
                    assert got == want[i]
                    assert type(got) is (int if want[i].denominator == 1
                                         else Fraction)
                    assert datum.pair(datum.coroots[i], weight) == got
    g2 = RootDatum.standard(cartan_by_name("G2"))
    assert g2.pair((1, 0), (Fraction(1, 2), 3)) == Fraction(1, 2)
    assert type(g2.pair((2, 0), (Fraction(1, 2), 3))) is int
    assert type(g2.pair((0, 0), (1, 1))) is int


def test_inner_and_weight_to_root_unchanged():
    for name in ("B2", "G2"):
        datum = RootDatum.standard(cartan_by_name(name))
        inv = _fraction_cartan_inverse(datum.cartan)
        weights = [(1, 0), (0, 1), (2, -1), (-1, 3)] + list(datum.roots)
        for lam in weights:
            assert datum.weight_to_root(lam) == \
                _fraction_weight_to_root(datum, inv, lam)
            for mu in weights:
                want = _fraction_inner(datum, inv,
                                       _fraction_pairings(datum, lam),
                                       _fraction_pairings(datum, mu))
                assert datum.inner(lam, mu) == want
    b2 = RootDatum.standard(cartan_by_name("B2"))
    # B2: alpha_1 long (length^2 4), alpha_2 short (length^2 2)
    assert b2.inner(b2.roots[0], b2.roots[0]) == 4
    assert b2.inner(b2.roots[1], b2.roots[1]) == 2
    assert b2.weight_to_root((1, 0)) == (1, 1)
    assert b2.weight_to_root((0, 1)) == (Fraction(1, 2), 1)
    assert b2._cartan_inverse == ((1, Fraction(1, 2)), (1, 1))


def test_cartan_inverse_is_lazy_and_shared():
    aff = RootDatum.standard(validate_gcm([[2, -2], [-2, 2]]))
    aff.reflect(0, (1, 0))
    aff.weyl_orbit((0, 0))
    assert "_cartan_inverse" not in vars(aff)
    g2 = RootDatum.standard(cartan_by_name("G2"))
    g2.inner((1, 0), (0, 1))
    inv = vars(g2)["_cartan_inverse"]
    assert isinstance(inv, tuple) and all(isinstance(r, tuple) for r in inv)
    g2.weight_to_root((1, 1))
    assert g2._cartan_inverse is inv


def _orbit_symmetric(datum, chi):
    """Weyl symmetry by walking the whole orbit of every support weight."""
    for w, mval in chi.items():
        for o in datum.weyl_orbit(w):
            if chi.get(tuple(int(x) for x in o), 0) != mval:
                return False
    return True


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_weyl_symmetry_matches_orbit_check(name):
    datum = RootDatum.standard(cartan_by_name(name), name)
    for lam in _dominant_weights(2, 3):
        chi = freudenthal_char(datum, lam)
        assert is_weyl_symmetric(datum, chi) and _orbit_symmetric(datum, chi)
        # one multiplicity off breaks symmetry unless its orbit is a point
        for w in chi:
            bumped = dict(chi)
            bumped[w] += 1
            fixed = len(datum.weyl_orbit(w)) == 1
            assert is_weyl_symmetric(datum, bumped) is fixed, (lam, w)
            assert _orbit_symmetric(datum, bumped) is fixed, (lam, w)
        outside = tuple(x + 5 for x in lam)
        assert is_weyl_symmetric(datum, {**chi, outside: 0})
        assert not is_weyl_symmetric(datum, {**chi, outside: 1})


def test_positive_roots_built_once():
    counts = {"A1": 1, "A2": 3, "B2": 4, "G2": 6, "A3": 6, "B3": 9, "C3": 9}
    for name, count in counts.items():
        datum = RootDatum.standard(cartan_by_name(name))
        assert "_positive_roots" not in vars(datum)
        roots = datum.positive_roots()
        assert isinstance(roots, tuple) and len(roots) == count
        assert list(roots) == sorted(roots)
        assert all(min(r) >= 0 and sum(r) > 0 for r in roots)
        freudenthal_char(datum, (1,) * datum.cartan.rank)
        assert datum.positive_roots() is roots


def test_decompose_takes_each_height_once(monkeypatch):
    b2 = RootDatum.standard(cartan_by_name("B2"))
    parts = ((1, 1), (2, 0), (0, 0))
    irreducible = {lam: freudenthal_char(b2, lam) for lam in parts}
    chi = {}
    for part in irreducible.values():
        chi = add_characters(chi, part)
    monkeypatch.setattr(repmod, "freudenthal_char",
                        lambda datum, lam: irreducible[lam])
    calls = []
    real = RootDatum.weight_to_root
    monkeypatch.setattr(RootDatum, "weight_to_root",
                        lambda self, w: calls.append(w) or real(self, w))
    assert decompose_into_irreducibles(chi, b2) == dict.fromkeys(parts, 1)
    assert sorted(calls) == sorted(w for w, v in chi.items() if v)
