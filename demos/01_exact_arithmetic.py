#!/usr/bin/env python3
"""Exact coefficient arithmetic: truncated series, cyclotomic scalars.

Everything in this library is computed over exact rings: arbitrary
precision rationals, cyclotomic fields Q(zeta), polynomial rings and
truncated power series on top of them.  This script walks through the
basic objects.
"""

from fractions import Fraction

from qcolour.scalars import (CyclotomicScalar, cyclotomic_polynomial,
                             quantum_number_cyclotomic)
from qcolour.series import (QQ, TruncSeries1, format_series,
                            quantum_number_series, series_div, series_exp,
                            sinh_series)

# Truncated series: all arithmetic happens modulo h^K.
K = 6
q = series_exp(QQ, Fraction(1), K)            # q = exp(h)
print("q       =", format_series(q))
print("q * q   =", format_series(q * q))
print("1/q     =", format_series(q.invert()))

# The quantum integer [k] = (q^k - q^-k)/(q - q^-1) = sinh(kh)/sinh(h).
five = quantum_number_series(5, K)
print("[5]_q   =", format_series(five))
# Both sinh series start at h^1, so their quotient loses one order:
# build them at order K + 1 to compare with [5]_q at its full order K.
ratio = series_div(sinh_series(QQ, Fraction(5), K + 1),
                   sinh_series(QQ, Fraction(1), K + 1))
assert ratio.order == K and ratio == five
print("matches sinh(5h)/sinh(h) after valuation-aware division")

# [k] is odd in k, and [1] is the unit.
assert quantum_number_series(-5, K) == -five
assert quantum_number_series(1, K) == TruncSeries1.one(QQ, K)

# Cyclotomic fields: Q[x]/(Phi_m(x)).  Phi_6 = x^2 - x + 1 by hand.
print("\nPhi_6   =", cyclotomic_polynomial(6))
eps = CyclotomicScalar.zeta(6)                # primitive 6th root, g = 3
print("eps     =", eps)
print("eps^3   =", eps ** 3, " (equals -1)")

# Quantum integers at the root of unity: [g] vanishes, [g-1] does not.
for a in range(1, 5):
    print(f"[{a}]_eps =", quantum_number_cyclotomic(a, 3))
assert quantum_number_cyclotomic(3, 3).is_zero()

# Exact division in the field.
x = (eps + 2) / (eps ** 2 - 5)
assert x * (eps ** 2 - 5) == eps + 2
print("\nfield division round-trips exactly")
