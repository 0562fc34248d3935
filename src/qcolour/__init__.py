"""Exact computation with coloured sl2 crystals, generalized quantum
enveloping equations and Langlands interpolating quantum algebras.

The package is organized along its mathematical layers:

- :mod:`qcolour.scalars`, :mod:`qcolour.polys`, :mod:`qcolour.series` --
  exact rationals, cyclotomic fields, sparse polynomials and truncated
  power series in one or two deformation parameters;
- :mod:`qcolour.rootdata` -- generalised Cartan matrices, root data,
  Weyl combinatorics and Langlands dual data;
- :mod:`qcolour.crystal` -- colourings of the rank-1 crystal, congruence
  classes, admissibility axioms and colouring transformers;
- :mod:`qcolour.gqe` -- the triangular equation solver and the derived
  operators (deformed commutator, trivialised generators, Serre sums);
- :mod:`qcolour.repmod` -- weight modules, characters, Freudenthal
  multiplicities and character-level Langlands duality;
- :mod:`qcolour.langint` -- the two-parameter interpolation algebra,
  its modules, the root-of-unity specialization and dual generators;
- :mod:`qcolour.verify`, :mod:`qcolour.cli` -- the batch verification
  harness and the command-line interface.
"""

from .crystal import (ClassicalColouring, Edge, PointwiseColouring,
                      PolySeriesColouring, QuantumColouring, cartan_dual,
                      check_h_admissible, congruence, factorial_product,
                      h_admissible_expansion, interpolation_colouring,
                      isogeny_colouring, specialize_colouring)
from .gqe import (GqeEquation, GqeSolution, NoSolution,
                  deformed_commutator_operator, gqe_serre_residual, rhs_row,
                  solve, trivialised_generator)
from .langint import (build_hh_module, dual_generators, gen_quantum_number,
                      interpolation_poly, power_commutation_residual,
                      dual_module_decomposition, specialize_eps)
from .polys import LaurentPoly, Poly
from .repmod import (WeightModule, build_L, character,
                     decompose_into_irreducibles, freudenthal_char,
                     isogeny_restrict, verify_ladder_relations)
from .rootdata import (CartanMatrix, Isogeny, RootDatum, cartan_by_name,
                       check_cone_avoidance, check_unique_dominant, langlands_dual,
                       serre_exponent_set, sharp, shifted_weyl_action, validate_gcm)
from .scalars import CyclotomicScalar, cyclotomic_polynomial
from .series import (LaurentTrunc, TruncSeries1, TruncSeries2,
                     quantum_number_series, series_div, series_exp)

__version__ = "0.1.0"
