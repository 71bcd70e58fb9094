"""Exact symbolic calculus over the two-component graded algebra A (+) P.

A = Q[x1..xn] sits in degree 0, the free module P = A^m in degree 1, and
all products of two degree-1 elements vanish.  The package provides the
graded derivations and differential operators of this algebra, Schouten
and Jacobi brackets with Poisson/Jacobi/Lie-algebroid checkers, the
symbol algebra with its canonical Poisson bracket, and two cohomology
engines, all over exact rational arithmetic.
"""

__version__ = "0.1.0"

from .poly import (DiolicElement, ParseError, Poly, PolyMat, PolyVec,
                   monomials_up_to, parse_poly)
from .ops import (MatrixOp, RouteError, ScalarOp, VectorField, commutator,
                  delta, delta_nest, verify_order)
from .derivations import (Der0, Der1, DerNeg1, TruncatedDiolicModule, artificial_der,
                          check_phi_der, der0_split, graded_commutator_der,
                          p_action, rank_one_obstruction, symbol_sigma)
from .diffops import (DiffOp0, DiffOp1, DiffOpNeg1, atiyah_project,
                      atiyah_split, beta_diff, check_k_connection,
                      graded_commutator_diff, verify_diolic_diffop)
from .symbols import (DiolicSymbol0, DiolicSymbol1, DiolicSymbolNeg1,
                      SymbolPoly, diolic_poisson_bracket, diolic_symbol0,
                      diolic_symbol1, diolic_symbol_neg1, hamiltonian_apply,
                      lambda_k, parse_symbol, poisson_bracket,
                      scalar_from_symbol, smbl_scalar, star)
from .brackets import (BiDer0, BiDer1, BiDerNeg1, BiDerNeg2, JacobiNeg1,
                       JacobiOp0, is_jacobi0, is_jacobi_neg1,
                       is_lie_algebroid, is_poisson0, jacobi_from_poisson,
                       jacobiator0, schouten_probe_suite, schouten_self_eval)
from .complexes import (CEData, ResourceCapError, ce_cohomology,
                        ce_differential, der_cohomology_truncated,
                        der_differential, diolic_lie_check, rank)
