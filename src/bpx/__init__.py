"""bpx: Borcherds product exponents of Hilbert class polynomials.

Exact extraction of the exponents A(n^2, d) from the infinite product
expansion of H_d(j(z)), congruences for them modulo a prime l (fitted
against Hecke eigenforms of weight l+1 and verified coefficient by
coefficient), and the asymptotic / empirical distribution tables of the
exponent residues over primes.
"""

__version__ = "0.1.0"

from .arith import kronecker, sieve
from .borcherds import (CongruenceFormula, ExponentTable, exact_exponents,
                        fit_congruence, formula_eval, nu, twisted_roundtrip,
                        verify_congruence)
from .classpoly import (WeightedClassPoly, eligibility, hilbert_class_poly,
                        hurwitz_class_number, reduced_forms, singular_modulus)
from .density import (DensityTable, EllCurve, X0_CURVES, asymptotic_table,
                      ec_trace, empirical_table)
from .kernel import backend
from .qseries import GF, QQ, ZZ, Poly, QSeries, delta, eisenstein, jfunction
from .ssforms import (eigenbasis, hecke_Tp, supersingular_poly,
                      supersingular_poly_bruteforce)

__all__ = [
    "__version__", "backend",
    "kronecker", "sieve",
    "QSeries", "Poly", "ZZ", "QQ", "GF", "eisenstein", "delta", "jfunction",
    "supersingular_poly", "supersingular_poly_bruteforce", "hecke_Tp",
    "eigenbasis",
    "reduced_forms", "hurwitz_class_number", "singular_modulus",
    "hilbert_class_poly", "WeightedClassPoly", "eligibility",
    "exact_exponents", "ExponentTable", "fit_congruence", "CongruenceFormula",
    "formula_eval", "verify_congruence", "nu", "twisted_roundtrip",
    "EllCurve", "X0_CURVES", "ec_trace", "asymptotic_table",
    "empirical_table", "DensityTable",
]
