"""Verification laboratory for the weakly monotone C*-algebra on n generators.

Exact truncated-Fock matrix models of the generators, a normal-form engine
for words in them, the diagonal subalgebra with its conditional expectation
and rank-one projections, the Gelfand-spectrum point set in the unit cube,
and gauge-covariance checks over sampled roots of unity -- every symbolic
rule validated against a brute-force matrix oracle, all arithmetic exact.
"""

from .fock import (MultiIndex, Tally, TruncationParams, check_guarded_identity,
                   enumerate_basis)
from .gauge import (BLOCK_SHIFT_UNITARY, PAPER_UNITARY, BundleRep, check_covariance,
                    check_quotient_relation, gauge_unitary, vacuum_operator_spectrum)
from .masa import expectation, expectation_of_monomial, rank_one_projection
from .sparse import PhaseMatrix, SparseOp, frac_str
from .spectrum import (FunctionalKey, SpectrumConfig, SpectrumPoint, embed,
                       emit_csv, emit_svg, enumerate_spectrum,
                       functional_apply, r_value, verify_multiplicativity)
from .words import (GeneratorSymbol, NormalForm, NormalMonomial, ProductResult,
                    Word, creation_guard, evaluate, evaluate_word, parse_word,
                    precedes, precedes_pivot, projection_product, rewrite)

__version__ = "0.1.0"

__all__ = [
    "BLOCK_SHIFT_UNITARY", "BundleRep", "FunctionalKey",
    "GeneratorSymbol", "MultiIndex", "NormalForm", "NormalMonomial",
    "PAPER_UNITARY", "PhaseMatrix", "ProductResult", "SparseOp",
    "SpectrumConfig", "SpectrumPoint", "Tally", "TruncationParams", "Word",
    "check_covariance", "check_guarded_identity",
    "check_quotient_relation", "creation_guard", "embed", "emit_csv",
    "emit_svg", "enumerate_basis", "enumerate_spectrum", "evaluate",
    "evaluate_word", "expectation", "expectation_of_monomial", "frac_str",
    "functional_apply", "gauge_unitary", "parse_word", "precedes",
    "precedes_pivot", "projection_product", "r_value", "rank_one_projection",
    "rewrite", "vacuum_operator_spectrum", "verify_multiplicativity",
]
