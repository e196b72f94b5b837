"""Exact computations around symmetric-group characters in cycle-count variables.

The package computes irreducible characters of symmetric groups, the
character polynomials expressing them in the cycle-count statistics
X_1, X_2, ..., horizontal-strip decompositions of induced families, and
empirical certification of the two stability ranks of a family of
symmetric-group modules: representation stability and character
polynomiality.  All arithmetic is exact (integers and rationals).
"""

import sys

from .characters import ClassFunction, IrrDecomposition, decompose, inner_product, irr_char
from .cyclepoly import CharPolynomial, X, cycle_poly, eval_rho_all, parse_poly
from .fbmodules import (
    CycleModule,
    DirectSum,
    Projective,
    Tensor,
    Truncate,
    VFamily,
    WeightTruncateGT,
    WeightTruncateLE,
    character_at,
    parse_spec,
    terms_at,
)
from .frobenius import frobenius_poly, frobenius_poly_of_module, frobenius_poly_stable
from .partitions import Partition, class_size, cycle_types_of, partitions_of
from .pieri import pieri_expand, projective_terms
from .stability import (
    StabilityReport,
    rank_pc_estimate,
    rank_rs_estimate,
    verify_equivalence,
)

__all__ = [
    "CharPolynomial",
    "ClassFunction",
    "CycleModule",
    "DirectSum",
    "IrrDecomposition",
    "Partition",
    "Projective",
    "StabilityReport",
    "Tensor",
    "Truncate",
    "VFamily",
    "WeightTruncateGT",
    "WeightTruncateLE",
    "X",
    "character_at",
    "class_size",
    "clear_caches",
    "cycle_poly",
    "cycle_types_of",
    "decompose",
    "eval_rho_all",
    "frobenius_poly",
    "frobenius_poly_of_module",
    "frobenius_poly_stable",
    "inner_product",
    "irr_char",
    "parse_poly",
    "parse_spec",
    "partitions_of",
    "pieri_expand",
    "projective_terms",
    "rank_pc_estimate",
    "rank_rs_estimate",
    "terms_at",
    "verify_equivalence",
]

__version__ = "0.1.0"


def clear_caches():
    """Empty every lru_cache of every repstab module, the kernel rows and
    the family step lists included."""
    for name, module in list(sys.modules.items()):
        if name.startswith(__name__ + "."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
