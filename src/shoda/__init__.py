"""Shoda-completion of block-diagonal complex semisimple algebras.

The package models algebras that are finite direct sums of full matrix
blocks, extends them by trace-pairing tensors between their minimal ideals
into one full matrix algebra, equips the extension with a submultiplicative
norm extending the block operator norm, and decides and repairs the failure
of traceless elements to be commutators.
"""

from .algebra import (
    AlgebraSpec,
    Element,
    SpectrumReport,
    commutator,
    frobenius,
    multiply,
    projection_path,
    rank,
    riesz_projection,
    spectrum,
    trace,
)
from .commutators import (
    CommutatorWitness,
    ShodaReport,
    commutator_decompose,
    decompose_in_completion,
    infeasibility_certificate,
    is_shoda_complete,
)
from .completion import CompletionResult, build_B, complete
from .norms import NormAudit, NormReport, a_norm, b_norm, isometry_check, pair_nuclear_norm, submultiplicativity_audit
from .structure import StructureConstantAlgebra, quotient, radical, wedderburn_identify
from .tensor import AJElement, BElement, multiply_B

__all__ = [
    "AlgebraSpec",
    "Element",
    "SpectrumReport",
    "AJElement",
    "BElement",
    "StructureConstantAlgebra",
    "CompletionResult",
    "ShodaReport",
    "CommutatorWitness",
    "NormReport",
    "NormAudit",
    "multiply",
    "commutator",
    "trace",
    "rank",
    "spectrum",
    "riesz_projection",
    "projection_path",
    "frobenius",
    "multiply_B",
    "build_B",
    "complete",
    "radical",
    "quotient",
    "wedderburn_identify",
    "a_norm",
    "pair_nuclear_norm",
    "b_norm",
    "submultiplicativity_audit",
    "isometry_check",
    "is_shoda_complete",
    "commutator_decompose",
    "infeasibility_certificate",
    "decompose_in_completion",
]

__version__ = "0.1.0"
