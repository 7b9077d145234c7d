"""Bicomplex numbers, matrices and Hilbert-space structure.

The ring of bicomplex numbers extends the complex numbers by a second
commuting imaginary unit.  This package implements its arithmetic,
dense linear algebra, scalar products on free modules, the spectral
decomposition of self-adjoint operators, and the corresponding unitary
evolution, together with a text container format (.bct) and a CLI.
"""

from .core import (
    Bicomplex,
    BicomplexError,
    Classification,
    DEFAULT_TOLERANCE,
    DimensionMismatch,
    E1,
    E2,
    Hyperbolic,
    I1,
    I2,
    IdempotentForm,
    J,
    KetClassification,
    NonFinite,
    NotHyperbolic,
    NotInvertible,
    ONE,
    Tolerance,
    ZERO,
    approx_eq,
    as_bicomplex,
)
from .hilbert import (
    Basis,
    BasisMismatch,
    HyperbolicNorm,
    Ket,
    KetColumns,
    NonPositiveNorm,
    NotABasis,
    NullConeKet,
    NullConePivot,
    ScalarProductSpec,
    change_basis,
    gram_schmidt,
    ket_norm,
    mix_orthogonal_bases,
    normalize,
    project_basis,
    riesz_representation,
    scalar_product,
)
from .matrix import BicomplexMatrix, MatrixInverse, SingularMatrix
from .operators import (
    EigenPair,
    Eigensystem,
    EvolutionConfig,
    InvalidXi,
    NotSelfAdjoint,
    NotUnitary,
    Operator,
    OrthogonalityReport,
    SeriesDivergence,
    adjoint,
    compose,
    conjugate_by_basis,
    eigendecompose_self_adjoint,
    eigendecompose_unitary,
    eigenket_orthogonality_check,
    evolution_operator,
    evolve_samples,
    evolve_series,
    is_self_adjoint,
    is_unitary,
    op_exp,
    op_exp_spectral,
    op_function,
    outer_product,
    schrodinger_residual,
    spectral_reconstruct,
)

__version__ = "0.1.0"
