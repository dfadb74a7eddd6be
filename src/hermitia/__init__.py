"""hermitia: complex Hermitian tensors at desk scale.

Construction and algebra of dense Hermitian tensors, Hermitian and real
Hermitian decompositions, the three matrix flattenings with their rank
bounds, Hermitian eigentuples, sum-of-squares positivity certificates,
and separability verification with dual witnesses.
"""

from . import core, decomposition, flatten, io, linalg, psd_sos, real_herm, separability, spectral
from .core import (
    TOL,
    HermitianTensor,
    Tolerances,
    basis_tensor,
    congruent,
    eval_poly,
    identity_tensor,
    inner,
    matmul,
    norm,
    rank1,
    random_hermitian,
    validate,
    zero_tensor,
)
from .decomposition import (
    HermitianDecomposition,
    Unknown,
    assemble,
    basis_decomposition,
    expected_hrank,
    jennrich_decompose,
    kruskal_certify,
    normalize,
    residual,
)
from .flatten import cubic_flatten, hermitian_flatten, hermitian_unflatten, hrank_lower_bound, kronecker_flatten, verify_M_rank
from .psd_sos import csos_test, hsos_test, multiplier_hsos_test, psd_verdict
from .real_herm import dim_R, dim_RD, is_real_decomposable, normal_form_22, real_decompose, real_decompose_22
from .separability import (
    PsdKronDecomp,
    dual_witness_check,
    psd_kron_to_decomposition,
    psd_kron_verify,
    separability_pipeline,
    separable_search,
    verify_positive_decomposition,
)
from .spectral import contract_k, herm_eigenpair, orthogonal_decompose, unitary_decomposable

__version__ = "0.1.0"
