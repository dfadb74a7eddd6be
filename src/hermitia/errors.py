"""Exception types shared across the library."""


class HermitiaError(Exception):
    """Base class for all library errors."""


class ShapeMismatch(HermitiaError):
    """Operands have incompatible shapes or sizes."""


class SymmetryViolation(HermitiaError):
    """Entries break conjugate symmetry beyond tolerance."""


class NonRealInner(HermitiaError):
    """Inner product of supposedly Hermitian tensors has an imaginary residue."""


class NonRealDiagonal(HermitiaError):
    """A diagonal basis entry was given a non-real coefficient."""


class DimensionTooSmall(HermitiaError):
    """A mode of size 1 cannot host two distinct labels."""


class DegenerateTerm(HermitiaError):
    """A decomposition term has a zero vector or zero coefficient."""


class RankBudgetExceeded(HermitiaError):
    """Requested rank is outside the simultaneous-diagonalization regime,
    or a Kruskal rank needs more subset rank tests than the cap allows."""


class DegenerateSlices(HermitiaError):
    """Slice mixtures have (numerically) repeated generalized eigenvalues."""


class OrderTooSmall(HermitiaError):
    """Operation requires tensor order m >= 2."""


class ZeroTensor(HermitiaError):
    """Operation is undefined on the zero tensor."""


class NoConvergence(HermitiaError):
    """Iteration budget exhausted before reaching the requested tolerance."""


class ConstructionFailed(HermitiaError):
    """A constructive algorithm's result fails its own reconstruction check."""


class RealityViolation(HermitiaError):
    """Tensor entries are not real within tolerance."""


class NotRealDecomposable(HermitiaError):
    """Tensor fails the entry-symmetry test for real decomposability."""


class NotShape22(HermitiaError):
    """Operation is specific to shape [2, 2]."""


class BlockNotPsd(HermitiaError):
    """A Kronecker factor block is not positive semidefinite."""


class BasisTooLarge(HermitiaError):
    """Monomial basis would exceed the configured size cap."""


class FormatError(HermitiaError):
    """A text payload does not conform to its declared format."""
