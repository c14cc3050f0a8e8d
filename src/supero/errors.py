"""Exception types shared across the package."""


class SuperoError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(SuperoError):
    """Vector or matrix shapes do not line up."""


class EmptyAlgebra(SuperoError):
    """A constructor was asked for a zero-dimensional algebra."""


class UnsupportedRank(SuperoError):
    """Family parameters outside the supported range."""


class FormError(SuperoError):
    """Invalid bilinear-form parameters (e.g. odd symplectic size), or a
    basis matrix that does not preserve the form."""


class NotASubalgebra(SuperoError):
    """A span is not closed under the bracket, or not homogeneous."""


class AlgebraMismatch(SuperoError):
    """Two objects belong to different algebras."""


class DecompositionError(SuperoError):
    """Torus action is not diagonal in the given basis."""


class ConventionError(SuperoError):
    """A differential image escaped the equivariant span.

    This signals a sign-convention bug and must abort the computation;
    silently projecting would produce wrong cohomology.
    """


class UnsupportedSubalgebra(SuperoError):
    """Subalgebra shape not supported by the requested check."""


class UnsupportedModule(SuperoError):
    """Module shape not supported by the requested construction."""


class PositivityNotEstablished(SuperoError):
    """Graded monomial counting refused: finiteness is not certified."""
