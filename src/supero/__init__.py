"""Exact-arithmetic toolkit for Lie superalgebras and their triangular
decompositions: root data, principal parabolic subsets, relative cochain
complexes with their signed differential, invariant-ring Hilbert tables,
complexity-bound estimates, and positively-graded torus certificates.

Everything is computed over Q with no floating point (the single exception
is the labeled heuristic growth-rate fit).
"""

from .algebras import (
    EVEN,
    ODD,
    LieSuperalgebra,
    SubalgebraSpan,
    build_gl,
    build_osp,
    build_p_tilde,
    build_q,
    check_parity_consistency,
    check_super_antisymmetry,
    check_super_jacobi,
    even_part_span,
    full_span,
    quotient_action,
    special_linear_span,
    torus_span,
)
from .checks import (
    GradingTorus,
    appendix_torus,
    check_positive_grading,
    count_graded_monomials,
    even_concentration_check,
    kunneth_check,
    positive_even_roots,
)
from .cohomology import (
    CochainSpace,
    CohomologyReport,
    RelativeComplex,
    RelativePair,
    relative_ext,
)
from .invariants import (
    GrowthEstimate,
    HilbertTable,
    compare_invariants_vs_cohomology,
    ext_growth,
    invariant_dims,
)
from .linalg import SparseMatrix, rank
from .reps import (
    Representation,
    adjoint,
    dual,
    natural,
    odd_part_module,
    restrict,
    super_symmetric_power,
    tensor,
    trivial,
)
from .roots import (
    ParabolicDecomposition,
    RootDatum,
    RootSpace,
    named_subalgebra,
    principal_parabolic,
    root_decomposition,
)

__version__ = "0.1.0"
