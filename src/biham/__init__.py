"""Compatible Hermitian structures on real even-dimensional vector spaces.

Given one or two triples (metric, symplectic form, complex structure) this
package validates admissibility, decides compatibility, computes the
bi-orthogonal block decomposition and the signature of the group preserving
both structures, constructs the commuting family of dynamics generated by
the recursion operator, evaluates the pencil of structures, and analyzes the
complexified transfer operator (norm bounds, commutant, bicommutant,
bi-unitary samples).
"""

from .commutant import (
    HermitianForm,
    TransferOperator,
    bicommutant_basis,
    bicommutant_dim,
    biunitary_sample,
    commutant_dim,
    complexify,
    is_generic_operator,
    norm_bounds,
    transfer_operator,
)
from .compatibility import (
    CompatiblePair,
    PencilBlockVerdict,
    PencilMember,
    check_compatible,
    pencil_member,
    positivity_range,
)
from .decomposition import (
    Block,
    BlockDecomposition,
    CanonicalBlockBasis,
    DecompositionError,
    GroupSignature,
    canonical_basis,
    decompose,
    group_signature,
    is_generic,
    synthesize_pair,
)
from .dynamics import (
    BiPreservingAlgebra,
    ConservationReport,
    FlowOverflowError,
    RecursionCertificate,
    bi_preserving_algebra,
    certify_recursion,
    conservation_probe,
    flow,
    recursion_basis,
)
from .linalg import (
    DEFAULT_TOL,
    NumericalCheckError,
    RankAmbiguityError,
    Record,
    StructureError,
    Tolerance,
    cluster_eigenvalues,
    commutator,
    eig_self_adjoint,
    sym_sqrt,
)
from .structures import (
    AdmissibleTriple,
    ComplexStructure,
    FormPair,
    GramMatrix,
    LinearField,
    MetricTensor,
    PreservationReport,
    QuadraticForm,
    SymplecticForm,
    Violation,
    ViolationReport,
    check_admissible,
    field_preserves,
    form_pair,
    hermitian_product,
    lie_bracket,
    metric_hamiltonian,
    phase_generator,
    phase_group,
    poisson_bracket,
    polar_admissible,
    symmetrize_metric,
)

__version__ = "0.1.0"
