"""Finite-dimensional calculus for linear relations between Krein
spaces: subspace arithmetic, relation calculus, boundary pairs and
triples, Weyl families, the main transform, boundary transformations,
Nevanlinna-type diagnostics and a property-check harness.
"""

from .errors import (
    DimensionMismatchError,
    GenerationError,
    KreinRelError,
    PreconditionError,
    ValidationError,
)
from .subspaces import (
    DEFAULT_TOL,
    Subspace,
    Tolerance,
    column_space,
    contains,
    full_space,
    intersect,
    null_space,
    orth_complement,
    principal_angles,
    subspace_equal,
    subspace_sum,
    zero_subspace,
)
from .spaces import (
    KreinSpace,
    hilbert_space,
    krein_adjoint_matrix,
    make_krein,
)
from .relations import (
    LinearRelation,
    SpectrumReport,
    compose,
    cw_sum,
    full_relation,
    hilbert_adjoint,
    identity_relation,
    in_resolvent,
    is_selfadjoint,
    is_symmetric,
    krein_adjoint,
    op_sum,
    point_spectrum,
    rel_contains,
    rel_equal,
    rel_from_operator,
    shmulyan,
    sigma_p_contains,
)
from .boundary import (
    BoundaryPair,
    WeylSample,
    gamma_sharp,
    identity_obt,
    in_delta,
    m_plus_z,
    main_transform,
    main_transform_space,
    theta_extension,
    weyl,
)
from .transforms import (
    QbtMap,
    StdUnitaryOp,
    delta_correction,
    in_rho_v,
    lft,
    make_commuting_unitary,
    make_std_unitary,
    n_hat_v,
    p_poly,
    qbt_transform,
    rotation_op,
    scale_eps,
    scaled_obt,
    transform_left,
    transform_right,
    u_j,
    v_star,
)
from .generators import (
    RETRY_CAP,
    InstanceSpec,
    conditioned_matrix,
    gen_boundary_unitary_relation,
    gen_obt,
    gen_qbt_map,
    gen_std_unitary,
    gen_unitary_boundary_pair,
    gen_unitary_pair_with_T,
    random_hermitian,
    random_krein,
    random_relation,
    random_unitary,
    rng_stream,
)
from .nevanlinna import (
    KernelSampleGrid,
    NegSquaresReport,
    block_gram,
    gen_nevanlinna_probe,
    neg_squares_estimate,
)
from .checks import (
    SWEEP_COLUMNS,
    THEOREM_IDS,
    CheckReport,
    check_theorem,
    weyl_sweep,
)
from .serialize import dump, load

__version__ = "0.1.0"
