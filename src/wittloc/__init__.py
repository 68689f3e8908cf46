"""Exact Witt-ring arithmetic, quadratic-extension transfers, presented
equivariant cohomology rings, Euler classes, and Bott-residue localization."""

from .errors import (
    BadDimension,
    BadParameters,
    DegenerateForm,
    ExprSyntaxError,
    FieldMismatch,
    InconsistentField,
    NonInvertibleNormalEuler,
    Undecided,
    UnknownGenerator,
    UnsupportedField,
    UnsupportedIrrep,
    UnsupportedResidueField,
    WittlocError,
)
from .fields import FieldDescriptor, finite_prime, quad_ext, rationals, reals
from .witt import (
    WittClass,
    diagonalize,
    integer_class,
    square_class,
    witt,
    zero_class,
)
from .quadext import (
    QuadExtContext,
    base_change,
    in_Ia,
    lam_exactness_check,
    make_context,
    principal_ideal_certificate,
    scaled_transfer,
    transfer,
)
from .rings import (
    GradedElement,
    LocalizedElement,
    PresentationId,
    bn,
    bnn,
    bsl2n,
    gen,
    twisted_point,
)
from .euler import (
    EulerClassValue,
    NIrrep,
    RepSum,
    SL2nIrrep,
    euler_rep,
    fundamental,
    generic_euler,
    n_rep,
    sl2n_rep,
)
from .engine import (
    FixedComponent,
    GroupDescriptor,
    LocalizationProblem,
    ResidueResult,
    bott_residue,
    build_grassmannian_problem,
    build_projective_problem,
    exact_divide,
    problem_from_json,
    problem_to_json,
    push_to_base,
)
from .exprs import (
    parse_field,
    parse_rep,
    parse_ring_expr,
    parse_scalar,
    parse_witt_expr,
    rep_str,
    ring_str,
    witt_str,
)

__version__ = "0.1.0"
