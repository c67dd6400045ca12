"""Exact computations with Leavitt path algebras of finite directed graphs.

The package realizes the path algebra L_K(E) with canonical normal forms,
its graph groupoid with graded bisections, the boundary-path (Chen)
modules and their twisted and scalar-extended variants, induced modules
over the isotropy group algebras, and the classification of spectral
simple and graded simple modules, every structural isomorphism checked as
an executable bijection on finite windows.
"""

from .algebra import AlgebraElement, LeavittAlgebra, Monomial, TwistVector, monomial
from .classify import classify_graded, classify_simple, dimension_oracle
from .fields import (
    QQ,
    ExtensionField,
    Field,
    Poly,
    PrimeField,
    enumerate_monic_irreducibles,
    parse_field,
    parse_poly,
)
from .graphs import (
    BoundaryPath,
    Edge,
    FinitePath,
    Graph,
    LagSet,
    Lasso,
    SinkPath,
    lasso,
    sink_path,
    tail_lags,
    validate,
)
from .groupoid import (
    Bisection,
    GroupoidElement,
    bisection,
    bisection_product,
    isotropy,
    orbit,
    pi_consistency,
)
from .reps import (
    ChenExtSpec,
    ChenSpec,
    InducedSpec,
    LaurentCoeff,
    ModuleVector,
    NvcSpec,
    QuotientCoeff,
    ScalarAction,
    TrivialCoeff,
    build_module,
)
from .verify import (
    Certificate,
    graded_iso_check,
    intertwiner_space,
    restrict,
    simplicity_probe,
    verify_nvc_iso,
    verify_pi_consistency,
    verify_relations,
    verify_res_ind,
    verify_triv_iso,
    verify_twist_iso,
)

__version__ = "0.1.0"
