"""Exact computations with Leavitt path algebras of finite directed graphs.

The package realizes the path algebra L_K(E) with canonical normal forms,
its graph groupoid with graded bisections, the boundary-path (Chen)
modules and their twisted and scalar-extended variants, induced modules
over the isotropy group algebras, and the classification of spectral
simple and graded simple modules, every structural isomorphism checked as
an executable bijection on finite windows.

Every name below is exported lazily (PEP 562): the first lookup of a name
imports its home module, so ``import leavitt`` compiles nothing else, and
a command of ``lpa`` compiles only the modules it runs.  The package
namespace never caches a resolved name; each lookup reads the home
module, which stays the one place that binds it.
"""

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "algebra": ("AlgebraElement", "LeavittAlgebra", "Monomial", "TwistVector", "monomial"),
        "classify": ("classify_graded", "classify_simple", "dimension_oracle"),
        "fields": (
            "QQ", "ExtensionField", "Field", "Poly", "PrimeField", "enumerate_monic_irreducibles",
            "parse_field", "parse_poly",
        ),
        "graphs": (
            "BoundaryPath", "Edge", "FinitePath", "Graph", "LagSet", "Lasso", "SinkPath", "lasso",
            "sink_path", "tail_lags", "validate",
        ),
        "groupoid": (
            "Bisection", "GroupoidElement", "bisection", "bisection_product", "isotropy", "orbit",
            "pi_consistency",
        ),
        "reps": (
            "ChenExtSpec", "ChenSpec", "InducedSpec", "LaurentCoeff", "ModuleVector", "NvcSpec",
            "QuotientCoeff", "ScalarAction", "TrivialCoeff", "build_module",
        ),
        "verify": (
            "Certificate", "graded_iso_check", "intertwiner_space", "restrict", "simplicity_probe",
            "verify_nvc_iso", "verify_pi_consistency", "verify_relations", "verify_res_ind",
            "verify_triv_iso", "verify_twist_iso",
        ),
    }.items()
    for name in names
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
