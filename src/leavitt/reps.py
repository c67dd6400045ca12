"""Module constructions over the path algebra.

Four families of modules are realized with explicit canonical bases:

* boundary-path modules on a tail-equivalence class [x], optionally
  twisted by an invertible scalar per edge ("Chen" modules);
* their scalar extensions along K[t]/(f) for a simple closed path
  (the cycle's first edge acts by the class of t);
* the graded module on the normal monomials mu.nu* with s(nu) on a
  cycle without exits;
* induced modules: the free module on the morphisms ending at a base
  point x, tensored over the isotropy group algebra with a coefficient
  module (trivial, scalar-action, quotient-field, or shifted Laurent).

All actions are exact and total: the result of acting on a basis element
is a finite combination of canonical basis elements, never a truncation.
"""

from __future__ import annotations

from typing import NamedTuple, Union

from .algebra import (
    AlgebraElement,
    LeavittAlgebra,
    LinearCombination,
    Monomial,
    TwistVector,
    monomial,
)
from .fields import ExtensionField, Field, FieldError, Poly
from .graphs import (
    BoundaryPath,
    ClosedPath,
    FinitePath,
    Graph,
    Lasso,
    SinkPath,
    cycle_tail,
    enumerate_paths_ending_at,
    initial_path,
    prepend,
    strip_prefix,
    tail_lags,
)
from .groupoid import orbit
from .linalg import add_term, linear_extend
from .records import Frozen, InputError, same_class_eq, same_class_ne


class ModuleSpecError(InputError):
    """A module specification violates its preconditions."""


class NotGradableError(InputError):
    """Raised when grading data is requested from a non-graded module."""


# ---------------------------------------------------------------------------
# Coefficient-module specifications over the isotropy group algebra


class TrivialCoeff(NamedTuple):
    """K with the trivial action, shifted; for bases with trivial isotropy."""

    shift: int = 0

    __eq__, __ne__, __hash__ = same_class_eq, same_class_ne, tuple.__hash__


class ScalarAction(NamedTuple):
    """K with the isotropy generator acting by the nonzero scalar; not graded."""

    value: object

    __eq__, __ne__, __hash__ = same_class_eq, same_class_ne, tuple.__hash__


class QuotientCoeff(Frozen):
    """K[t,1/t]/(f) with the generator acting by the class of t; not graded.

    ``extension`` is K[t]/(f), built (and f tested) when the spec is made;
    it is not compared, hashed or printed, so the spec is a slots class."""

    _compared = ("modulus",)
    __slots__ = _compared + ("extension",)

    def __init__(self, modulus: Poly):
        object.__setattr__(self, "modulus", modulus)
        _attach_extension(self)


class LaurentCoeff(NamedTuple):
    """K[t^n, t^(-n)] shifted by 0 <= shift < n; graded, not simple."""

    shift: int = 0

    __eq__, __ne__, __hash__ = same_class_eq, same_class_ne, tuple.__hash__


NSpec = Union[TrivialCoeff, ScalarAction, QuotientCoeff, LaurentCoeff]


def quotient_field(field: Field, modulus: Poly) -> ExtensionField:
    """K[t]/(f), for f monic irreducible over ``field`` with nonzero constant
    term (so distinct from t); any other f is a ModuleSpecError."""
    try:
        return ExtensionField(field, modulus)
    except FieldError as exc:
        raise ModuleSpecError(str(exc)) from exc


def _attach_extension(spec: QuotientCoeff | ChenExtSpec) -> None:
    """Give a spec its K[t]/(modulus), so the modulus is tested for
    irreducibility once, where the spec is made; a module built from the
    spec uses that field."""
    object.__setattr__(spec, "extension", quotient_field(spec.modulus.field, spec.modulus))


def _extension_over(field: Field, spec: QuotientCoeff | ChenExtSpec) -> ExtensionField:
    """The spec's K[t]/(f), for a module over ``field``."""
    if spec.extension.base != field:
        raise ModuleSpecError("modulus is not over the base field")
    return spec.extension


# ---------------------------------------------------------------------------
# Module specifications


class ChenSpec(NamedTuple):
    base: BoundaryPath
    twist: TwistVector | None = None
    shift: int = 0

    __eq__, __ne__, __hash__ = same_class_eq, same_class_ne, tuple.__hash__


class ChenExtSpec(Frozen):
    """``extension`` is as in QuotientCoeff: built with the spec, and not
    compared, hashed or printed."""

    _compared = ("cycle", "modulus", "shift")
    __slots__ = _compared + ("extension",)

    def __init__(self, cycle: FinitePath, modulus: Poly, shift: int = 0):
        object.__setattr__(self, "cycle", cycle)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "shift", shift)
        _attach_extension(self)

    @classmethod
    def over(cls, cycle: FinitePath, coeff: QuotientCoeff) -> "ChenExtSpec":
        """The spec at ``cycle`` for coeff's modulus, with coeff's K[t]/(f):
        the modulus was tested when coeff was made and is not tested again."""
        spec = cls.__new__(cls)
        for name, value in zip(cls.__slots__, (cycle, coeff.modulus, 0, coeff.extension)):
            object.__setattr__(spec, name, value)
        return spec


class NvcSpec(NamedTuple):
    cycle: FinitePath
    shift: int = 0

    __eq__, __ne__, __hash__ = same_class_eq, same_class_ne, tuple.__hash__


class InducedSpec(NamedTuple):
    base: BoundaryPath
    coeff: NSpec
    shift: int = 0

    __eq__, __ne__, __hash__ = same_class_eq, same_class_ne, tuple.__hash__


ModuleSpec = Union[ChenSpec, ChenExtSpec, NvcSpec, InducedSpec]


# ---------------------------------------------------------------------------
# Basis elements and vectors


class ChenBasis(NamedTuple):
    path: BoundaryPath
    power: int = 0

    def __str__(self) -> str:
        return f"{self.path}#{self.power}" if self.power else str(self.path)

    def sort_key(self):
        return (self.path.sort_key(), self.power)


class NvcBasis(NamedTuple):
    mono: Monomial

    def __str__(self) -> str:
        return str(self.mono)

    def sort_key(self):
        return self.mono.sort_key()


class CosetBasis(NamedTuple):
    path: BoundaryPath
    lag: int
    power: int = 0

    def __str__(self) -> str:
        body = f"{self.path}@{self.lag}"
        return f"{body}#{self.power}" if self.power else body

    def sort_key(self):
        return (self.path.sort_key(), self.lag, self.power)


BasisElement = Union[ChenBasis, NvcBasis, CosetBasis]


class ModuleVector(LinearCombination):
    """A finite scalar-weighted combination of basis elements (no zero
    coefficients stored; ``Module.vector`` checks values from outside)."""

    __slots__ = ("field",)

    def __init__(self, field: Field, terms: dict | None = None):
        self.field = field
        self.terms = dict(terms or {})

    def _like(self, terms: dict) -> "ModuleVector":
        return ModuleVector(self.field, terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModuleVector):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        raise TypeError("module vectors are unhashable")


class BasisEnumeration(NamedTuple):
    elements: tuple[BasisElement, ...]
    exact: bool  # the whole basis, so the module is finite-dimensional

    __eq__, __ne__, __hash__ = same_class_eq, same_class_ne, tuple.__hash__


# ---------------------------------------------------------------------------
# The common module interface


class Module:
    """A left module over the path algebra with a canonical basis."""

    graph: Graph
    field: Field
    spec: ModuleSpec
    gradable: bool
    extension: ExtensionField | None = None  # K[t]/(f) when the module extends scalars

    @property
    def tensor_degree(self) -> int:
        return 1 if self.extension is None else self.extension.degree

    @property
    def scalars(self) -> Field:
        return self.extension or self.field

    def expand(self, a, j: int) -> dict:
        """Ground-field coordinates of a*t^j, for a in ``scalars``, as a sparse
        {j: coordinate} dict."""
        coords = (a,) if self.extension is None else self.extension.expand(a, j)
        return {i: c for i, c in enumerate(coords) if not self.field.is_zero(c)}

    def enumerate_basis(self, bound: int | None = None) -> BasisEnumeration:
        """The canonical basis: whole and exact, whatever the bound, when the
        module is finite-dimensional; otherwise the part within ``bound``."""
        raise NotImplementedError

    def act_monomial_basis(self, mono: Monomial, b: BasisElement) -> dict:
        """mono acting on the basis element b, as a sparse {basis element: value} dict."""
        raise NotImplementedError

    def grade(self, b: BasisElement) -> int:
        raise NotImplementedError

    def basis_at(self, y: BoundaryPath) -> tuple[BasisElement, ...]:
        """The basis elements whose path is y, in ``sort_key`` order: the
        span that ``verify.restrict`` reads Res_y from.  Only modules with
        a boundary-path basis have one."""
        raise ModuleSpecError("the restriction is read only from a boundary-path basis")

    def act_monomial(self, mono: Monomial, terms: dict) -> dict:
        """The terms of mono acting on the vector with ``terms``: the linear
        extension (``linalg.linear_extend``) of ``act_monomial_basis``."""
        return linear_extend(self.field, lambda b: self.act_monomial_basis(mono, b), terms)

    def act(self, elt: AlgebraElement, vec: ModuleVector) -> ModuleVector:
        """Exact action: the linear extension of ``act_monomial`` over the
        terms of elt."""
        F = self.field
        return ModuleVector(F, linear_extend(F, lambda m: self.act_monomial(m, vec.terms), elt.terms))

    def vector(self, terms: dict) -> ModuleVector:
        """The checked entry point: coerces the coefficients and drops zeros."""
        F = self.field
        out: dict[BasisElement, object] = {}
        for b, c in terms.items():
            add_term(F, out, b, F.coerce(c))
        return ModuleVector(F, out)

    _algebra: LeavittAlgebra | None = None

    def algebra(self) -> LeavittAlgebra:
        """The path algebra acting on this module, built on first use."""
        if self._algebra is None:
            self._algebra = LeavittAlgebra(self.graph, self.field)
        return self._algebra


class ChenModule(Module):
    """The boundary-path module on [x], with an optional twist over ``scalars``.

    Over the ground field the basis is [x] x {1, t, ..., t^(tensor_degree - 1)}.
    """

    def __init__(self, graph: Graph, field: Field, spec: ChenSpec):
        self.graph = graph
        self.field = field
        self.spec = spec
        self.base = spec.base
        self.twist = spec.twist
        if self.twist is not None and self.twist.field != self.scalars:
            raise ModuleSpecError("twist is over a different field")
        self.rational = isinstance(self.base, Lasso)
        self.gradable = not self.rational

    def enumerate_basis(self, bound: int | None = None) -> BasisEnumeration:
        res = orbit(self.graph, self.base, bound)
        elems = tuple(ChenBasis(p, j) for p in res.elements for j in range(self.tensor_degree))
        return BasisEnumeration(elems, res.exact)

    def act_monomial_basis(self, mono: Monomial, b: ChenBasis):
        """mu.nu* sends nu.p (x) t^j to a_mu a_nu^(-1) t^j mu.p, in ground-field
        coordinates; an untwisted module does no scalar work."""
        rem = strip_prefix(self.graph, mono.nu, b.path)
        if rem is None:
            return {}
        target = prepend(self.graph, mono.mu, rem)
        if self.twist is None:
            return {ChenBasis(target): self.field.one()}
        value = self.expand(self.twist.ratio(mono.mu, mono.nu), b.power)
        return {ChenBasis(target, j): c for j, c in value.items()}

    def basis_at(self, y: BoundaryPath) -> tuple[ChenBasis, ...]:
        if tail_lags(y, self.base).is_empty:
            return ()
        return tuple(ChenBasis(y, j) for j in range(self.tensor_degree))

    def grade(self, b: ChenBasis) -> int:
        if self.rational:
            raise NotGradableError(
                "the boundary-path module at a rational base point is not graded"
            )
        lags = tail_lags(b.path, self.base)
        assert lags.kind == "single"
        return lags.k0 - self.spec.shift


class ChenExtModule(ChenModule):
    """Scalar extension along K[t]/(f) at a cycle: the boundary-path module at
    the cycle's tail over K[t]/(f), twisted by the class of t on its first edge."""

    def __init__(self, graph: Graph, field: Field, spec: ChenExtSpec):
        self.extension = _extension_over(field, spec)
        x = cycle_tail(graph, spec.cycle)
        tbar = TwistVector.make(graph, self.extension, {x.cycle[0]: self.extension.tbar()})
        super().__init__(graph, field, ChenSpec(x, tbar, spec.shift))
        self.spec = spec

    act_monomial_basis = ChenModule.act_monomial_basis  # own name: perfbench/trace.py counts per class

    def grade(self, b: ChenBasis) -> int:
        raise NotGradableError("scalar-extension modules at cycle tails are not graded")


class NvcModule(Module):
    """Graded module on normal monomials mu.nu* with s(nu) = base of a no-exit cycle."""

    def __init__(self, graph: Graph, field: Field, spec: NvcSpec):
        self.graph = graph
        self.field = field
        closed = ClosedPath.analyze(graph, spec.cycle)
        if not closed.is_cycle:
            raise ModuleSpecError(f"{spec.cycle} repeats a vertex, so it is not a cycle")
        if closed.has_exit:
            raise ModuleSpecError(f"cycle {spec.cycle} has an exit")
        self.tail = cycle_tail(graph, spec.cycle)
        self.base_vertex = self.tail.source
        self.spec = NvcSpec(initial_path(graph, self.tail, self.tail.period), spec.shift)
        self.gradable = True

    def enumerate_basis(self, bound: int | None = None) -> BasisEnumeration:
        if bound is None:
            raise ModuleSpecError("this module is infinite-dimensional; a bound is required")
        elems = []
        for l in range(bound + 1):
            nu = initial_path(self.graph, self.tail, l)
            mus = enumerate_paths_ending_at(self.graph, nu.rng, bound=bound).paths
            for mu in mus:
                m = monomial(mu, nu)
                if self.algebra().is_normal(m):
                    elems.append(NvcBasis(m))
        elems.sort(key=lambda b: b.sort_key())
        return BasisEnumeration(tuple(elems), False)

    def act_monomial_basis(self, mono: Monomial, b: NvcBasis):
        algebra = self.algebra()
        prod = algebra.mono_mul(mono, b.mono)
        if prod is None:
            return {}
        return {NvcBasis(m): c for m, c in algebra._normalize_terms([(prod, self.field.one())]).items()}

    def grade(self, b: NvcBasis) -> int:
        return b.mono.degree - self.spec.shift


class InducedModule(Module):
    """RL_x tensored with a coefficient module over the isotropy group algebra.

    Bases are cosets (y, k, x) x tensor coordinate.  Over a rational base
    the lag of a coset representative is canonicalized via the aligned
    lasso decomposition; the discarded isotropy power is absorbed into the
    coefficient coordinate, where the isotropy generator acts by
    ``generator``: the scalar a in K, or the class of t in K[t]/(f).  Its
    inverse is computed once, for the negative powers, and the coordinates
    of each generator power times t^j once per (power, j).
    """

    def __init__(self, graph: Graph, field: Field, spec: InducedSpec):
        self.graph = graph
        self.field = field
        self.spec = spec
        self.rational = isinstance(spec.base, Lasso)
        coeff = spec.coeff
        if self.rational:
            if isinstance(coeff, TrivialCoeff):
                raise ModuleSpecError(
                    "a rational base has infinite cyclic isotropy; "
                    "use a scalar action, quotient field, or Laurent coefficient"
                )
            self.period = spec.base.period
            if isinstance(coeff, LaurentCoeff) and not 0 <= coeff.shift < self.period:
                coeff = LaurentCoeff(coeff.shift % self.period)
                self.spec = InducedSpec(spec.base, coeff, spec.shift)
        else:
            if not isinstance(coeff, TrivialCoeff):
                raise ModuleSpecError(
                    "a non-rational base has trivial isotropy; use a trivial coefficient"
                )
            self.period = 0
        if isinstance(coeff, QuotientCoeff):
            self.extension = _extension_over(field, coeff)
            self.generator = self.extension.tbar()
        elif isinstance(coeff, ScalarAction):
            self.generator = field.coerce(coeff.value)
            if field.is_zero(self.generator):
                raise ModuleSpecError("the scalar action value must be nonzero")
        if isinstance(coeff, (QuotientCoeff, ScalarAction)):
            self._generator_inverse = self.scalars.inv(self.generator)
        self._powers: dict[tuple[int, int], dict] = {}  # (j_diff, j) -> coordinates of g^j_diff t^j
        self.gradable = isinstance(coeff, (TrivialCoeff, LaurentCoeff))

    # -- canonical coset representatives ---------------------------------

    def canonical_decomposition(self, y: BoundaryPath) -> tuple[FinitePath, FinitePath]:
        """(mu, nu) with y = mu.p, x = nu.p along the canonical lasso alignment."""
        x = self.spec.base
        if isinstance(x, SinkPath):
            if not isinstance(y, SinkPath) or y.path.rng != x.path.rng:
                raise ModuleSpecError(f"{y} is not in the class of {x}")
            return y.path, x.path
        if not isinstance(y, Lasso) or y.cycle != x.cycle:
            raise ModuleSpecError(f"{y} is not in the class of {x}")
        nu = initial_path(self.graph, x, len(x.prefix) + (y.rotation - x.rotation) % self.period)
        return y.prefix, nu

    def canonical_lag(self, y: BoundaryPath) -> int:
        mu, nu = self.canonical_decomposition(y)
        return len(mu) - len(nu)

    # -- enumeration -------------------------------------------------------

    def enumerate_basis(self, bound: int | None = None) -> BasisEnumeration:
        coeff = self.spec.coeff
        res = orbit(self.graph, self.spec.base, bound)
        if isinstance(coeff, LaurentCoeff):
            if bound is None:
                raise ModuleSpecError(
                    "this module is infinite-dimensional; a bound is required"
                )
            elems = []
            for y in res.elements:
                lags = tail_lags(y, self.spec.base)
                for k in range(-bound, bound + 1):
                    if lags.contains(k):
                        elems.append(CosetBasis(y, k))
            elems.sort(key=lambda b: b.sort_key())
            return BasisEnumeration(tuple(elems), False)
        elems = []
        for y in res.elements:
            k = self.canonical_lag(y)
            for j in range(self.tensor_degree):
                elems.append(CosetBasis(y, k, j))
        elems.sort(key=lambda b: b.sort_key())
        return BasisEnumeration(tuple(elems), res.exact)

    def basis_at(self, y: BoundaryPath) -> tuple[CosetBasis, ...]:
        if isinstance(self.spec.coeff, LaurentCoeff):
            raise ModuleSpecError(
                "the restriction of a Laurent coefficient is a whole coset of lags, not finite-dimensional"
            )
        if tail_lags(y, self.spec.base).is_empty:
            return ()
        k = self.canonical_lag(y)
        return tuple(CosetBasis(y, k, j) for j in range(self.tensor_degree))

    # -- action ------------------------------------------------------------

    def act_monomial_basis(self, mono: Monomial, b: CosetBasis):
        rem = strip_prefix(self.graph, mono.nu, b.path)
        if rem is None:
            return {}
        target = prepend(self.graph, mono.mu, rem)
        lag = mono.degree + b.lag
        if self.gradable:
            return {CosetBasis(target, lag): self.field.one()}
        k_can = self.canonical_lag(target)
        j_diff, remainder = divmod(lag - k_can, self.period)
        assert remainder == 0
        value = self._powers.get((j_diff, b.power))
        if value is None:
            g = self.generator if j_diff >= 0 else self._generator_inverse
            value = self._powers[j_diff, b.power] = self.expand(self.scalars.pow(g, abs(j_diff)), b.power)
        return {CosetBasis(target, k_can, j): c for j, c in value.items()}

    def grade(self, b: CosetBasis) -> int:
        if not self.gradable:
            raise NotGradableError("scalar-action and quotient coefficients are not graded")
        return b.lag - self.spec.coeff.shift - self.spec.shift


def build_module(graph: Graph, field: Field, spec: ModuleSpec) -> Module:
    if isinstance(spec, ChenSpec):
        return ChenModule(graph, field, spec)
    if isinstance(spec, ChenExtSpec):
        return ChenExtModule(graph, field, spec)
    if isinstance(spec, NvcSpec):
        return NvcModule(graph, field, spec)
    if isinstance(spec, InducedSpec):
        return InducedModule(graph, field, spec)
    raise ModuleSpecError(f"unknown module spec {spec!r}")
