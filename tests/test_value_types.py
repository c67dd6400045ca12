"""The value types: paths, lassos, monomials, bisections and basis elements,
which are dict keys, and then every other record of the package.

They are NamedTuples, so they are built, hashed and compared as tuples.
Tuple equality ignores the class, so these tests pin down what a frozen
dataclass gave for free: values of two different classes are never equal,
and each value equals, and hashes like, one built separately from the same
fields.  The hash is that of the plain tuple of its fields, nested values
included, which is what the dataclass ``__hash__`` computed, so set and
dict orders do not depend on the representation.
"""

import copy
import inspect
import itertools
import pickle

import pytest
from hypothesis import given, settings

from fixture_graphs import FIXTURE_GRAPHS
from leavitt.algebra import Monomial, TwistVector, all_monomials
from leavitt.classify import (
    CycleSimple,
    GradedClassification,
    InfiniteDimFlagged,
    IrrationalFamilyFlag,
    LaurentFamily,
    SimpleClassification,
    SinkFamily,
    SinkSimple,
    classify_graded,
    classify_simple,
)
from leavitt.fields import QQ, Poly, PrimeField
from leavitt.graphs import (
    ClosedPath,
    ClosedPathEnumeration,
    Edge,
    FinitePath,
    Graph,
    LagSet,
    Lasso,
    PathEnumeration,
    SinkPath,
    ValidationReport,
    cycle_tail,
    elementary_cycles,
    enumerate_paths_ending_at,
    prepend,
    simple_closed_paths,
    sink_path,
    tail_lags,
    validate,
)
from leavitt.groupoid import (
    Bisection,
    GroupoidElement,
    IsotropyDescriptor,
    OrbitEnumeration,
    bisection,
    isotropy,
    monomial_bisection,
    orbit,
)
from leavitt.reps import (
    BasisEnumeration,
    ChenBasis,
    ChenExtSpec,
    ChenSpec,
    CosetBasis,
    InducedSpec,
    LaurentCoeff,
    NvcBasis,
    NvcSpec,
    QuotientCoeff,
    ScalarAction,
    TrivialCoeff,
    build_module,
)
from leavitt.verify import (
    Certificate,
    IsoDecision,
    ProbeResult,
    Restriction,
    Spin,
    Window,
    _spin,
    graded_iso_check,
    restrict,
    simplicity_probe,
    verify_triv_iso,
)
from strategies import small_graphs

VALUE_TYPES = (FinitePath, SinkPath, Lasso, Monomial, Bisection, ChenBasis, CosetBasis, NvcBasis)


def _paths(graph: Graph, max_len: int) -> list[FinitePath]:
    out = [graph.vertex_path(v) for v in graph.vertices]
    frontier = list(out)
    for _ in range(max_len):
        frontier = [FinitePath(p.edges + (e.name,), p.src, e.rng) for p in frontier for e in graph.out_edges(p.rng)]
        out += frontier
    return out


def values(graph: Graph) -> dict[type, list]:
    """A few values of each type on ``graph``, with every field kind used."""
    paths = _paths(graph, 2)
    sinks = [SinkPath(p) for p in paths if graph.is_sink(p.rng)]
    tails = [cycle_tail(graph, c) for c in elementary_cycles(graph)[:3]]
    lassos = tails + [prepend(graph, graph.path([e.name]), x) for x in tails for e in graph.in_edges(x.source)]
    boundary = sinks + lassos
    monos = all_monomials(graph, 1)
    bisections = [monomial_bisection(graph, m) for m in monos]
    bisections += [
        bisection(graph, m.mu, m.nu, {e.name}) for m in monos for e in graph.out_edges(m.mu.rng)[:1]
    ]
    return {
        FinitePath: paths,
        SinkPath: sinks,
        Lasso: lassos,
        Monomial: monos,
        Bisection: bisections,
        ChenBasis: [ChenBasis(x, j) for x in boundary for j in (0, 1)],
        CosetBasis: [CosetBasis(x, k, j) for x in boundary for k in (-1, 0, 2) for j in (0, 1)],
        NvcBasis: [NvcBasis(m) for m in monos],
    }


def _plain(v):
    """v as nested plain tuples: the tuple the old dataclass hash was taken of."""
    return tuple(_plain(x) for x in v) if type(v) in VALUE_TYPES else v


def _rebuilt(v):
    """A value equal to v, built separately from its fields."""
    return type(v)(*(_rebuilt(x) if type(x) in VALUE_TYPES else x for x in v))


def check_value_semantics(graph: Graph) -> None:
    by_type = values(graph)
    for (ta, xs), (tb, ys) in itertools.combinations(by_type.items(), 2):
        for a, b in itertools.product(xs, ys):
            assert a != b and not a == b, (ta.__name__, a, tb.__name__, b)
    for vs in by_type.values():
        for v in vs:
            w = _rebuilt(v)
            assert w == v and not w != v
            assert hash(w) == hash(v) == hash(_plain(v))
            assert repr(w) == repr(v) == type(v).__name__ + "(" + ", ".join(
                f"{name}={x!r}" for name, x in zip(v._fields, v)
            ) + ")"
            assert str(w) == str(v)
            assert bool(v) == (not isinstance(v, FinitePath) or bool(v.edges))
            if hasattr(v, "sort_key"):
                assert w.sort_key() == v.sort_key()
    for p in by_type[FinitePath]:
        assert len(p) == len(p.edges)
        assert str(p) == (".".join(p.edges) if p.edges else p.src)
        assert p.sort_key() == (len(p.edges), p.edges, p.src)


@pytest.mark.parametrize("name", sorted(FIXTURE_GRAPHS))
def test_value_semantics_on_fixture_graphs(name):
    check_value_semantics(Graph(*FIXTURE_GRAPHS[name]))


@given(graph=small_graphs())
@settings(max_examples=40, deadline=None)
def test_value_semantics_on_small_graphs(graph):
    check_value_semantics(graph)


def test_trivial_path_is_falsy_and_has_length_zero(r1):
    v = r1.vertex_path("v")
    assert not v and len(v) == 0 and v.is_trivial
    e = r1.path(["e", "e"])
    assert e and len(e) == 2 and not e.is_trivial


def test_fields_and_defaults():
    assert FinitePath._fields == ("edges", "src", "rng")
    assert SinkPath._fields == ("path",)
    assert Lasso._fields == ("prefix", "cycle", "rotation")
    assert Monomial._fields == ("mu", "nu")
    assert Bisection._fields == ("mu", "nu", "excluded")
    assert ChenBasis._fields == ("path", "power") and ChenBasis._field_defaults == {"power": 0}
    assert CosetBasis._fields == ("path", "lag", "power") and CosetBasis._field_defaults == {"power": 0}
    assert NvcBasis._fields == ("mono",)


# ---------------------------------------------------------------------------
# Records: specs, results and enumerations, and the slots classes
#
# The remaining value types are NamedTuples with a class-aware ``__eq__`` or
# ``__slots__`` classes.  They keep what the frozen records they replace
# gave: the constructor, the field names, the repr, immutability, a hash
# equal to that of the tuple of compared fields, and equality only within a
# class, also where two classes hold the same fields.

F3 = PrimeField(3)

# class -> the compared (and printed) fields, in constructor order
SLOTS_FIELDS = {
    Edge: ("name", "src", "rng"),
    Poly: ("field", "coeffs"),
    TwistVector: ("field", "entries"),
    QuotientCoeff: ("modulus",),
    ChenExtSpec: ("cycle", "modulus", "shift"),
    Certificate: ("claim", "window", "checks", "passed", "counterexample"),
}
RECORD_TYPES = (
    Edge, ValidationReport, ClosedPath, LagSet, PathEnumeration, ClosedPathEnumeration,
    Poly, TwistVector,
    GroupoidElement, IsotropyDescriptor, OrbitEnumeration,
    TrivialCoeff, ScalarAction, QuotientCoeff, LaurentCoeff,
    ChenSpec, ChenExtSpec, NvcSpec, InducedSpec, BasisEnumeration,
    SinkFamily, LaurentFamily, IrrationalFamilyFlag, GradedClassification,
    SinkSimple, CycleSimple, InfiniteDimFlagged, SimpleClassification,
    Restriction, Spin, Certificate, IsoDecision, ProbeResult,
)
MUTABLE = (Certificate,)


def _graph(name: str) -> Graph:
    return Graph(*FIXTURE_GRAPHS[name])


def records() -> dict[type, list]:
    """Values of every record class, most of them built by the library."""
    toeplitz, r1, a2 = _graph("toeplitz"), _graph("r1"), _graph("a2")
    e = toeplitz.path(["e"])
    x = cycle_tail(toeplitz, e)
    s = sink_path(toeplitz, toeplitz.vertex_path("v"))
    f3, fq = Poly.make(F3, [1, 0, 1]), Poly.make(QQ, [1, 0, 1])
    twist = TwistVector.make(toeplitz, QQ, {"e": 2})
    q3 = QuotientCoeff(f3)
    induced = [InducedSpec(x, TrivialCoeff()), InducedSpec(x, LaurentCoeff()), InducedSpec(s, TrivialCoeff(1))]
    graded = [classify_graded(g, 3) for g in (toeplitz, r1, a2)]
    simple = [classify_simple(g, F3, 2) for g in (toeplitz, r1, a2)]
    r1_ext = build_module(r1, F3, ChenExtSpec(r1.path(["e"]), f3))
    out = {
        Edge: list(toeplitz.edges),
        ValidationReport: [validate(g) for g in (toeplitz, a2)],
        ClosedPath: [ClosedPath.analyze(toeplitz, e), ClosedPath.analyze(r1, r1.path(["e", "e"]))],
        LagSet: [LagSet.empty(), LagSet.single(0), LagSet.coset(0, 1), tail_lags(x, x)],
        PathEnumeration: [enumerate_paths_ending_at(toeplitz, "v", 2), enumerate_paths_ending_at(a2, "v")],
        ClosedPathEnumeration: [simple_closed_paths(g, 2) for g in (toeplitz, a2)],
        Poly: [f3, fq, Poly.zero(F3), Poly.zero(QQ), Poly.t(QQ)],
        TwistVector: [twist, TwistVector.make(toeplitz, QQ, {"e": QQ.inv(QQ.coerce(2))}), TwistVector.make(toeplitz, F3, {})],
        GroupoidElement: [GroupoidElement(x, x.period, x), GroupoidElement(s, 0, s), GroupoidElement(x, 0, x)],
        IsotropyDescriptor: [isotropy(x), isotropy(s)],
        OrbitEnumeration: [orbit(toeplitz, x, 2), orbit(a2, sink_path(a2, a2.vertex_path("v")))],
        TrivialCoeff: [TrivialCoeff(), TrivialCoeff(1)],
        ScalarAction: [ScalarAction(0), ScalarAction(1), ScalarAction(QQ.coerce(2))],
        QuotientCoeff: [q3, QuotientCoeff(fq)],
        LaurentCoeff: [LaurentCoeff(), LaurentCoeff(1)],
        ChenSpec: [ChenSpec(s), ChenSpec(x, twist), ChenSpec(x, None, 1)],
        ChenExtSpec: [ChenExtSpec(e, f3), ChenExtSpec.over(e, QuotientCoeff(fq)), ChenExtSpec(e, f3, 1)],
        NvcSpec: [NvcSpec(e), NvcSpec(e, 1)],
        InducedSpec: induced + [InducedSpec(x, q3), InducedSpec(x, ScalarAction(1))],
        BasisEnumeration: [
            build_module(toeplitz, F3, ChenSpec(s)).enumerate_basis(2),
            build_module(toeplitz, F3, induced[1]).enumerate_basis(1),
        ],
        SinkFamily: [f for c in graded for f in c.sink_families] + [SinkFamily("v", 1)],
        LaurentFamily: [f for c in graded for f in c.laurent_families] + [LaurentFamily(e, 1)],
        IrrationalFamilyFlag: [c.irrational for c in graded] + [IrrationalFamilyFlag(True, ("e", "g"))],
        GradedClassification: graded,
        SinkSimple: [v for c in simple for v in c.entries if isinstance(v, SinkSimple)] + [SinkSimple("v", 1)],
        CycleSimple: [v for c in simple for v in c.entries if isinstance(v, CycleSimple)],
        InfiniteDimFlagged: [f for c in simple for f in c.flagged],
        SimpleClassification: simple,
        Restriction: [restrict(r1_ext, cycle_tail(r1, r1.path(["e"])))],
        Spin: [_spin(Window.full(r1_ext), [0]), _spin(Window.full(r1_ext), [])],
        Certificate: [verify_triv_iso(a2, F3, sink_path(a2, a2.vertex_path("v")))],
        IsoDecision: [graded_iso_check(toeplitz, F3, a, b) for a in induced for b in induced],
        ProbeResult: [simplicity_probe(r1, F3, ChenExtSpec(r1.path(["e"]), f3))],
    }
    for cls, vs in out.items():
        assert vs and all(type(v) is cls for v in vs), cls.__name__
    return out


def _fields(v) -> tuple:
    """The values of v's compared fields, in order."""
    names = SLOTS_FIELDS.get(type(v))
    return tuple(v) if names is None else tuple(getattr(v, n) for n in names)


def _field_names(cls) -> tuple[str, ...]:
    return SLOTS_FIELDS.get(cls) or cls._fields


def test_every_record_class_is_covered():
    assert set(records()) == set(RECORD_TYPES)


def test_records_of_two_classes_are_never_equal():
    by_type = records()
    for (ta, xs), (tb, ys) in itertools.combinations(by_type.items(), 2):
        for a, b in itertools.product(xs, ys):
            assert a != b and not a == b and b != a and not b == a, (ta.__name__, a, tb.__name__, b)
    for vs in by_type.values():
        for v in vs:
            assert v != _fields(v) and not v == _fields(v)


def test_records_with_equal_fields_in_two_classes():
    x = cycle_tail(_graph("r1"), _graph("r1").path(["e"]))
    pairs = [
        (TrivialCoeff(0), LaurentCoeff(0)),
        (TrivialCoeff(1), ScalarAction(1)),
        (InducedSpec(x, TrivialCoeff()), InducedSpec(x, LaurentCoeff())),
        (SinkFamily("v", 1), SinkSimple("v", 1)),
        (LaurentFamily(x.cycle, 1), NvcSpec(x.cycle, 1)),
        (PathEnumeration((), True), OrbitEnumeration((), True)),
        (PathEnumeration((), True), ClosedPathEnumeration((), True)),
        (BasisEnumeration((), True), OrbitEnumeration((), True)),
    ]
    def plain(v):
        return tuple(map(plain, v)) if isinstance(v, tuple) else v

    for a, b in pairs:
        assert plain(a) == plain(b)
        assert a != b and not a == b and b != a and not b == a
        assert len({a, b}) == 2


def test_records_equal_and_hash_as_their_fields():
    for vs in records().values():
        for v in vs:
            w = type(v)(*_fields(v))
            assert w == v and not w != v
            if isinstance(v, MUTABLE):
                with pytest.raises(TypeError):
                    hash(v)
                continue
            try:
                expected = hash(_fields(v))
            except TypeError:  # a dict or list field: no hash, as before
                with pytest.raises(TypeError):
                    hash(v)
                continue
            assert hash(w) == hash(v) == expected


def test_record_reprs():
    for vs in records().values():
        for v in vs:
            fields = ", ".join(f"{n}={x!r}" for n, x in zip(_field_names(type(v)), _fields(v)))
            assert repr(v) == f"{type(v).__name__}({fields})"
    assert repr(TrivialCoeff()) == "TrivialCoeff(shift=0)"
    assert repr(Poly.make(QQ, [1, 2])) == "Poly(field=Q, coeffs=(Fraction(1, 1), Fraction(2, 1)))"
    assert repr(QuotientCoeff(Poly.make(F3, [1, 0, 1]))) == "QuotientCoeff(modulus=Poly(field=F3, coeffs=(1, 0, 1)))"
    assert repr(Edge("e", "v", "v")) == "Edge(name='e', src='v', rng='v')"


def test_records_are_immutable():
    for vs in records().values():
        for v in vs:
            if isinstance(v, MUTABLE):
                continue
            for name in _field_names(type(v)):
                with pytest.raises(AttributeError):
                    setattr(v, name, None)
                with pytest.raises(AttributeError):
                    delattr(v, name)
            with pytest.raises(AttributeError):
                v.unknown_field = 0
    ext = ChenExtSpec(_graph("r1").path(["e"]), Poly.make(F3, [1, 0, 1]))
    with pytest.raises(AttributeError):
        ext.extension = None
    with pytest.raises(AttributeError):
        TwistVector.make(_graph("r1"), QQ, {})._values = {}


def test_records_copy_and_pickle():
    for vs in records().values():
        for v in vs:
            assert copy.copy(v) == v
            assert pickle.loads(pickle.dumps(v)) == v


def test_certificate_records_its_checks():
    cert = Certificate("claim", {"basis": 1})
    assert cert.checks == [] and cert.passed and cert.counterexample is None
    assert Certificate("claim", {}).checks is not Certificate("claim", {}).checks
    cert.record("a", True)
    cert.record("b", False, "wrong")
    cert.record("c", False)
    assert not cert.passed and cert.counterexample == {"check": "b", "detail": "wrong"}
    assert [c["name"] for c in cert.checks] == ["a", "b", "c"]


def test_extension_is_not_compared():
    f = Poly.make(F3, [1, 0, 1])
    coeff = QuotientCoeff(f)
    e = _graph("r1").path(["e"])
    built, over = ChenExtSpec(e, f), ChenExtSpec.over(e, coeff)
    assert over.extension is coeff.extension and built.extension is not coeff.extension
    assert built == over and hash(built) == hash(over)
    assert over.shift == 0 and over.modulus is f


def test_poly_is_not_a_tuple():
    p = Poly.make(QQ, [1, 2])
    with pytest.raises(TypeError):
        len(p)
    with pytest.raises(TypeError):
        p < p
    with pytest.raises(TypeError):
        3 * p
    with pytest.raises(TypeError):
        iter(p)
    assert p + p == Poly.make(QQ, [2, 4]) and -p == Poly.make(QQ, [-1, -2])


def test_record_signatures():
    """Constructors take the fields in order, with the same defaults."""
    expected = {
        Edge: "(name, src, rng)",
        Poly: "(field, coeffs)",
        TwistVector: "(field, entries)",
        QuotientCoeff: "(modulus)",
        ChenExtSpec: "(cycle, modulus, shift=0)",
        Certificate: "(claim, window, checks=None, passed=True, counterexample=None)",
        TrivialCoeff: "(shift=0)",
        LaurentCoeff: "(shift=0)",
        ScalarAction: "(value)",
        ChenSpec: "(base, twist=None, shift=0)",
        NvcSpec: "(cycle, shift=0)",
        InducedSpec: "(base, coeff, shift=0)",
        LagSet: "(kind, k0=0, n=0)",
        IsotropyDescriptor: "(kind, generator_lag=0, cycle=())",
    }
    for cls in RECORD_TYPES:
        sig = inspect.signature(cls)
        text = "(" + ", ".join(
            n if p.default is p.empty else f"{n}={p.default!r}" for n, p in sig.parameters.items()
        ) + ")"
        assert text == expected.get(cls, "(" + ", ".join(_field_names(cls)) + ")"), cls.__name__
