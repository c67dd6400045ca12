import random

import pytest

from fixture_graphs import tree_into_loop
from leavitt.algebra import LeavittAlgebra, TwistVector, all_monomials, monomial, random_element
from leavitt.fields import QQ, ExtensionField, PrimeField, parse_poly
from leavitt.graphs import Graph, lasso, sink_path, tail_lags, unroll
from leavitt.reps import (
    ChenBasis,
    ChenExtSpec,
    ChenSpec,
    CosetBasis,
    InducedSpec,
    LaurentCoeff,
    ModuleSpecError,
    NotGradableError,
    NvcBasis,
    NvcSpec,
    QuotientCoeff,
    ScalarAction,
    TrivialCoeff,
    build_module,
    quotient_field,
)
from strategies import monomial_element

F2 = PrimeField(2)


def chen(graph, field, base, twist=None, shift=0):
    return build_module(graph, field, ChenSpec(base, twist, shift))


class TestBasisEnumeration:
    def test_a2_chen(self, a2):
        M = chen(a2, QQ, sink_path(a2, a2.vertex_path("v")))
        res = M.enumerate_basis()
        assert [str(b) for b in res.elements] == ["v", "f"]
        assert res.exact and len(res.elements) == 2

    def test_toeplitz_ext_dimension(self, toeplitz):
        spec = ChenExtSpec(toeplitz.path(["e"]), parse_poly("t^2+t+1", F2))
        M = build_module(toeplitz, F2, spec)
        res = M.enumerate_basis()
        assert res.exact and len(res.elements) == 1 * 2
        assert [str(b) for b in res.elements] == ["(e)^inf", "(e)^inf#1"]

    def test_r1_nvc_graded_components_dim_one(self, r1):
        M = build_module(r1, QQ, NvcSpec(r1.path(["e"])))
        res = M.enumerate_basis(bound=4)
        assert not res.exact
        by_degree = {}
        for b in res.elements:
            by_degree.setdefault(M.grade(b), []).append(b)
        for d in range(-4, 5):
            assert len(by_degree[d]) == 1

    def test_nvc_shapes_on_r1(self, r1):
        # normal form kills ee*, leaving pure e^i or pure ghost (e^j)* shapes
        M = build_module(r1, QQ, NvcSpec(r1.path(["e"])))
        for b in M.enumerate_basis(bound=3).elements:
            assert b.mono.mu.is_trivial or b.mono.nu.is_trivial

    def test_chen_infinite_dimension_flag(self, toeplitz):
        M = chen(toeplitz, QQ, sink_path(toeplitz, toeplitz.vertex_path("v")))
        res = M.enumerate_basis(bound=3)
        assert not res.exact

    def test_nvc_rejects_cycle_with_exits(self, rose2):
        with pytest.raises(ModuleSpecError, match="exit"):
            build_module(rose2, QQ, NvcSpec(rose2.path(["e"])))

    def test_induced_laurent_window(self, r1):
        x = lasso(r1, r1.vertex_path("v"), ["e"])
        M = build_module(r1, QQ, InducedSpec(x, LaurentCoeff(0)))
        res = M.enumerate_basis(bound=3)
        assert [b.lag for b in res.elements] == list(range(-3, 4))


class TestChenAction:
    def test_a2_prefix_rule(self, a2):
        M = chen(a2, QQ, sink_path(a2, a2.vertex_path("v")))
        A = M.algebra()
        fvec = M.vector({ChenBasis(sink_path(a2, a2.path(["f"]))): 1})
        vvec = M.vector({ChenBasis(sink_path(a2, a2.vertex_path("v"))): 1})
        assert M.act(A.ghost("f"), fvec) == vvec
        assert M.act(A.edge("f"), vvec) == fvec
        assert M.act(A.ghost("f"), vvec).is_zero

    def test_ghost_kills_sink_vertex(self, a2):
        # e*.p = 0 when p is the length-0 path at a sink
        M = chen(a2, QQ, sink_path(a2, a2.vertex_path("v")))
        A = M.algebra()
        vvec = M.vector({ChenBasis(sink_path(a2, a2.vertex_path("v"))): 1})
        assert M.act(A.ghost("f"), vvec).is_zero

    def test_r1_twisted_scalar(self, r1):
        a = TwistVector.make(r1, QQ, {"e": 5})
        x = lasso(r1, r1.vertex_path("v"), ["e"])
        M = chen(r1, QQ, x, twist=a)
        A = M.algebra()
        xv = M.vector({ChenBasis(x): 1})
        assert M.act(A.edge("e"), xv) == xv.scale(5)
        assert M.act(A.ghost("e"), xv) == xv.scale(QQ.coerce(1) / 5)

    def test_toeplitz_ext_tbar_action(self, toeplitz):
        spec = ChenExtSpec(toeplitz.path(["e"]), parse_poly("t^2+t+1", F2))
        M = build_module(toeplitz, F2, spec)
        A = M.algebra()
        x = M.base
        one = M.vector({ChenBasis(x, 0): 1})
        tbar = M.vector({ChenBasis(x, 1): 1})
        assert M.act(A.edge("e"), one) == tbar
        # t^2 = t + 1 in F2[t]/(t^2+t+1)
        assert M.act(A.edge("e"), tbar) == one + tbar

    def test_nvc_action_generators(self, r1):
        M = build_module(r1, QQ, NvcSpec(r1.path(["e"])))
        A = M.algebra()
        v = r1.vertex_path("v")
        e = r1.path(["e"])
        vb = M.vector({NvcBasis(monomial(v, v)): 1})
        eb = M.vector({NvcBasis(monomial(e, v)): 1})
        ghost = M.vector({NvcBasis(monomial(v, e)): 1})
        assert M.act(A.edge("e"), vb) == eb
        assert M.act(A.ghost("e"), vb) == ghost  # e*.v is the ghost basis element
        assert M.act(A.edge("e"), ghost) == vb   # e e* = v under the no-exit relation
        assert M.act(A.ghost("e"), eb) == vb

    def test_induced_action_matches_morphism_formula(self, a2):
        x = sink_path(a2, a2.vertex_path("v"))
        M = build_module(a2, QQ, InducedSpec(x, TrivialCoeff(0)))
        A = M.algebra()
        unit = M.vector({CosetBasis(x, 0): 1})
        f_elt = M.vector({CosetBasis(sink_path(a2, a2.path(["f"])), 1): 1})
        assert M.act(A.edge("f"), unit) == f_elt
        assert M.act(A.ghost("f"), f_elt) == unit


class TestInducedCanonicalization:
    def test_scalar_absorption(self, r1):
        x = lasso(r1, r1.vertex_path("v"), ["e"])
        M = build_module(r1, QQ, InducedSpec(x, ScalarAction(QQ.coerce(7))))
        A = M.algebra()
        base = M.vector({CosetBasis(x, 0): 1})
        assert M.act(A.edge("e"), base) == base.scale(7)
        assert M.act(A.ghost("e"), base) == base.scale(QQ.coerce(1) / 7)

    def test_quotient_absorption_companion(self, toeplitz):
        x = lasso(toeplitz, toeplitz.vertex_path("u"), ["e"])
        M = build_module(toeplitz, F2, InducedSpec(x, QuotientCoeff(parse_poly("t^2+t+1", F2))))
        A = M.algebra()
        one = M.vector({CosetBasis(x, 0, 0): 1})
        tbar = M.vector({CosetBasis(x, 0, 1): 1})
        assert M.act(A.edge("e"), one) == tbar
        assert M.act(A.edge("e"), tbar) == one + tbar

    def test_lasso_graph_lags(self, lasso_graph):
        x = lasso(lasso_graph, lasso_graph.vertex_path("v"), ["e"])
        M = build_module(lasso_graph, QQ, InducedSpec(x, ScalarAction(QQ.coerce(3))))
        y = lasso(lasso_graph, lasso_graph.path(["f"]), ["e"])
        assert M.canonical_lag(x) == 0
        assert M.canonical_lag(y) == 1

    @pytest.mark.parametrize(
        "field, coeff",
        [
            (QQ, ScalarAction(QQ.coerce(7))),
            (PrimeField(3), QuotientCoeff(parse_poly("t^2+1", PrimeField(3)))),
            (QQ, QuotientCoeff(parse_poly("t^2-2", QQ))),
        ],
        ids=["Q-Ka(7)", "F3-quot(t^2+1)", "Q-quot(t^2-2)"],
    )
    def test_generator_powers_cold_and_warm(self, r1, field, coeff):
        # e^n and (e^*)^n fix the coset of (e)^inf and move its lag by n, so
        # they act by g^n; the module memoizes g^n t^j per (n, j).
        x = lasso(r1, r1.vertex_path("v"), ["e"])
        M = build_module(r1, field, InducedSpec(x, coeff))
        v = r1.vertex_path("v")
        for _ in range(2):
            for n in range(-4, 5):
                e_n = r1.path(["e"] * abs(n)) if n else v
                mono = monomial(e_n, v) if n >= 0 else monomial(v, e_n)
                for j in range(M.tensor_degree):
                    value = M.expand(M.scalars.pow(M.generator, n), j)
                    expected = {CosetBasis(x, 0, i): c for i, c in value.items()}
                    assert M.act_monomial_basis(mono, CosetBasis(x, 0, j)) == expected, (n, j)

    def test_rational_base_rejects_trivial_coeff(self, r1):
        x = lasso(r1, r1.vertex_path("v"), ["e"])
        with pytest.raises(ModuleSpecError):
            build_module(r1, QQ, InducedSpec(x, TrivialCoeff(0)))

    def test_sink_base_rejects_laurent(self, a2):
        x = sink_path(a2, a2.vertex_path("v"))
        with pytest.raises(ModuleSpecError):
            build_module(a2, QQ, InducedSpec(x, LaurentCoeff(0)))


class TestGrading:
    def test_a2_lags(self, a2):
        M = chen(a2, QQ, sink_path(a2, a2.vertex_path("v")))
        assert M.grade(ChenBasis(sink_path(a2, a2.path(["f"])))) == 1
        assert M.grade(ChenBasis(sink_path(a2, a2.vertex_path("v")))) == 0

    def test_rational_chen_not_gradable(self, r1):
        x = lasso(r1, r1.vertex_path("v"), ["e"])
        M = chen(r1, QQ, x)
        with pytest.raises(NotGradableError):
            M.grade(ChenBasis(x))

    def test_nvc_degree(self, r1):
        M = build_module(r1, QQ, NvcSpec(r1.path(["e"])))
        ee_estar = monomial(r1.path(["e", "e"]), r1.path(["e"]))
        assert M.grade(NvcBasis(ee_estar)) == 1

    def test_shift_coherence(self, a2):
        base = sink_path(a2, a2.vertex_path("v"))
        M0 = chen(a2, QQ, base)
        M3 = chen(a2, QQ, base, shift=3)
        for b in M0.enumerate_basis().elements:
            assert M3.grade(b) == M0.grade(b) - 3

    def test_laurent_grading(self, r1):
        x = lasso(r1, r1.vertex_path("v"), ["e"])
        M = build_module(r1, QQ, InducedSpec(x, LaurentCoeff(0)))
        M1 = build_module(r1, QQ, InducedSpec(x, LaurentCoeff(0), shift=1))
        b = CosetBasis(x, 4)
        assert M.grade(b) == 4
        assert M1.grade(b) == 3

    def test_degree_additivity(self, a2, r1, lasso_graph):
        cases = [
            chen(a2, QQ, sink_path(a2, a2.vertex_path("v"))),
            build_module(r1, QQ, NvcSpec(r1.path(["e"]))),
            build_module(
                lasso_graph,
                QQ,
                InducedSpec(lasso(lasso_graph, lasso_graph.vertex_path("v"), ["e"]), LaurentCoeff(0)),
            ),
        ]
        for M in cases:
            A = M.algebra()
            basis = M.enumerate_basis(bound=3).elements
            for m in all_monomials(M.graph, 2):
                elt = monomial_element(A, m)  # one term, so homogeneous of degree m.degree
                for b in basis:
                    out = M.act(elt, M.vector({b: 1}))
                    for b2 in out.terms:
                        assert M.grade(b2) == m.degree + M.grade(b)


class TestModuleAxioms:
    @pytest.mark.parametrize("which", ["chen-sink", "chen-twist", "ext", "nvc", "ind-laurent", "ind-quot"])
    def test_associative_action(self, which, a2, r1, toeplitz, lasso_graph):
        rng = random.Random(101)
        if which == "chen-sink":
            M = chen(a2, QQ, sink_path(a2, a2.vertex_path("v")))
        elif which == "chen-twist":
            a = TwistVector.make(r1, QQ, {"e": 3})
            M = chen(r1, QQ, lasso(r1, r1.vertex_path("v"), ["e"]), twist=a)
        elif which == "ext":
            M = build_module(toeplitz, F2, ChenExtSpec(toeplitz.path(["e"]), parse_poly("t^2+t+1", F2)))
        elif which == "nvc":
            M = build_module(lasso_graph, QQ, NvcSpec(lasso_graph.path(["e"])))
        elif which == "ind-laurent":
            x = lasso(r1, r1.vertex_path("v"), ["e"])
            M = build_module(r1, QQ, InducedSpec(x, LaurentCoeff(0)))
        else:
            x = lasso(toeplitz, toeplitz.vertex_path("u"), ["e"])
            M = build_module(toeplitz, QQ, InducedSpec(x, QuotientCoeff(parse_poly("t^2-2", QQ))))
        A = M.algebra()
        basis = M.enumerate_basis(bound=4).elements
        for _ in range(200):
            eta = random_element(A, rng)
            theta = random_element(A, rng)
            b = basis[rng.randrange(len(basis))]
            vec = M.vector({b: M.field.random(rng)})
            lhs = M.act(A.mul(eta, theta), vec)
            rhs = M.act(eta, M.act(theta, vec))
            assert lhs == rhs

    def test_linearity(self, a2):
        rng = random.Random(5)
        M = chen(a2, QQ, sink_path(a2, a2.vertex_path("v")))
        A = M.algebra()
        basis = M.enumerate_basis().elements
        for _ in range(50):
            eta = random_element(A, rng)
            v1 = M.vector({basis[rng.randrange(len(basis))]: QQ.random(rng)})
            v2 = M.vector({basis[rng.randrange(len(basis))]: QQ.random(rng)})
            assert M.act(eta, v1 + v2) == M.act(eta, v1) + M.act(eta, v2)


class TestWellDefinedLag:
    def test_unique_lag_by_exhaustive_decomposition(self, a2, chain3):
        # for a non-rational class, every decomposition y = mu.p, x = nu.p
        # yields the same lag |mu| - |nu|
        for graph, v in ((a2, "v"), (chain3, "v")):
            x = sink_path(graph, graph.vertex_path(v))
            from leavitt.groupoid import orbit

            elems = orbit(graph, x).elements
            for y in elems:
                lags = set()
                for m in range(len(unroll(y, 10)) + 1):
                    for l in range(len(unroll(x, 10)) + 1):
                        if unroll(y, 10)[m:] == unroll(x, 10)[l:]:
                            # suffix alignment must also match endpoints
                            lags.add(m - l)
                assert lags == {tail_lags(y, x).k0}


class TestVectorArithmetic:
    def test_checked_entry_point_coerces_and_drops_zeros(self, a2):
        M = chen(a2, F2, sink_path(a2, a2.vertex_path("v")))
        b = ChenBasis(sink_path(a2, a2.path(["f"])))
        assert M.vector({b: 0}).terms == {}
        assert M.vector({b: 2}).terms == {}
        assert M.vector({b: 3}).terms == {b: 1}
        assert (M.vector({b: 1}) - M.vector({b: 1})).terms == {}

    @pytest.mark.parametrize("field", [QQ, F2], ids=lambda F: F.name)
    def test_add_then_subtract_and_scale_by_zero(self, toeplitz, field):
        M = chen(toeplitz, field, sink_path(toeplitz, toeplitz.vertex_path("v")))
        basis = M.enumerate_basis(bound=3).elements
        rng = random.Random(13)
        for _ in range(25):
            u, v = (
                M.vector({b: field.random(rng) for b in rng.sample(basis, 3)})
                for _ in range(2)
            )
            assert ((u + v) - v).terms == u.terms
            assert (u + v) - v == u
            assert u.scale(0).is_zero


class TestModulusValidation:
    def test_rejects_t(self):
        with pytest.raises(ModuleSpecError):
            quotient_field(F2, parse_poly("t", F2))

    def test_rejects_reducible(self):
        with pytest.raises(ModuleSpecError):
            quotient_field(F2, parse_poly("t^2+1", F2))

    def test_accepts_irreducible(self):
        f = parse_poly("t^2+t+1", F2)
        assert quotient_field(F2, f).modulus == f

    def test_module_over_another_field_is_rejected(self, toeplitz):
        F3 = PrimeField(3)
        f = parse_poly("t^2+1", F3)
        x = lasso(toeplitz, toeplitz.vertex_path("u"), ["e"])
        with pytest.raises(ModuleSpecError, match="not over the base field"):
            build_module(toeplitz, F2, ChenExtSpec(toeplitz.path(["e"]), f))
        with pytest.raises(ModuleSpecError, match="not over the base field"):
            build_module(toeplitz, F2, InducedSpec(x, QuotientCoeff(f)))

    def test_spec_over_a_quotient_shares_its_field(self, toeplitz, monkeypatch):
        from leavitt import fields

        coeff = QuotientCoeff(parse_poly("t^2+t+1", F2))
        monkeypatch.setattr(fields, "is_irreducible", lambda f: pytest.fail("modulus tested again"))
        spec = ChenExtSpec.over(toeplitz.path(["e"]), coeff)
        assert spec.extension is coeff.extension
        monkeypatch.undo()
        assert spec == ChenExtSpec(toeplitz.path(["e"]), coeff.modulus)
        assert build_module(toeplitz, F2, spec).extension is coeff.extension


class TestTwistInversions:
    def test_each_distinct_twist_value_is_inverted_once(self, monkeypatch):
        # A binary tree of depth 3 into a loop l: 15 edges, and the scalar
        # extension's twist is the class of t on l and one on the 14 others.
        g = Graph(*tree_into_loop(3))
        calls = []
        real = ExtensionField.inv
        monkeypatch.setattr(ExtensionField, "inv", lambda self, a: calls.append(a) or real(self, a))
        M = build_module(g, QQ, ChenExtSpec(g.path(["l"]), parse_poly("t^2-2", QQ)))
        assert len(g.edges) == 15
        assert sorted(calls) == sorted([M.extension.one(), M.extension.tbar()])


class TestExpand:
    """``Module.expand`` gives the sparse ground-field coordinates of a*t^j."""

    def test_zero_coordinates_are_dropped(self, toeplitz):
        M = build_module(toeplitz, F2, ChenExtSpec(toeplitz.path(["e"]), parse_poly("t^2+t+1", F2)))
        t = M.extension.tbar()
        assert M.expand(M.extension.one(), 0) == {0: 1}
        assert M.expand(M.extension.one(), 1) == {1: 1}
        assert M.expand(t, 1) == {0: 1, 1: 1}  # t^2 = t + 1
        for a in [M.extension.one(), t, M.extension.add(t, M.extension.one())]:
            for j in range(2):
                dense = M.extension.expand(a, j)
                assert M.expand(a, j) == {i: c for i, c in enumerate(dense) if c}

    def test_without_extension(self, toeplitz):
        M = chen(toeplitz, QQ, lasso(toeplitz, toeplitz.vertex_path("u"), ["e"]))
        assert M.expand(QQ.coerce(3), 0) == {0: 3}
