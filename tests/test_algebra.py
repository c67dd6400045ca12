import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leavitt.algebra import (
    AlgebraElement,
    AlgebraError,
    LeavittAlgebra,
    Monomial,
    TwistVector,
    all_monomials,
    monomial,
    random_element,
)
from leavitt.fields import QQ, ExtensionField, PrimeField, parse_poly
from leavitt.graphs import FinitePath, Graph
from strategies import monomial_element, path_element

F2 = PrimeField(2)
TWIST_FIELDS = [
    QQ,
    PrimeField(5),
    ExtensionField(F2, parse_poly("t^2+t+1", F2)),
    ExtensionField(QQ, parse_poly("t^2-2", QQ)),
]

GRAPHS = {
    "single": Graph(["w"], []),
    "a2": Graph(["u", "v"], [("f", "u", "v")]),
    "r1": Graph(["v"], [("e", "v", "v")]),
    "toeplitz": Graph(["u", "v"], [("e", "u", "u"), ("f", "u", "v")]),
    "rose2": Graph(["v"], [("e", "v", "v"), ("g", "v", "v")]),
    "cycle3_exit": Graph(
        ["v1", "v2", "v3", "w"],
        [("a", "v1", "v2"), ("b", "v2", "v3"), ("c", "v3", "v1"), ("d", "v1", "w")],
    ),
    "chain3": Graph(["u", "w", "v"], [("f", "u", "w"), ("g", "w", "v")]),
}


@pytest.fixture(params=sorted(GRAPHS), ids=sorted(GRAPHS))
def any_graph(request):
    return GRAPHS[request.param]


def homogeneous_component(x: AlgebraElement, k: int) -> AlgebraElement:
    """The terms of x of degree k."""
    return AlgebraElement(x.algebra, {m: c for m, c in x.terms.items() if m.degree == k})


def degrees(x: AlgebraElement) -> list[int]:
    return sorted({m.degree for m in x.terms})


def sigma_twist(a: TwistVector, x: AlgebraElement) -> AlgebraElement:
    """The automorphism scaling mu.nu* by a_mu * a_nu^(-1)."""
    return AlgebraElement(x.algebra, {m: x.field.mul(a.ratio(m.mu, m.nu), c) for m, c in x.terms.items()})


def inverse_twist(a: TwistVector) -> TwistVector:
    """The twist by the inverse of each edge scalar."""
    return TwistVector(a.field, tuple((name, a.field.inv(c)) for name, c in a.entries))


def ghost_transpose(x: AlgebraElement) -> AlgebraElement:
    """The anti-automorphism sending mu.nu* to nu.mu*."""
    return AlgebraElement(x.algebra, {Monomial(m.nu, m.mu): c for m, c in x.terms.items()})


def is_stable(a: TwistVector, path) -> bool:
    """mu-stability: a_mu = 1."""
    return a.field.is_one(a.of_path(path))


class TestMonoMul:
    def test_a2_ck1(self):
        A = LeavittAlgebra(GRAPHS["a2"], QQ)
        f, fstar = A.edge("f"), A.ghost("f")
        assert f * fstar == monomial_element(A, monomial(A.graph.path(["f"]), A.graph.path(["f"])))
        assert fstar * f == A.vertex("v")

    def test_r1_ck1(self):
        A = LeavittAlgebra(GRAPHS["r1"], QQ)
        assert A.ghost("e") * A.edge("e") == A.vertex("v")

    def test_disjoint_prefixes_vanish(self):
        A = LeavittAlgebra(GRAPHS["rose2"], QQ)
        e, g = A.graph.path(["e"]), A.graph.path(["g"])
        v = A.graph.vertex_path("v")
        assert A.mono_mul(monomial(v, e), monomial(g, v)) is None

    def test_prefix_cases(self):
        A = LeavittAlgebra(GRAPHS["toeplitz"], QQ)
        ee = A.graph.path(["e", "e"])
        e = A.graph.path(["e"])
        u = A.graph.vertex_path("u")
        # nu = e is an initial subpath of ee
        m = A.mono_mul(monomial(u, e), monomial(ee, u))
        assert m == monomial(e, u)
        # mu-side absorption
        m = A.mono_mul(monomial(u, ee), monomial(e, u))
        assert m == monomial(u, e)


class TestNormalize:
    def test_r1_ck2_single_edge(self):
        A = LeavittAlgebra(GRAPHS["r1"], QQ)
        e = A.graph.path(["e"])
        x = monomial_element(A, monomial(e, e))
        assert A.normalize(x) == A.vertex("v")

    def test_rose_ck2_two_edges(self):
        A = LeavittAlgebra(GRAPHS["rose2"], QQ)
        e, g = A.graph.path(["e"]), A.graph.path(["g"])
        ee = monomial_element(A, monomial(e, e))
        assert A.normalize(ee) == A.vertex("v") - monomial_element(A, monomial(g, g))

    def test_normal_monomial_fixed(self, any_graph):
        A = LeavittAlgebra(any_graph, QQ)
        for m in all_monomials(any_graph, 2):
            if A.is_normal(m):
                x = monomial_element(A, m)
                assert A.normalize(x).terms == x.terms

    def test_idempotent(self, any_graph):
        rng = random.Random(3)
        A = LeavittAlgebra(any_graph, QQ)
        for _ in range(25):
            x = random_element(A, rng)
            nx = A.normalize(x)
            assert A.normalize(nx).terms == nx.terms

    def test_linear(self, any_graph):
        rng = random.Random(4)
        A = LeavittAlgebra(any_graph, QQ)
        for _ in range(25):
            x, y = random_element(A, rng), random_element(A, rng)
            assert A.normalize(x + y).terms == (A.normalize(x) + A.normalize(y)).terms

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_order_independent(self, seed):
        # randomize the rewrite scheduling; the normal form must not move
        rng = random.Random(seed)
        A = LeavittAlgebra(GRAPHS["cycle3_exit"], QQ)
        x = random_element(A, rng, max_len=3, max_terms=3)
        items = list(x.terms.items())
        rng.shuffle(items)
        assert A._normalize_terms(items) == A._normalize_terms(list(x.terms.items()))

    def test_degree_preserved(self, any_graph):
        rng = random.Random(5)
        A = LeavittAlgebra(any_graph, QQ)
        for _ in range(25):
            x = random_element(A, rng)
            for k in range(-3, 4):
                lhs = A.normalize(homogeneous_component(x, k))
                rhs = homogeneous_component(A.normalize(x), k)
                assert lhs.terms == rhs.terms


def defining_relations_hold(graph, field):
    A = LeavittAlgebra(graph, field)
    for v in graph.vertices:
        for w in graph.vertices:
            expect = A.vertex(v) if v == w else A.zero()
            assert A.vertex(v) * A.vertex(w) == expect  # (V)
    for e in graph.edges:
        el, gh = A.edge(e.name), A.ghost(e.name)
        assert A.vertex(e.src) * el == el == el * A.vertex(e.rng)  # (E1)
        assert A.vertex(e.rng) * gh == gh == gh * A.vertex(e.src)  # (E2)
        for f in graph.edges:
            expect = A.vertex(e.rng) if e.name == f.name else A.zero()
            assert A.ghost(e.name) * A.edge(f.name) == expect  # (CK1)
    for v in graph.vertices:
        if graph.is_regular(v):
            acc = A.zero()
            for e in graph.out_edges(v):
                acc = acc + A.edge(e.name) * A.ghost(e.name)
            assert acc == A.vertex(v)  # (CK2)
    return True


class TestLinearCombination:
    @pytest.mark.parametrize("field", [QQ, F2], ids=lambda F: F.name)
    def test_add_then_subtract_and_scale_by_zero(self, any_graph, field):
        rng = random.Random(11)
        A = LeavittAlgebra(any_graph, field)
        for _ in range(25):
            u, v = random_element(A, rng), random_element(A, rng)
            assert ((u + v) - v).terms == u.terms
            assert (u + v) - v == u
            assert u.scale(0).is_zero


class TestRelationsAndProducts:
    @pytest.mark.parametrize("field", [QQ, F2], ids=["Q", "F2"])
    def test_defining_relations(self, any_graph, field):
        assert defining_relations_hold(any_graph, field)

    def test_r1_square(self):
        A = LeavittAlgebra(GRAPHS["r1"], QQ)
        e, estar, v = A.edge("e"), A.ghost("e"), A.vertex("v")
        lhs = (e + estar) * (e + estar)
        rhs = e * e + v.scale(2) + estar * estar
        assert lhs == rhs

    def test_mul_by_zero(self):
        A = LeavittAlgebra(GRAPHS["a2"], QQ)
        x = A.edge("f") + A.vertex("u")
        assert (x * A.zero()).is_zero
        assert (A.zero() * x).is_zero

    def test_a2_ck2_at_u(self):
        A = LeavittAlgebra(GRAPHS["a2"], QQ)
        assert A.edge("f") * A.ghost("f") == A.vertex("u")

    @pytest.mark.parametrize("field", [QQ, F2], ids=["Q", "F2"])
    def test_associativity_random_triples(self, any_graph, field):
        rng = random.Random(11)
        A = LeavittAlgebra(any_graph, field)
        for _ in range(200):
            x, y, z = (random_element(A, rng) for _ in range(3))
            assert ((x * y) * z).terms == (x * (y * z)).terms

    def test_one_is_identity(self, any_graph):
        rng = random.Random(13)
        A = LeavittAlgebra(any_graph, QQ)
        one = A.one()
        for _ in range(10):
            x = random_element(A, rng)
            assert one * x == x == x * one

    def test_grading_multiplicative(self, any_graph):
        rng = random.Random(17)
        A = LeavittAlgebra(any_graph, QQ)
        for _ in range(40):
            x = random_element(A, rng)
            y = random_element(A, rng)
            for j in degrees(x):
                for k in degrees(y):
                    prod = homogeneous_component(x, j) * homogeneous_component(y, k)
                    assert prod.is_zero or degrees(prod) == [j + k]


class TestHomogeneous:
    def test_components(self):
        A = LeavittAlgebra(GRAPHS["r1"], QQ)
        x = A.edge("e") + A.ghost("e")
        assert homogeneous_component(x, 1) == A.edge("e")
        assert homogeneous_component(A.vertex("v"), 0) == A.vertex("v")

    def test_sum_of_components(self):
        rng = random.Random(19)
        A = LeavittAlgebra(GRAPHS["toeplitz"], QQ)
        for _ in range(20):
            x = random_element(A, rng, max_len=3, max_terms=3)
            acc = A.zero()
            for k in degrees(x):
                acc = acc + homogeneous_component(x, k)
            assert acc.terms == x.terms


class TestTwist:
    def test_fixes_vertices(self):
        A = LeavittAlgebra(GRAPHS["rose2"], QQ)
        a = TwistVector.make(A.graph, QQ, {"e": 2, "g": 3})
        assert sigma_twist(a, A.vertex("v")) == A.vertex("v")

    def test_multiplicative_on_paths(self):
        A = LeavittAlgebra(GRAPHS["toeplitz"], QQ)
        a = TwistVector.make(A.graph, QQ, {"e": 2, "f": 5})
        ef = path_element(A, A.graph.path(["e", "f"]))
        assert sigma_twist(a, ef) == ef.scale(10)

    def test_inverse_twist(self):
        rng = random.Random(23)
        A = LeavittAlgebra(GRAPHS["rose2"], QQ)
        a = TwistVector.make(A.graph, QQ, {"e": 2, "g": -3})
        for _ in range(20):
            x = random_element(A, rng)
            assert sigma_twist(a, sigma_twist(inverse_twist(a), x)) == x

    def test_is_automorphism(self):
        rng = random.Random(29)
        A = LeavittAlgebra(GRAPHS["rose2"], QQ)
        a = TwistVector.make(A.graph, QQ, {"e": 2, "g": 7})
        for _ in range(20):
            x, y = random_element(A, rng), random_element(A, rng)
            assert sigma_twist(a, x * y) == sigma_twist(a, x) * sigma_twist(a, y)

    def test_path_products(self):
        g = GRAPHS["r1"]
        a = TwistVector.make(g, QQ, {"e": 2})
        assert a.of_path(g.vertex_path("v")) == 1
        assert a.of_path(g.path(["e", "e", "e"])) == 8

    def test_rotation_invariance(self):
        g = Graph(["v1", "v2", "v3"], [("a", "v1", "v2"), ("b", "v2", "v3"), ("c", "v3", "v1")])
        a = TwistVector.make(g, QQ, {"a": 2, "b": 3, "c": 5})
        rots = [["a", "b", "c"], ["b", "c", "a"], ["c", "a", "b"]]
        vals = {a.of_path(g.path(r)) for r in rots}
        assert vals == {30}

    def test_stability(self):
        g = GRAPHS["rose2"]
        a = TwistVector.make(g, QQ, {"e": 2, "g": QQ.coerce(1) / 2})
        assert is_stable(a, g.path(["e", "g"]))
        assert not is_stable(a, g.path(["e"]))

    def test_zero_twist_rejected(self):
        with pytest.raises(AlgebraError):
            TwistVector.make(GRAPHS["r1"], QQ, {"e": 0})

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=150, deadline=None)
    def test_ratio_against_written_out_products(self, seed):
        # a_mu * (a_nu)^(-1), with both products written out from the edge values
        rng = random.Random(seed)
        F = rng.choice(TWIST_FIELDS)
        g = GRAPHS[rng.choice(["toeplitz", "rose2", "cycle3_exit"])]
        values = {}
        for e in g.edges:
            c = F.zero()
            while F.is_zero(c):
                c = F.random(rng)
            values[e.name] = c
        a = TwistVector.make(g, F, values)

        def walk():
            v, names = rng.choice(g.vertices), []
            for _ in range(rng.randint(0, 4)):
                if not g.out_edges(v):
                    break
                e = rng.choice(g.out_edges(v))
                names.append(e.name)
                v = e.rng
            return g.path(names) if names else g.vertex_path(v)

        def product(path):
            out = F.one()
            for name in path.edges:
                out = F.mul(out, values[name])
            return out

        mu, nu = walk(), walk()
        assert a.ratio(mu, nu) == F.mul(product(mu), F.inv(product(nu)))
        assert a.of_path(mu) == product(mu)

    @pytest.mark.parametrize("F", TWIST_FIELDS, ids=lambda F: F.name)
    @pytest.mark.parametrize("name", ["toeplitz", "rose2", "cycle3_exit"])
    def test_memoized_products_cold_and_warm(self, F, name):
        # All edges but one share a value, so the inverses come from the table
        # of distinct values; every call runs twice, the second from the memo.
        g = GRAPHS[name]
        rng = random.Random(name)

        def nonzero():
            c = F.zero()
            while F.is_zero(c):
                c = F.random(rng)
            return c

        values = {e.name: nonzero() for e in g.edges[:1]}
        shared = nonzero()
        values.update({e.name: shared for e in g.edges[1:]})
        a = TwistVector.make(g, F, values)
        paths = [g.vertex_path(v) for v in g.vertices]
        frontier = paths
        for _ in range(3):
            frontier = [g.path(p.edges + (e.name,)) for p in frontier for e in g.out_edges(p.rng)]
            paths = paths + frontier
        products = {}
        for p in paths:
            out = F.one()
            for n in p.edges:
                out = F.mul(out, values[n])
            products[p] = out, F.inv(out)
        for _ in range(2):
            for mu in paths:
                assert a.of_path(mu) == products[mu][0], mu
                for nu in paths:
                    assert a.ratio(mu, nu) == F.mul(products[mu][0], products[nu][1]), (mu, nu)
        for e in g.edges:
            assert inverse_twist(a).value(e.name) == F.inv(values[e.name])

    def test_unknown_edge_raises(self):
        g = GRAPHS["r1"]
        a = TwistVector.make(g, QQ, {"e": 2})
        stray = FinitePath(("zz",), "v", "v")
        for mu, nu in ((stray, g.vertex_path("v")), (g.path(["e"]), stray)):
            with pytest.raises(AlgebraError, match="zz"):
                a.ratio(mu, nu)
        with pytest.raises(AlgebraError):
            a.value("zz")


class TestGhostTranspose:
    def test_antimultiplicative(self):
        rng = random.Random(31)
        A = LeavittAlgebra(GRAPHS["toeplitz"], QQ)
        for _ in range(20):
            x, y = random_element(A, rng), random_element(A, rng)
            assert ghost_transpose(x * y) == ghost_transpose(y) * ghost_transpose(x)
