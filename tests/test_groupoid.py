import pytest

from leavitt.algebra import LeavittAlgebra, all_monomials, monomial
from leavitt.fields import QQ
from leavitt.graphs import BoundaryPath, Graph, LagSet, lasso, sink_path, strip_prefix, tail_lags, unroll
from leavitt.groupoid import (
    Bisection,
    GroupoidElement,
    GroupoidError,
    bisection,
    bisection_product,
    bisections_match_monomial,
    isotropy,
    monomial_bisection,
    orbit,
    orbit_size,
    pi_consistency,
)


def groupoid_element(x: BoundaryPath, k: int, y: BoundaryPath) -> GroupoidElement:
    """(x, k, y), refused unless x is tail-equivalent to y with lag k."""
    if not tail_lags(x, y).contains(k):
        raise GroupoidError(f"{x} is not tail-equivalent to {y} with lag {k}")
    return GroupoidElement(x, k, y)


def compose(g: GroupoidElement, h: GroupoidElement) -> GroupoidElement:
    """(x, k, y)(y, l, z) = (x, k+l, z)."""
    if g.y != h.x:
        raise GroupoidError(f"not composable: {g} then {h}")
    return GroupoidElement(g.x, g.k + h.k, h.y)


def inverse(g: GroupoidElement) -> GroupoidElement:
    return GroupoidElement(g.y, -g.k, g.x)


def degree(g: GroupoidElement) -> int:
    return g.k


def membership(graph: Graph, g: GroupoidElement, b: Bisection) -> bool:
    """Whether g = (mu.p, |mu|-|nu|, nu.p) for some p not starting in the excluded set."""
    if g.k != b.degree:
        return False
    p1 = strip_prefix(graph, b.mu, g.x)
    if p1 is None:
        return False
    p2 = strip_prefix(graph, b.nu, g.y)
    if p2 is None or p1 != p2:
        return False
    first = unroll(p1, 1)
    return not first or first[0] not in b.excluded


class TestGroupoidOps:
    def test_inverse_law(self, a2):
        x = sink_path(a2, a2.path(["f"]))
        y = sink_path(a2, a2.vertex_path("v"))
        g = groupoid_element(x, 1, y)
        assert compose(g, inverse(g)) == groupoid_element(x, 0, x)
        assert compose(inverse(g), g) == groupoid_element(y, 0, y)

    def test_lag_addition(self, r1):
        x = lasso(r1, r1.vertex_path("v"), ["e"])
        g = groupoid_element(x, 1, x)
        h = groupoid_element(x, 2, x)
        assert compose(g, h) == groupoid_element(x, 3, x)
        assert degree(compose(g, h)) == degree(g) + degree(h)

    def test_non_composable(self, a2):
        x = sink_path(a2, a2.path(["f"]))
        y = sink_path(a2, a2.vertex_path("v"))
        g = groupoid_element(x, 1, y)
        with pytest.raises(GroupoidError):
            compose(g, g)

    def test_invalid_lag_rejected(self, a2):
        x = sink_path(a2, a2.path(["f"]))
        y = sink_path(a2, a2.vertex_path("v"))
        with pytest.raises(GroupoidError):
            groupoid_element(x, 2, y)

    def test_unit_laws(self, r1):
        x = lasso(r1, r1.vertex_path("v"), ["e"])
        g = groupoid_element(x, 5, x)
        assert compose(g, groupoid_element(x, 0, x)) == g
        assert compose(groupoid_element(x, 0, x), g) == g

    def test_associativity_where_defined(self, lasso_graph):
        x = lasso(lasso_graph, lasso_graph.vertex_path("v"), ["e"])
        y = lasso(lasso_graph, lasso_graph.path(["f"]), ["e"])
        g = groupoid_element(y, 1, x)
        h = groupoid_element(x, 3, x)
        k = groupoid_element(x, -2, y)
        assert compose(compose(g, h), k) == compose(g, compose(h, k))


class TestMembership:
    def test_a2(self, a2):
        g = groupoid_element(sink_path(a2, a2.path(["f"])), 1, sink_path(a2, a2.vertex_path("v")))
        b = bisection(a2, a2.path(["f"]), a2.vertex_path("v"))
        assert membership(a2, g, b)

    def test_r1_cylinder(self, r1):
        x = lasso(r1, r1.vertex_path("v"), ["e"])
        g = groupoid_element(x, 0, x)
        b = bisection(r1, r1.path(["e"]), r1.path(["e"]))
        assert membership(r1, g, b)

    def test_exclusion(self, r1):
        x = lasso(r1, r1.vertex_path("v"), ["e"])
        g = groupoid_element(x, 0, x)
        v = r1.vertex_path("v")
        b = bisection(r1, v, v, excluded={"e"})
        assert not membership(r1, g, b)

    def test_wrong_degree(self, r1):
        x = lasso(r1, r1.vertex_path("v"), ["e"])
        g = groupoid_element(x, 2, x)
        b = bisection(r1, r1.path(["e"]), r1.path(["e"]))
        assert not membership(r1, g, b)


class TestBisectionProduct:
    def test_r1_products(self, r1):
        e, v = r1.path(["e"]), r1.vertex_path("v")
        prod = bisection_product(r1, bisection(r1, e, v), bisection(r1, v, e))
        assert prod == [bisection(r1, e, e)]
        prod = bisection_product(r1, bisection(r1, v, e), bisection(r1, e, v))
        assert prod == [bisection(r1, v, v)]

    def test_a2_vanishing(self, a2):
        f, v = a2.path(["f"]), a2.vertex_path("v")
        assert bisection_product(a2, bisection(a2, f, v), bisection(a2, f, v)) == []

    def test_exclusion_blocks(self, toeplitz):
        u = toeplitz.vertex_path("u")
        e = toeplitz.path(["e"])
        left = bisection(toeplitz, u, u, excluded={"e"})
        right = bisection(toeplitz, e, u)
        assert bisection_product(toeplitz, left, right) == []

    def test_exclusions_merge_on_equal_middle(self, toeplitz):
        u = toeplitz.vertex_path("u")
        left = bisection(toeplitz, u, u, excluded={"e"})
        right = bisection(toeplitz, u, u, excluded={"f"})
        prod = bisection_product(toeplitz, left, right)
        assert prod == [bisection(toeplitz, u, u, excluded={"e", "f"})]


class TestPiConsistency:
    @pytest.mark.parametrize("gname", ["a2", "r1"])
    def test_exhaustive_small(self, gname, request):
        graph = request.getfixturevalue(gname)
        A = LeavittAlgebra(graph, QQ)
        monos = all_monomials(graph, 3)
        for m1 in monos:
            for m2 in monos:
                assert pi_consistency(A, m1, m2)

    def test_negative_control(self, a2):
        A = LeavittAlgebra(a2, QQ)
        f, v = a2.path(["f"]), a2.vertex_path("v")
        m1, m2 = monomial(f, v), monomial(v, v)
        prod = A.mono_mul(m1, m2)
        good = bisection_product(a2, monomial_bisection(a2, m1), monomial_bisection(a2, m2))
        assert bisections_match_monomial(prod, good)
        corrupted = [Bisection(b.nu, b.mu, b.excluded) for b in good]  # swapped legs
        assert not bisections_match_monomial(prod, corrupted)
        assert not bisections_match_monomial(None, good)


class TestIsotropyAndOrbit:
    def test_a2_sink(self, a2):
        x = sink_path(a2, a2.vertex_path("v"))
        assert isotropy(x).is_trivial
        res = orbit(a2, x)
        assert [str(p) for p in res.elements] == ["v", "f"]
        assert res.exact
        assert orbit_size(a2, x) == 2

    def test_r1_loop(self, r1):
        x = lasso(r1, r1.vertex_path("v"), ["e"])
        iso = isotropy(x)
        assert iso.kind == "infinite-cyclic" and iso.generator_lag == 1
        res = orbit(r1, x)
        assert res.elements == (x,) and res.exact

    def test_toeplitz_loop(self, toeplitz):
        x = lasso(toeplitz, toeplitz.vertex_path("u"), ["e"])
        assert isotropy(x).generator_lag == 1
        res = orbit(toeplitz, x)
        assert res.elements == (x,) and res.exact
        assert orbit_size(toeplitz, x) == 1

    def test_lasso_graph_orbit(self, lasso_graph):
        x = lasso(lasso_graph, lasso_graph.vertex_path("v"), ["e"])
        res = orbit(lasso_graph, x)
        assert [str(p) for p in res.elements] == ["(e)^inf", "f.(e)^inf"]
        assert res.exact and orbit_size(lasso_graph, x) == 2

    def test_rose_orbit_truncated(self, rose2):
        x = lasso(rose2, rose2.vertex_path("v"), ["e", "g"])
        res = orbit(rose2, x, bound=2)
        assert not res.exact
        assert x in res.elements
        assert orbit_size(rose2, x) is None

    def test_cycle3_orbit_has_all_rotations(self, cycle3):
        x = lasso(cycle3, cycle3.vertex_path("v1"), ["a", "b", "c"])
        res = orbit(cycle3, x)
        assert res.exact
        assert [str(p) for p in res.elements] == ["(a.b.c)^inf", "(b.c.a)^inf", "(c.a.b)^inf"]

    def test_isotropy_lags_match_tail_lags(self, a2, r1, cycle3):
        cases = [
            sink_path(a2, a2.vertex_path("v")),
            lasso(r1, r1.vertex_path("v"), ["e"]),
            lasso(cycle3, cycle3.vertex_path("v2"), ["b", "c", "a"]),
        ]
        for x in cases:
            iso = isotropy(x)
            lags = tail_lags(x, x)
            if iso.is_trivial:
                assert lags == LagSet.single(0)
            else:
                assert lags == LagSet.coset(0, iso.generator_lag)
