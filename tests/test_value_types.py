"""The value types that are dict keys: paths, lassos, monomials, bisections
and basis elements.

They are NamedTuples, so they are built, hashed and compared as tuples.
Tuple equality ignores the class, so these tests pin down what a frozen
dataclass gave for free: values of two different classes are never equal,
and each value equals, and hashes like, one built separately from the same
fields.  The hash is that of the plain tuple of its fields, nested values
included, which is what the dataclass ``__hash__`` computed, so set and
dict orders do not depend on the representation.
"""

import itertools

import pytest
from hypothesis import given, settings

from fixture_graphs import FIXTURE_GRAPHS
from leavitt.algebra import Monomial, all_monomials
from leavitt.graphs import FinitePath, Graph, Lasso, SinkPath, cycle_tail, elementary_cycles, prepend
from leavitt.groupoid import Bisection, bisection, monomial_bisection
from leavitt.reps import ChenBasis, CosetBasis, NvcBasis
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
