"""Hypothesis strategies, enumerations, sample module specs, element
builders and the dense matrix form shared by the tests.

The library's matrices are sparse columns (``linalg``); the tests' dense
oracles work on lists of rows, and compare with the library through
``dense``."""

from typing import Iterator

from hypothesis import strategies as st

from leavitt.algebra import AlgebraElement, LeavittAlgebra, Monomial, TwistVector, monomial
from leavitt.fields import QQ, Field, Poly, PrimeField, parse_poly
from leavitt.graphs import FinitePath, Graph, cycle_tail, elementary_cycles, enumerate_paths_ending_at, sink_path
from leavitt.reps import ChenExtSpec, ChenSpec, InducedSpec, QuotientCoeff, ScalarAction, TrivialCoeff

# field name -> (field, an irreducible quadratic, a scalar other than 0 and 1 when there is one)
FIELDS = {
    "F2": (PrimeField(2), "t^2+t+1", 1),
    "F3": (PrimeField(3), "t^2+1", 2),
    "Q": (QQ, "t^2-2", 2),
}


@st.composite
def small_graphs(draw):
    vertices = [f"v{i}" for i in range(draw(st.integers(1, 4)))]
    ends = st.tuples(st.sampled_from(vertices), st.sampled_from(vertices))
    edges = [(f"e{i}", s, r) for i, (s, r) in enumerate(draw(st.lists(ends, max_size=6)))]
    return Graph(vertices, edges)


def enumerate_monic(field: PrimeField, degree: int) -> Iterator[Poly]:
    """All monic polynomials of the given degree over a prime field, the
    lowest coefficient running fastest."""
    if degree == 0:
        yield Poly.one(field)
        return
    coeffs = [0] * degree
    while True:
        yield Poly(field, tuple(coeffs) + (1,))
        i = 0
        while i < degree:
            coeffs[i] += 1
            if coeffs[i] < field.p:
                break
            coeffs[i] = 0
            i += 1
        else:
            return


def module_specs(g: Graph, F, modulus: str, a):
    """Sink modules (graded, some twisted and shifted), and at each cycle a
    twisted boundary-path module, a scalar extension, and induced modules
    with scalar-action and quotient coefficients."""
    f = parse_poly(modulus, F)
    for v in g.sinks:
        twist = TwistVector.make(g, F, {e.name: a for e in g.in_edges(v)})
        for p in enumerate_paths_ending_at(g, v, bound=1).paths:
            x = sink_path(g, p)
            yield ChenSpec(x)
            yield ChenSpec(x, twist, 1)
            yield InducedSpec(x, TrivialCoeff(1))
    for c in elementary_cycles(g):
        x = cycle_tail(g, c)
        yield ChenSpec(x, TwistVector.make(g, F, {x.cycle[0]: a}))
        yield ChenExtSpec(c, f)
        yield InducedSpec(x, ScalarAction(a))
        yield InducedSpec(x, QuotientCoeff(f))


def monomial_element(A: LeavittAlgebra, m: Monomial) -> AlgebraElement:
    """The monomial m as an element of A."""
    return A.element({m: A.field.one()})


def path_element(A: LeavittAlgebra, path: FinitePath) -> AlgebraElement:
    """The path as an element of A, the monomial path.r(path)*."""
    return monomial_element(A, monomial(path, A.graph.vertex_path(path.rng)))


def dense(F: Field, cols: list[dict], nrows: int) -> list[list]:
    """The dense matrix (a list of rows) whose columns are the sparse ``cols``."""
    return [[col.get(i, F.zero()) for col in cols] for i in range(nrows)]


def identity(F: Field, n: int) -> list[list]:
    """The dense n x n identity matrix."""
    return [[F.one() if i == j else F.zero() for j in range(n)] for i in range(n)]
