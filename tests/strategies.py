"""Hypothesis strategies, enumerations, element builders and the dense
matrix form shared by the tests.

The library's matrices are sparse columns (``linalg``); the tests' dense
oracles work on lists of rows, and compare with the library through
``dense``."""

from typing import Iterator

from hypothesis import strategies as st

from leavitt.algebra import AlgebraElement, LeavittAlgebra, Monomial, monomial
from leavitt.fields import Field, Poly, PrimeField
from leavitt.graphs import FinitePath, Graph


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
