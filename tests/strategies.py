"""Hypothesis strategies and enumerations shared by the tests."""

from typing import Iterator

from hypothesis import strategies as st

from leavitt.fields import Poly, PrimeField
from leavitt.graphs import Graph


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
