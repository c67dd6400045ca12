"""Hypothesis strategies shared by the tests."""

from hypothesis import strategies as st

from leavitt.graphs import Graph


@st.composite
def small_graphs(draw):
    vertices = [f"v{i}" for i in range(draw(st.integers(1, 4)))]
    ends = st.tuples(st.sampled_from(vertices), st.sampled_from(vertices))
    edges = [(f"e{i}", s, r) for i, (s, r) in enumerate(draw(st.lists(ends, max_size=6)))]
    return Graph(vertices, edges)
