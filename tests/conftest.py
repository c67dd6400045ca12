import pytest

from fixture_graphs import FIXTURE_GRAPHS
from leavitt.graphs import Graph


def _graph_fixture(name):
    vertices, edges = FIXTURE_GRAPHS[name]
    return pytest.fixture(name=name)(lambda: Graph(vertices, edges))


for _name in FIXTURE_GRAPHS:
    globals()[_name] = _graph_fixture(_name)
