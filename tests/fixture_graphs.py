"""The small graphs shared by the tests: name -> (vertices, edges).

``conftest.py`` makes each one a fixture of the same name, and the golden
CLI corpus (``golden_corpus.py``) writes them out as graph files.
``MALFORMED_GRAPH_FILES`` holds graph files that every command must reject
as an input error: name -> file contents.
"""

import json

FIXTURE_GRAPHS = {
    "single_vertex": (["w"], []),
    "a2": (["u", "v"], [("f", "u", "v")]),
    "r1": (["v"], [("e", "v", "v")]),
    "toeplitz": (["u", "v"], [("e", "u", "u"), ("f", "u", "v")]),
    "rose2": (["v"], [("e", "v", "v"), ("g", "v", "v")]),
    "cycle2": (["v1", "v2"], [("a", "v1", "v2"), ("b", "v2", "v1")]),
    "cycle3": (
        ["v1", "v2", "v3"],
        [("a", "v1", "v2"), ("b", "v2", "v3"), ("c", "v3", "v1")],
    ),
    "cycle3_exit": (
        ["v1", "v2", "v3", "w"],
        [("a", "v1", "v2"), ("b", "v2", "v3"), ("c", "v3", "v1"), ("d", "v1", "w")],
    ),
    "chain3": (["u", "w", "v"], [("f", "u", "w"), ("g", "w", "v")]),
    "two_loops": (["u", "v"], [("e", "u", "u"), ("g", "v", "v")]),
    "lasso_graph": (["u", "v"], [("f", "u", "v"), ("e", "v", "v")]),
    "loop_feeds_loop": (
        ["s", "t", "u", "v", "w"],
        [("e", "u", "u"), ("f", "u", "v"), ("g", "v", "v"), ("h", "v", "w"), ("k", "s", "t")],
    ),
    "theta": (
        ["v1", "v2", "v3", "z"],
        [
            ("a", "v1", "v2"), ("b", "v2", "v1"), ("c", "v2", "v3"),
            ("d", "v3", "v1"), ("x", "v3", "z"),
        ],
    ),
}


def tree_into_loop(depth):
    """(vertices, edges) of a binary tree of the given depth whose root r
    carries a loop l; each edge runs from a child to its parent."""
    vertices, edges, frontier = ["r"], [("l", "r", "r")], ["r"]
    for _ in range(depth):
        nxt = []
        for parent in frontier:
            for bit in "01":
                child = ("n" if parent == "r" else parent) + bit
                vertices.append(child)
                edges.append((f"t{child[1:]}", child, parent))
                nxt.append(child)
        frontier = nxt
    return vertices, edges


MALFORMED_GRAPH_FILES = {
    name: data if isinstance(data, bytes) else json.dumps(data).encode()
    for name, data in {
        "edge_without_rng": {"vertices": ["u", "v"], "edges": [{"name": "e", "src": "u"}]},
        "edge_pair": {"vertices": ["u", "v"], "edges": [["e", "u"]]},
        "edge_integer": {"vertices": ["u", "v"], "edges": [5]},
        "edges_object": {"vertices": ["u", "v"], "edges": {"a": 1}},
        "edges_null": {"vertices": ["u", "v"], "edges": None},
        "vertices_null": {"vertices": None, "edges": []},
        "vertex_list": {"vertices": [["u"]], "edges": []},
        "source_list": {"vertices": ["u", "v"], "edges": [{"name": "e", "src": ["u"], "rng": "v"}]},
        "vertices_string": {"vertices": "uv", "edges": []},
        "not_utf8": b'{"vertices": ["\xff"], "edges": []}',
        "deep_nesting": b"[" * 100_000,
        "long_integer": b'{"vertices": [' + b"9" * 5000 + b'], "edges": []}',
    }.items()
}
