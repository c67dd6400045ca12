"""The small graphs shared by the tests: name -> (vertices, edges).

``conftest.py`` makes each one a fixture of the same name, and the golden
CLI corpus (``golden_corpus.py``) writes them out as graph files.
"""

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
