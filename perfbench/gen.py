"""Seeded input families for the benchmark.

Every function here is deterministic in its arguments (a ``random.Random``
where randomness is needed) and returns plain data: vertex names and
``(edge, src, rng)`` triples, or polynomial coefficient lists.  Building the
library's objects from that data happens in ``workloads.py``, so the library
only ever receives generated objects, never the seed.

Edges of the tree families point from a child to its parent, so the paths
that end at the root (the orbit of a boundary path at the root) are the
tree's nodes: 2**(d+1) - 1 of them for depth d.
"""

from __future__ import annotations

import random
from fractions import Fraction

GraphData = tuple[list[str], list[tuple[str, str, str]]]


def rose(n: int) -> GraphData:
    """One vertex with n loops."""
    return ["v"], [(f"e{i}", "v", "v") for i in range(n)]


def complete(n: int) -> GraphData:
    """The complete digraph on n vertices (no loops)."""
    names = [f"v{i}" for i in range(n)]
    edges = [(f"e_{a}_{b}", a, b) for a in names for b in names if a != b]
    return names, edges


def _tree(depth: int) -> GraphData:
    vertices = ["r"]
    edges = []
    frontier = ["r"]
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


def tree_into_loop(depth: int) -> GraphData:
    """A binary tree of the given depth whose root carries a loop ``l``.

    The loop has no exit, so both the twisted and the no-exit-cycle
    certificates apply at its tail.
    """
    vertices, edges = _tree(depth)
    return vertices, edges + [("l", "r", "r")]


def tree_into_sink(depth: int) -> GraphData:
    """A binary tree of the given depth whose root is a sink."""
    return _tree(depth)


def lasso_chain(n: int) -> GraphData:
    """n vertices in a line, each with a loop: v0 -> v1 -> ... with l_i at v_i."""
    vertices = [f"v{i}" for i in range(n)]
    edges = [(f"l{i}", f"v{i}", f"v{i}") for i in range(n)]
    edges += [(f"c{i}", f"v{i}", f"v{i + 1}") for i in range(n - 1)]
    return vertices, edges


def cycle(n: int, exit_to_sink: bool = False) -> GraphData:
    """The cycle a0 ... a(n-1) through v0 ... v(n-1); optionally an exit v0 -> w."""
    vertices = [f"v{i}" for i in range(n)]
    edges = [(f"a{i}", f"v{i}", f"v{(i + 1) % n}") for i in range(n)]
    if exit_to_sink:
        vertices.append("w")
        edges.append(("x", "v0", "w"))
    return vertices, edges


def relabel(data: GraphData, rng: random.Random) -> GraphData:
    """The same graph with every vertex and edge name tagged by a random prefix."""
    tag = f"g{rng.randrange(10**6)}_"
    vertices, edges = data
    return [tag + v for v in vertices], [(tag + e, tag + s, tag + r) for e, s, r in edges]


def random_digraph(rng: random.Random, n_min: int = 3, n_max: int = 8, density: float = 0.3) -> GraphData:
    """A random digraph: each ordered pair (loops included) is an edge with probability ``density``."""
    n = rng.randint(n_min, n_max)
    vertices = [f"v{i}" for i in range(n)]
    edges = []
    for a in range(n):
        for b in range(n):
            if rng.random() < density:
                edges.append((f"e{a}_{b}", f"v{a}", f"v{b}"))
    return vertices, edges


# ---------------------------------------------------------------------------
# Coefficients


def _has_root_mod_p(coeffs: list[int], p: int) -> bool:
    return any(sum(c * pow(x, i, p) for i, c in enumerate(coeffs)) % p == 0 for x in range(p))


def irreducible_mod_p(rng: random.Random, p: int, degree: int) -> list[int]:
    """Ascending coefficients of a random monic irreducible of degree 1-3 over GF(p), not t.

    Degree at most 3 makes "no root in GF(p)" equivalent to irreducible, so
    this check does not go through the library.
    """
    if not 1 <= degree <= 3:
        raise ValueError("degree must be 1, 2 or 3")
    while True:
        coeffs = [rng.randrange(p) for _ in range(degree)] + [1]
        if coeffs[0] == 0:
            continue
        if degree == 1 or not _has_root_mod_p(coeffs, p):
            return coeffs


# Irreducible over Q (no rational root, degree <= 3), constant term nonzero.
Q_MODULI = {
    1: [[-1, 1], [-2, 1], [1, 1], [-3, 1], [2, 1]],
    2: [[1, 0, 1], [-2, 0, 1], [1, 1, 1], [-3, 0, 1], [2, 1, 1]],
    3: [[-2, 0, 0, 1], [1, 1, 0, 1], [-3, 0, 0, 1], [1, -1, 0, 1]],
}


def modulus(rng: random.Random, p: int | None, degree: int) -> list:
    """A monic irreducible modulus with nonzero constant term; ``p`` None means Q."""
    if p is None:
        return [Fraction(c) for c in rng.choice(Q_MODULI[degree])]
    return irreducible_mod_p(rng, p, degree)


def nonzero_scalar(rng: random.Random, p: int | None, avoid_one: bool = False):
    """A nonzero field element; over Q a small fraction."""
    if p is None:
        while True:
            c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3, 5]), rng.choice([1, 2, 3]))
            if not (avoid_one and c == 1):
                return c
    lo = 2 if avoid_one else 1
    return rng.randrange(lo, p)
