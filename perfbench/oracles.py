"""Answers computed from the theory, without the library.

Everything here works on the plain graph data of ``gen.py`` (vertex names
and ``(edge, src, rng)`` triples) with integer matrices and counting
formulas, so a wrong answer from the library cannot also appear here.
"""

from __future__ import annotations

from .gen import GraphData


def mobius(n: int) -> int:
    out = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def adjacency(data: GraphData) -> tuple[list[str], list[list[int]]]:
    """Vertex order and edge-count matrix A[i][j] = #edges i -> j."""
    vertices, edges = data
    index = {v: i for i, v in enumerate(vertices)}
    n = len(vertices)
    a = [[0] * n for _ in range(n)]
    for _, s, r in edges:
        a[index[s]][index[r]] += 1
    return vertices, a


def _mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    n = len(a)
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(a[i], cols[j])) for j in range(n)] for i in range(n)]


def _powers(a: list[list[int]], k_max: int) -> list[list[list[int]]]:
    """[A^0, A^1, ..., A^k_max]."""
    n = len(a)
    out = [[[int(i == j) for j in range(n)] for i in range(n)]]
    for _ in range(k_max):
        out.append(_mat_mul(out[-1], a))
    return out


def primitive_closed_path_counts(data: GraphData, max_len: int) -> dict[int, int]:
    """Closed paths that are not proper powers, up to rotation, by length.

    (1/L) * sum over d | L of mu(L/d) * tr(A^d): the necklace count of
    the closed walks.
    """
    _, a = adjacency(data)
    powers = _powers(a, max_len)
    traces = [sum(p[i][i] for i in range(len(a))) for p in powers]
    return {
        length: sum(mobius(length // d) * traces[d] for d in divisors(length)) // length
        for length in range(1, max_len + 1)
    }


def gauss_count(p: int, d: int) -> int:
    """Monic irreducibles of degree d over GF(p)."""
    return sum(mobius(d // k) * p**k for k in divisors(d)) // d


def irreducibles_except_t(p: int, d_max: int) -> int:
    """Monic irreducibles of degree 1..d_max over GF(p), without t."""
    return sum(gauss_count(p, d) for d in range(1, d_max + 1)) - 1


def sinks(data: GraphData) -> list[str]:
    vertices, edges = data
    sources = {s for _, s, _ in edges}
    return sorted(v for v in vertices if v not in sources)


def paths_into(data: GraphData, v: str) -> int | None:
    """Number of finite paths ending at v (vertex path included); None if infinite.

    Finite exactly when no closed walk reaches v, i.e. the predecessors of
    v induce a nilpotent adjacency matrix.
    """
    vertices, a = adjacency(data)
    n = len(vertices)
    j = vertices.index(v)
    total = 0
    power = [[int(i == k) for k in range(n)] for i in range(n)]
    for _ in range(n + 1):
        col = sum(power[i][j] for i in range(n))
        if col == 0:
            return total
        total += col
        power = _mat_mul(power, a)
    return None


def paths_up_to(data: GraphData, max_len: int) -> dict[str, int]:
    """For each vertex, the paths of length <= max_len ending there."""
    vertices, a = adjacency(data)
    powers = _powers(a, max_len)
    n = len(vertices)
    return {
        vertices[j]: sum(p[i][j] for p in powers for i in range(n)) for j in range(n)
    }


def monomial_count(data: GraphData, max_len: int) -> int:
    """mu.nu* pairs with a common range and |mu|, |nu| <= max_len."""
    return sum(c * c for c in paths_up_to(data, max_len).values())


def special_edges(data: GraphData) -> dict[str, str]:
    """The least-named out-edge of each regular vertex (the normal-form convention)."""
    out: dict[str, str] = {}
    for name, s, _ in data[1]:
        if s not in out or name < out[s]:
            out[s] = name
    return out


def is_normal(special: dict[str, str], edge_src: dict[str, str], mu_edges: tuple, nu_edges: tuple) -> bool:
    """mu.nu* is normal unless both end in the special edge of the same vertex."""
    if not mu_edges or not nu_edges or mu_edges[-1] != nu_edges[-1]:
        return True
    last = mu_edges[-1]
    return special.get(edge_src[last]) != last


def maximal_cycle_count(data: GraphData) -> int:
    """Cycles alone in their strongly connected component that no other cycle reaches."""
    vertices, edges = data
    succ = {v: set() for v in vertices}
    for _, s, r in edges:
        succ[s].add(r)

    def reach(v):
        seen, stack = {v}, [v]
        while stack:
            for w in succ[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    reaches = {v: reach(v) for v in vertices}
    comp = {v: frozenset(w for w in reaches[v] if v in reaches[w]) for v in vertices}
    cyclic = {c for c in comp.values() if any(s in c and r in c for _, s, r in edges)}
    count = 0
    for c in cyclic:
        internal = sum(1 for _, s, r in edges if s in c and r in c)
        if internal != len(c):
            continue
        v = next(iter(c))
        if any(v in reaches[next(iter(o))] for o in cyclic if o != c):
            continue
        count += 1
    return count


def brute_primitive_closed_paths(data: GraphData, max_len: int) -> dict[int, int]:
    """The same count as ``primitive_closed_path_counts`` by listing closed walks."""
    vertices, edges = data
    out_edges: dict[str, list[tuple[str, str]]] = {v: [] for v in vertices}
    for name, s, r in edges:
        out_edges[s].append((name, r))
    found: set[tuple[str, ...]] = set()

    def walk(start: str, at: str, seq: list[str]):
        for name, r in out_edges[at]:
            seq.append(name)
            if r == start:
                t = tuple(seq)
                n = len(t)
                primitive = all(t != t[k:] + t[:k] for k in range(1, n))
                if primitive:
                    found.add(min(t[k:] + t[:k] for k in range(n)))
            if len(seq) < max_len:
                walk(start, r, seq)
            seq.pop()

    for v in vertices:
        walk(v, v, [])
    counts = {length: 0 for length in range(1, max_len + 1)}
    for t in found:
        counts[len(t)] += 1
    return counts


def brute_irreducibles(p: int, d: int) -> int:
    """Monic irreducibles of degree d over GF(p) by sieving products of smaller monics."""
    def monics(deg: int):
        if deg == 0:
            yield (1,)
            return
        for i in range(p**deg):
            cs = []
            for _ in range(deg):
                cs.append(i % p)
                i //= p
            yield tuple(cs) + (1,)

    def mul(f, g):
        out = [0] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
        return tuple(out)

    reducible = set()
    for k in range(1, d // 2 + 1):
        for f in monics(k):
            for g in monics(d - k):
                reducible.add(mul(f, g))
    return sum(1 for f in monics(d) if f not in reducible)
