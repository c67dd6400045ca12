"""Finite directed graphs, path combinatorics and tail equivalence.

A graph is a finite set of named vertices and named edges with source and
range maps.  On top of it live finite paths, closed paths up to rotation,
boundary paths (finite paths into sinks, and eventually periodic infinite
paths stored as canonical lassos) and the lag sets of the tail-equivalence
relation.  Everything is an immutable value, so a table derived from a
graph alone is built once and kept on the graph (``per_graph``).
"""

from __future__ import annotations

import functools
import re
import reprlib
from typing import Iterable, NamedTuple, Union

from .records import Frozen, same_class_eq, same_class_ne

_NAME_RE = re.compile(r"[A-Za-z0-9_]+\Z")
_QUOTE_LIMIT = 40  # characters of a bad value's repr that an error message quotes
_ERROR_LIMIT = 5  # errors that one GraphError lists
_MISSING = object()  # a memo's miss, where None is a result


class GraphError(ValueError):
    """Malformed graph data or an invalid path construction."""


# Edge is a slots class: edges are read far more often than they are built
# or hashed, and 3.11 specialises a slot read but not a NamedTuple's field
# descriptor.  Paths, lassos and the values built on them are hashed and
# built on every module action, so they are NamedTuples: building, hashing
# and comparing them runs as C tuple code, nested keys included.
class Edge(Frozen):
    __slots__ = _compared = ("name", "src", "rng")

    def __init__(self, name: str, src: str, rng: str):
        _setattr = object.__setattr__
        _setattr(self, "name", name)
        _setattr(self, "src", src)
        _setattr(self, "rng", rng)

    def __iter__(self):  # an edge unpacks as the (name, src, rng) triple that Graph takes
        return iter((self.name, self.src, self.rng))


class Graph:
    """A finite directed graph with named vertices and edges.

    Immutable after construction.  ``_derived`` keeps the results of the
    ``per_graph`` functions, so they die with the graph.  ``strip_prefix``
    and ``prepend`` keep theirs in dicts read inline (``_stripped``,
    ``_prepended``): certify calls them about 14,000 times per 10 rounds,
    and a wrapper call and a key tuple each would cost more than the memo
    saves.  Vertex and edge names share one namespace of word characters
    so that the textual path grammar (dot-separated edge names, bare vertex
    names) is unambiguous.
    """

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str, str]]):
        vs = list(vertices)
        es = [Edge(*e) for e in edges]
        errors = _validate_data(vs, es)
        if len(errors) > _ERROR_LIMIT:
            errors[_ERROR_LIMIT:] = [f"and {len(errors) - _ERROR_LIMIT} more errors"]
        if errors:
            raise GraphError("; ".join(errors))
        self._vertices = tuple(sorted(vs))
        self._edges = tuple(sorted(es, key=lambda e: e.name))
        self._by_name = {e.name: e for e in self._edges}
        out: dict[str, list[Edge]] = {v: [] for v in self._vertices}
        into: dict[str, list[Edge]] = {v: [] for v in self._vertices}
        for e in self._edges:
            out[e.src].append(e)
            into[e.rng].append(e)
        self._out = {v: tuple(x) for v, x in out.items()}
        self._in = {v: tuple(x) for v, x in into.items()}
        self._stripped: dict = {}  # (mu, x) -> strip_prefix(self, mu, x)
        self._prepended: dict = {}  # (mu, x) -> prepend(self, mu, x)
        self._derived: dict = {}  # (builder, *args) -> a per_graph result

    @property
    def vertices(self) -> tuple[str, ...]:
        return self._vertices

    @property
    def edges(self) -> tuple[Edge, ...]:
        return self._edges

    def is_vertex(self, v: str) -> bool:
        return v in self._out

    def is_edge(self, name: str) -> bool:
        return name in self._by_name

    def edge(self, name: str) -> Edge:
        try:
            return self._by_name[name]
        except KeyError:
            raise GraphError(f"unknown edge {name!r}") from None

    def out_edges(self, v: str) -> tuple[Edge, ...]:
        return self._out[v]

    def in_edges(self, v: str) -> tuple[Edge, ...]:
        return self._in[v]

    def is_sink(self, v: str) -> bool:
        return not self._out[v]

    def is_regular(self, v: str) -> bool:
        return bool(self._out[v])

    @property
    def sinks(self) -> tuple[str, ...]:
        return tuple(v for v in self._vertices if self.is_sink(v))

    # -- path constructors ------------------------------------------------

    def vertex_path(self, v: str) -> "FinitePath":
        if not self.is_vertex(v):
            raise GraphError(f"unknown vertex {v!r}")
        return FinitePath((), v, v)

    def path(self, edge_names: Iterable[str]) -> "FinitePath":
        names = tuple(edge_names)
        if not names:
            raise GraphError("empty edge sequence; use vertex_path for length 0")
        es = [self.edge(n) for n in names]
        for a, b in zip(es, es[1:]):
            if a.rng != b.src:
                raise GraphError(f"edges {a.name!r} and {b.name!r} do not compose")
        return FinitePath(names, es[0].src, es[-1].rng)

    def vertex_sequence(self, p: "FinitePath") -> tuple[str, ...]:
        """Vertices visited by p, sources first: s(e_1), ..., s(e_n), r(e_n)."""
        if not p.edges:
            return (p.src,)
        return tuple(self.edge(n).src for n in p.edges) + (p.rng,)

    # -- serialization ----------------------------------------------------

    @classmethod
    def from_json_dict(cls, data) -> "Graph":
        """The graph of a parsed graph file: "vertices" a list of names, "edges" a list
        of objects with "name", "src" and "rng", other keys ignored; else a GraphError."""
        if not isinstance(data, dict) or not all(isinstance(data.get(k), list) for k in ("vertices", "edges")):
            raise GraphError('graph JSON must be an object whose "vertices" and "edges" are lists')
        edges = data["edges"]
        if not all(isinstance(e, dict) and all(k in e for k in ("name", "src", "rng")) for e in edges):
            raise GraphError('each edge must be an object with "name", "src" and "rng"')
        return cls(data["vertices"], [(e["name"], e["src"], e["rng"]) for e in edges])

    def to_json_dict(self) -> dict:
        return {
            "vertices": list(self._vertices),
            "edges": [{"name": e.name, "src": e.src, "rng": e.rng} for e in self._edges],
        }


def per_graph(build):
    """``build(graph, *args)``, computed once per graph object and argument
    tuple and kept in the graph's ``_derived`` dict.  For pure functions of
    the graph alone; the result is shared, so it must be immutable."""
    @functools.wraps(build)
    def derived(graph: Graph, *args):
        key = (build, *args)
        value = graph._derived.get(key, _MISSING)
        if value is _MISSING:
            value = graph._derived[key] = build(graph, *args)
        return value

    return derived


def _quote(value) -> str:
    """repr(value), cut to its first _QUOTE_LIMIT characters."""
    try:
        text = repr(value)
    except RecursionError:  # nested deeper than the stack allows; reprlib stops at a few levels
        text = reprlib.repr(value)
    return text if len(text) <= _QUOTE_LIMIT else text[:_QUOTE_LIMIT] + "..."


def _validate_data(vertices: list, edges: list[Edge]) -> list[str]:
    errors = []
    if not vertices:
        errors.append("vertex set is empty")
    seen: set[str] = set()
    for v in vertices:
        if not isinstance(v, str) or not _NAME_RE.match(v):
            errors.append(f"bad vertex name {_quote(v)}")
        elif v in seen:
            errors.append(f"duplicate name {_quote(v)}")
        else:
            seen.add(v)
    vset = set(seen)
    for e in edges:
        if not isinstance(e.name, str) or not _NAME_RE.match(e.name):
            errors.append(f"bad edge name {_quote(e.name)}")
        elif e.name in seen:
            errors.append(f"duplicate name {_quote(e.name)}")
        else:
            seen.add(e.name)
        if not (isinstance(e.src, str) and e.src in vset):
            errors.append(f"dangling endpoint: edge {_quote(e.name)} has undeclared source {_quote(e.src)}")
        if not (isinstance(e.rng, str) and e.rng in vset):
            errors.append(f"dangling endpoint: edge {_quote(e.name)} has undeclared range {_quote(e.rng)}")
    return errors


class ValidationReport(NamedTuple):
    ok: bool
    sinks: tuple[str, ...]
    regular: tuple[str, ...]
    errors: tuple[str, ...]

    __eq__, __ne__, __hash__ = same_class_eq, same_class_ne, tuple.__hash__

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "sinks": list(self.sinks),
            "regular": list(self.regular),
            "errors": list(self.errors),
        }


def validate(graph: Graph) -> ValidationReport:
    """Classify the vertices (sink vs regular); a constructed graph is valid."""
    return ValidationReport(
        ok=True,
        sinks=graph.sinks,
        regular=tuple(v for v in graph.vertices if graph.is_regular(v)),
        errors=(),
    )


# ---------------------------------------------------------------------------
# Finite paths


class FinitePath(NamedTuple):
    """A path given by its edge-name sequence plus endpoints.

    A length-0 path carries only a vertex (src == rng, no edges).  Its
    length is the number of edges, so a length-0 path is falsy.
    """

    edges: tuple[str, ...]
    src: str
    rng: str

    def __len__(self) -> int:
        return len(self.edges)

    @property
    def is_trivial(self) -> bool:
        return not self.edges

    def __str__(self) -> str:
        return ".".join(self.edges) if self.edges else self.src

    def sort_key(self):
        return (len(self.edges), self.edges, self.src)


def concat(p: FinitePath, q: FinitePath) -> FinitePath:
    p_edges, p_src, p_rng = p  # one unpack is cheaper than three NamedTuple field reads
    q_edges, q_src, q_rng = q
    if p_rng != q_src:
        raise GraphError(f"cannot concatenate {p} (range {p_rng}) with {q} (source {q_src})")
    return FinitePath(p_edges + q_edges, p_src, q_rng)


def initial_remainder(mu: FinitePath, p: FinitePath) -> FinitePath | None:
    """The unique q with p = mu.q, or None when mu is not an initial subpath."""
    if mu.src != p.src:
        return None
    mu_edges = mu.edges  # each field is read once: a NamedTuple field read is slow
    n = len(mu_edges)
    if not n:
        return p
    p_edges = p.edges
    # the last edge first: most failing prefixes differ there, and no slice is built
    if n > len(p_edges) or p_edges[n - 1] != mu_edges[-1] or p_edges[:n] != mu_edges:
        return None
    return FinitePath(p_edges[n:], mu.rng, p.rng)


# ---------------------------------------------------------------------------
# Closed paths and rotations


def _least_rotation(word: tuple[str, ...]) -> int:
    """The least k such that word[k:] + word[:k] is the least rotation of word.

    Booth's algorithm (Inf. Process. Lett. 10(5), 1980): the failure function
    of the Knuth-Morris-Pratt automaton of the candidate rotation, run over
    the doubled word, moves the candidate start k past each mismatch that
    shows a smaller letter.  O(n) time and memory.
    """
    s = word + word
    fail = [-1] * len(s)
    k = 0
    for j in range(1, len(s)):
        c = s[j]
        i = fail[j - k - 1]
        while i != -1 and c != (d := s[k + i + 1]):
            if c < d:
                k = j - i - 1
            i = fail[i]
        if c == s[k + i + 1]:
            fail[j - k] = i + 1
        else:  # i == -1
            if c < s[k]:
                k = j
            fail[j - k] = -1
    return k


def canonical_rotation(edge_names: tuple[str, ...]) -> tuple[str, ...]:
    """Lexicographically least rotation of a closed edge sequence."""
    k = _least_rotation(edge_names)
    return edge_names[k:] + edge_names[:k]


def primitive_root(edge_names: tuple[str, ...]) -> tuple[str, ...]:
    """The shortest w with edge_names = w^k."""
    n = len(edge_names)
    for d in range(1, n + 1):
        if n % d == 0 and edge_names[:d] * (n // d) == edge_names:
            return edge_names[:d]
    return edge_names


def is_proper_power(edge_names: tuple[str, ...]) -> bool:
    return len(primitive_root(edge_names)) < len(edge_names)


def _require_closed(path: FinitePath) -> None:
    if path.src != path.rng or not path.edges:
        raise GraphError(f"{path} is not a closed path of positive length")


class ClosedPath(NamedTuple):
    """A closed finite path together with its derived flags."""

    path: FinitePath
    is_simple: bool   # not c^n for n >= 2
    is_cycle: bool    # no repeated vertex
    has_exit: bool    # some vertex on it emits an edge not used at that step

    __eq__, __ne__, __hash__ = same_class_eq, same_class_ne, tuple.__hash__

    @classmethod
    def analyze(cls, graph: Graph, path: FinitePath) -> "ClosedPath":
        _require_closed(path)
        simple = not is_proper_power(path.edges)
        verts = graph.vertex_sequence(path)[:-1]
        cyc = len(set(verts)) == len(verts)
        exit_ = any(
            out.name != name
            for name in path.edges
            for out in graph.out_edges(graph.edge(name).src)
        )
        return cls(path=path, is_simple=simple, is_cycle=cyc, has_exit=exit_)


# ---------------------------------------------------------------------------
# Boundary paths


class SinkPath(NamedTuple):
    """A finite boundary path: a path whose range is a sink."""

    path: FinitePath

    @property
    def source(self) -> str:
        return self.path.src

    def __str__(self) -> str:
        return str(self.path)

    def sort_key(self):
        return (0, self.path.sort_key(), ())


class Lasso(NamedTuple):
    """The eventually periodic infinite path prefix.(c_rotation)^inf.

    Canonical form: ``cycle`` is the lex-least rotation representative of a
    simple closed path, ``rotation`` selects where the tail enters it, and
    ``prefix`` is minimal (it does not end with the cycle edge entering the
    rotation point, which would otherwise be absorbed).
    """

    prefix: FinitePath
    cycle: tuple[str, ...]
    rotation: int

    @property
    def source(self) -> str:
        return self.prefix.src

    @property
    def period(self) -> int:
        return len(self.cycle)

    def rotated_cycle(self) -> tuple[str, ...]:
        return self.cycle[self.rotation:] + self.cycle[: self.rotation]

    def __str__(self) -> str:
        body = "(" + ".".join(self.rotated_cycle()) + ")^inf"
        if self.prefix.is_trivial:
            return body
        return f"{self.prefix}.{body}"

    def sort_key(self):
        return (1, self.prefix.sort_key(), (self.cycle, self.rotation))


BoundaryPath = Union[SinkPath, Lasso]


def sink_path(graph: Graph, path: FinitePath) -> SinkPath:
    if not graph.is_sink(path.rng):
        raise GraphError(f"range {path.rng!r} of {path} is not a sink")
    return SinkPath(path)


def lasso(graph: Graph, prefix: FinitePath, cycle_seq: Iterable[str]) -> Lasso:
    """Canonical lasso denoting prefix.(cycle_seq)^inf.

    ``cycle_seq`` is the periodic tail as it starts right after the prefix;
    it is reduced to its primitive root, replaced by the canonical rotation
    representative, and trailing prefix edges are absorbed into the rotation.
    """
    seq = tuple(cycle_seq)
    cyc = graph.path(seq)
    _require_closed(cyc)
    if prefix.rng != cyc.src:
        raise GraphError(f"prefix {prefix} does not reach the cycle at {cyc.src}")
    seq = primitive_root(seq)
    k = _least_rotation(seq)
    # seq is primitive, so its rotations are distinct: seq is star from len(seq) - k
    return _absorb(graph, prefix, seq[k:] + seq[:k], -k % len(seq))


def _absorb(graph: Graph, prefix: FinitePath, star: tuple[str, ...], rot: int) -> Lasso:
    """The lasso prefix.(star from rotation rot)^inf with its trailing prefix
    edges absorbed into the rotation; ``star`` is already canonical."""
    n = len(star)
    while prefix.edges and prefix.edges[-1] == star[(rot - 1) % n]:
        last = graph.edge(prefix.edges[-1])
        prefix = FinitePath(prefix.edges[:-1], prefix.src, last.src)
        rot = (rot - 1) % n
    return Lasso(prefix, star, rot)


def cycle_tail(graph: Graph, cycle: FinitePath) -> Lasso:
    """The base point representing a cycle: (c)^inf at the source of c's
    canonical rotation (a power of c gives the tail of its primitive root)."""
    _require_closed(cycle)
    star = graph.path(canonical_rotation(cycle.edges))
    return lasso(graph, graph.vertex_path(star.src), star.edges)


def unroll(x: BoundaryPath, length: int) -> tuple[str, ...]:
    """First `length` edge names of x (shorter for a sink path that ends)."""
    if isinstance(x, SinkPath):
        return x.path.edges[:length]
    names = list(x.prefix.edges)
    body = x.rotated_cycle()
    while len(names) < length:
        names.extend(body)
    return tuple(names[:length])


def initial_path(graph: Graph, x: BoundaryPath, m: int) -> FinitePath:
    """The first m edges of x as a path (its source vertex when m = 0)."""
    names = unroll(x, m)
    if len(names) < m:
        raise GraphError(f"{x} has fewer than {m} edges")
    return FinitePath(names, x.source, graph.edge(names[-1]).rng if names else x.source)


def strip_prefix(graph: Graph, mu: FinitePath, x: BoundaryPath) -> BoundaryPath | None:
    """The unique boundary path p with x = mu.p, or None.

    For a lasso the cycle is unrolled as far as |mu| requires.  x is
    canonical, so p is built directly: a suffix of a minimal prefix is
    minimal, and past the prefix only the rotation advances.  The result
    is kept in the graph's memo.
    """
    if mu.src != x.source:
        return None
    key = (mu, x)
    p = graph._stripped.get(key, _MISSING)
    if p is _MISSING:
        p = graph._stripped[key] = _strip_prefix(graph, mu, x)
    return p


def _strip_prefix(graph: Graph, mu: FinitePath, x: BoundaryPath) -> BoundaryPath | None:
    m = len(mu.edges)
    if isinstance(x, SinkPath):
        rest = initial_remainder(mu, x.path)
        return SinkPath(rest) if rest is not None else None
    if unroll(x, m) != mu.edges:
        return None
    pre = x.prefix.edges
    if m <= len(pre):
        return Lasso(FinitePath(pre[m:], mu.rng, x.prefix.rng), x.cycle, x.rotation)
    rot = (x.rotation + m - len(pre)) % x.period
    start = graph.edge(x.cycle[rot]).src
    return Lasso(FinitePath((), start, start), x.cycle, rot)


def prepend(graph: Graph, mu: FinitePath, x: BoundaryPath) -> BoundaryPath:
    """The boundary path mu.x (requires r(mu) = s(x)); the result is kept
    in the graph's memo."""
    if mu.rng != x.source:
        raise GraphError(f"cannot prepend {mu} to a path starting at {x.source}")
    key = (mu, x)
    y = graph._prepended.get(key)
    if y is None:
        if isinstance(x, SinkPath):
            y = SinkPath(concat(mu, x.path))
        else:
            y = _absorb(graph, concat(mu, x.prefix), x.cycle, x.rotation)
        graph._prepended[key] = y
    return y


# ---------------------------------------------------------------------------
# Lag sets


class LagSet(NamedTuple):
    """A set of lags: empty, a single integer, or the coset k0 + nZ."""

    kind: str  # "empty" | "single" | "coset"
    k0: int = 0
    n: int = 0

    __eq__, __ne__, __hash__ = same_class_eq, same_class_ne, tuple.__hash__

    @classmethod
    def empty(cls) -> "LagSet":
        return cls("empty")

    @classmethod
    def single(cls, k: int) -> "LagSet":
        return cls("single", k0=k)

    @classmethod
    def coset(cls, k0: int, n: int) -> "LagSet":
        if n < 1:
            raise ValueError("coset step must be positive")
        return cls("coset", k0=k0 % n, n=n)

    @property
    def is_empty(self) -> bool:
        return self.kind == "empty"

    def contains(self, k: int) -> bool:
        if self.kind == "empty":
            return False
        if self.kind == "single":
            return k == self.k0
        return (k - self.k0) % self.n == 0

    def __str__(self) -> str:
        if self.kind == "empty":
            return "{}"
        if self.kind == "single":
            return "{%d}" % self.k0
        return f"{self.k0}+{self.n}Z"


def tail_lags(x: BoundaryPath, y: BoundaryPath) -> LagSet:
    """All k with x tail-equivalent to y with lag k (x = mu.p, y = nu.p, k=|mu|-|nu|)."""
    if isinstance(x, SinkPath) and isinstance(y, SinkPath):
        if x.path.rng != y.path.rng:
            return LagSet.empty()
        return LagSet.single(len(x.path) - len(y.path))
    if isinstance(x, Lasso) and isinstance(y, Lasso):
        if x.cycle != y.cycle:
            return LagSet.empty()
        n = x.period
        k0 = (y.rotation - len(y.prefix)) - (x.rotation - len(x.prefix))
        return LagSet.coset(k0, n)
    return LagSet.empty()


# ---------------------------------------------------------------------------
# Enumeration: paths, cycles, reachability


class PathEnumeration(NamedTuple):
    paths: tuple[FinitePath, ...]
    exact: bool

    __eq__, __ne__, __hash__ = same_class_eq, same_class_ne, tuple.__hash__


def cycle_reaches_vertex(graph: Graph, v: str) -> bool:
    if not graph.is_vertex(v):
        raise GraphError(f"unknown vertex {v!r}")
    return v in _cycle_structure(graph)[2]


def enumerate_paths_ending_at(graph: Graph, v: str, bound: int | None = None) -> PathEnumeration:
    """All paths mu with r(mu) = v up to the length bound.

    When no cycle reaches v the set is finite and is returned completely
    (the bound is ignored and the enumeration is exact); otherwise a bound
    is required and the result is flagged inexact.
    """
    exact = not cycle_reaches_vertex(graph, v)
    if not exact and bound is None:
        raise GraphError(f"infinitely many paths end at {v!r}; a bound is required")
    out = [graph.vertex_path(v)]
    frontier = [graph.vertex_path(v)]
    while frontier:
        nxt = []
        for p in frontier:
            if not exact and bound is not None and len(p) >= bound:
                continue
            for e in graph.in_edges(p.src):
                q = FinitePath((e.name,) + p.edges, e.src, v)
                out.append(q)
                nxt.append(q)
        frontier = nxt
    out.sort(key=FinitePath.sort_key)
    return PathEnumeration(tuple(out), exact)


def count_paths_ending_at(graph: Graph, v: str) -> int:
    """Exact path count into v by dynamic programming on its predecessors.

    No cycle reaches v, so its predecessors form an acyclic graph; each is
    counted after all of its own predecessors, without recursion.
    """
    if cycle_reaches_vertex(graph, v):
        raise GraphError(f"a cycle reaches {v!r}; the path count is infinite")
    count: dict[str, int] = {}
    stack = [v]
    while stack:
        w = stack.pop()
        if w in count:
            continue
        todo = [e.src for e in graph.in_edges(w) if e.src not in count]
        if todo:
            stack.append(w)
            stack.extend(todo)
        else:
            count[w] = 1 + sum(count[e.src] for e in graph.in_edges(w))
    return count[v]


def _lyndon_closed_walks(
    graph: Graph, comps: Iterable[frozenset[str]], bound: int
) -> tuple[FinitePath, ...]:
    """Each primitive closed walk of length <= bound inside the strongly
    connected components ``comps`` once, as its least rotation.  A walk
    starts at each vertex of its component and reads only the edges inside
    it: an edge that leaves the component starts no closed walk.

    The Fredricksen-Kessler-Maiorana recursion restricted to walks (Ruskey &
    Sawada, COCOON 2000): a word of length n with longest Lyndon prefix of
    length p grows by an out-edge of its range named at least word[n - p]; p
    stays on a tie and becomes n + 1 otherwise.  A closed word with p = n is
    a Lyndon word.
    """
    found = []
    for comp in comps:
        inner = {v: [e for e in graph.out_edges(v) if e.rng in comp] for v in comp}
        for start in comp:
            word: list[Edge] = []
            stack = [(iter(inner[start]), 0)]  # an explicit stack: cycles may be long
            while stack:
                edges, p = stack[-1]
                e = next(edges, None)
                if e is None:
                    stack.pop()
                    if word:
                        word.pop()
                    continue
                n = len(word)
                floor = word[n - p].name if n else e.name
                if e.name < floor:
                    continue
                p = p if n and e.name == floor else n + 1
                if e.rng == start and p == n + 1:
                    found.append(FinitePath(tuple(x.name for x in word) + (e.name,), start, start))
                if n + 1 < bound:
                    word.append(e)
                    stack.append((iter(inner[e.rng]), p))
    return tuple(sorted(found, key=FinitePath.sort_key))


def _circuits_through(graph: Graph, start: str, within: set[str]) -> list[tuple[str, ...]]:
    """The edge sequences of the cycles through ``start`` on the vertices
    ``within``, each read from ``start``.

    Johnson's CIRCUIT (SIAM J. Comput. 4(1), 1975), with an explicit stack.
    A vertex whose search closed no cycle stays blocked, ``waiting`` on each
    vertex it leads to; a search that closes one unblocks its vertex and,
    through those lists, every vertex waiting on it.  So every step leads
    to a cycle or is paid once per vertex and edge: O(V + E) per cycle.
    """
    found = []
    names: list[str] = []
    path = [start]
    closed = [False]  # per path vertex: some cycle was found below it
    blocked = {start}
    waiting: dict[str, set[str]] = {}
    stack = [iter(graph.out_edges(start))]
    while stack:
        for e in stack[-1]:
            if e.rng == start:
                found.append((*names, e.name))
                closed[-1] = True
            elif e.rng in within and e.rng not in blocked:
                names.append(e.name)
                path.append(e.rng)
                closed.append(False)
                blocked.add(e.rng)
                stack.append(iter(graph.out_edges(e.rng)))
                break
        else:
            stack.pop()
            v = path.pop()
            if closed.pop():
                if closed:
                    closed[-1] = True
                free = [v]
                while free:
                    w = free.pop()
                    if w in blocked:
                        blocked.discard(w)
                        free.extend(waiting.pop(w, ()))
            else:
                for e in graph.out_edges(v):
                    if e.rng in within:
                        waiting.setdefault(e.rng, set()).add(v)
            if names:
                names.pop()
    return found


def elementary_cycles(graph: Graph) -> tuple[FinitePath, ...]:
    """All cycles (closed paths with no repeated vertex), each as its
    lexicographically least edge-name rotation.

    Johnson's order: the cycles through the least vertex of a component with
    an inner edge, which has at least one, then the components of that
    component without the vertex.  One cycle per component search bounds the
    work by O((V + E)(C + 1)) for C cycles.
    """
    found = []
    todo = [set(graph.vertices)]
    while todo:
        for comp in _components(graph, todo.pop()):
            start = min(comp)
            if len(comp) > 1 or any(e.rng == start for e in graph.out_edges(start)):
                found.extend(_circuits_through(graph, start, comp))
                comp.discard(start)
                todo.append(comp)
    # a cycle repeats no vertex, hence no edge: its least rotation starts at its least edge
    out = []
    for names in found:
        k = names.index(min(names))
        names = names[k:] + names[:k]
        src = graph.edge(names[0]).src
        out.append(FinitePath(names, src, src))
    return tuple(sorted(out, key=FinitePath.sort_key))


def strongly_connected_components(graph: Graph) -> tuple[frozenset[str], ...]:
    """The strongly connected components of the graph."""
    return tuple(frozenset(comp) for comp in _components(graph, graph.vertices))


def _components(graph: Graph, vertices: Iterable[str]) -> list[set[str]]:
    """The strongly connected components of the subgraph on ``vertices``.

    Kosaraju-Sharir: a depth-first search over out-edges lists the vertices
    by finishing time; from each vertex not yet placed, the latest finished
    first, a search over in-edges then collects one component.
    """
    within = set(vertices)
    finished: list[str] = []
    seen: set[str] = set()
    for root in vertices:
        if root in seen:
            continue
        seen.add(root)
        stack = [(root, iter(graph.out_edges(root)))]  # explicit: cycles may be long
        while stack:
            v, edges = stack[-1]
            for e in edges:
                if e.rng not in seen and e.rng in within:
                    seen.add(e.rng)
                    stack.append((e.rng, iter(graph.out_edges(e.rng))))
                    break
            else:
                stack.pop()
                finished.append(v)
    result: list[set[str]] = []
    placed: set[str] = set()
    for root in reversed(finished):
        if root in placed:
            continue
        placed.add(root)
        comp = [root]
        for v in comp:  # comp grows as it is read: a breadth-first search
            for e in graph.in_edges(v):
                if e.src not in placed and e.src in within:
                    placed.add(e.src)
                    comp.append(e.src)
        result.append(set(comp))
    return result


@per_graph
def _cycle_structure(
    graph: Graph,
) -> tuple[tuple[frozenset[str], ...], tuple[int, ...], frozenset[str]]:
    """Components, their cycle counts capped at 2, and the vertices below a cycle.

    A component with n vertices and m internal edges carries no cycle iff
    m = 0 and exactly one iff m = n (strong connectivity forces m >= n once
    n >= 2).  A vertex is below a cycle when some cycle reaches it; the
    vertices of a cycle are below it.  Callers ask per vertex, per sink and
    per orbit.
    """
    comps = strongly_connected_components(graph)
    counts = []
    for comp in comps:
        m = sum(e.rng in comp for v in comp for e in graph.out_edges(v))
        counts.append(0 if m == 0 else 1 if m == len(comp) else 2)
    below = {v for comp, k in zip(comps, counts) if k for v in comp}
    stack = list(below)
    while stack:
        for e in graph.out_edges(stack.pop()):
            if e.rng not in below:
                below.add(e.rng)
                stack.append(e.rng)
    return comps, tuple(counts), frozenset(below)


def closed_path_set_is_finite(graph: Graph) -> bool:
    """True iff the set of simple closed paths (up to rotation) is finite.

    Holds exactly when every strongly connected component contains at most
    one elementary cycle; the simple closed paths are then the cycles.
    """
    return 2 not in _cycle_structure(graph)[1]


def _entwined_pair(graph: Graph) -> tuple[str, str]:
    """The two least elementary cycles of the component with two cycles whose
    least cycle is least; there is one when the closed-path set is infinite.

    Cycles are ordered by length first.  The edges of a closed walk that
    repeats a vertex split into at least two cycles, each strictly shorter;
    were they all one cycle, the walk would go round it, a proper power.  So
    a primitive closed walk that is not a cycle holds two distinct shorter
    cycles of its component, and a component's two least primitive closed
    walks are its two least cycles.  The walks of length <= L in the
    components with two cycles hold the pair as soon as one component shows
    two of them; L doubles from 1 until one does.
    """
    comps, counts, _ = _cycle_structure(graph)
    entwined = [comp for comp, k in zip(comps, counts) if k == 2]
    bound = 1
    while True:
        walks = _lyndon_closed_walks(graph, entwined, bound)
        if walks:
            first = walks[0]
            comp = next(c for c in entwined if first.src in c)
            same = [w for w in walks[1:] if w.src in comp]
            if same:
                return str(first), str(same[0])
        bound *= 2


class ClosedPathEnumeration(NamedTuple):
    paths: tuple[FinitePath, ...]
    complete: bool

    __eq__, __ne__, __hash__ = same_class_eq, same_class_ne, tuple.__hash__


def simple_closed_paths(graph: Graph, bound: int) -> ClosedPathEnumeration:
    """All simple closed paths of length <= bound, one rotation each.

    ``complete`` is True iff the returned list is provably all of them,
    i.e. the set is structurally finite and no member exceeds the bound.
    """
    if bound < 1:
        raise GraphError("bound must be at least 1")
    # A component with one cycle has a cycle as long as its vertex count.
    comps, counts, _ = _cycle_structure(graph)
    complete = all(k == 0 or (k == 1 and len(comp) <= bound) for comp, k in zip(comps, counts))
    cyclic = [comp for comp, k in zip(comps, counts) if k]
    return ClosedPathEnumeration(_lyndon_closed_walks(graph, cyclic, bound), complete)


def maximal_sinks(graph: Graph) -> tuple[tuple[str, int], ...]:
    """Sinks not reached by any cycle, with their exact path counts."""
    below = _cycle_structure(graph)[2]
    return tuple((v, count_paths_ending_at(graph, v)) for v in graph.sinks if v not in below)


@per_graph
def maximal_cycles(graph: Graph) -> tuple[FinitePath, ...]:
    """Cycles with no path from any other cycle or simple closed path into them.

    Such a cycle is alone in its component, and no edge enters the component
    from a vertex below another cycle.  Each vertex of a one-cycle component
    has a single edge inside it, so the cycle is walked off those edges.
    """
    comps, counts, below = _cycle_structure(graph)
    out = []
    for comp, k in zip(comps, counts):
        if k != 1 or any(
            e.src in below and e.src not in comp for v in comp for e in graph.in_edges(v)
        ):
            continue
        start = v = min(comp)
        names: list[str] = []
        while not names or v != start:
            e = next(e for e in graph.out_edges(v) if e.rng in comp)
            names.append(e.name)
            v = e.rng
        out.append(graph.path(canonical_rotation(tuple(names))))
    out.sort(key=FinitePath.sort_key)
    return tuple(out)


def is_maximal_cycle(graph: Graph, cycle: FinitePath) -> bool:
    star = canonical_rotation(cycle.edges)
    return any(c.edges == star for c in maximal_cycles(graph))
