"""The graph groupoid: elements (x, k, y), graded bisections, isotropy, orbits.

Elements are triples of boundary paths with a lag witnessing tail
equivalence.  Compact open bisections are represented syntactically by a
pair of finite paths with a finite excluded edge set; their products are
computed by the prefix calculus, mirroring monomial multiplication in the
path algebra, which `pi_consistency` cross-validates.  The exhaustive
check (`verify.verify_pi_consistency`) builds one bisection per monomial
and compares each pair's products through `bisections_match_monomial`;
`bisection` validates every bisection it builds, products included.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import LeavittAlgebra, Monomial
from .graphs import (
    BoundaryPath,
    FinitePath,
    Graph,
    GraphError,
    Lasso,
    SinkPath,
    concat,
    count_paths_ending_at,
    cycle_reaches_vertex,
    enumerate_paths_ending_at,
    initial_remainder,
    is_maximal_cycle,
    sink_path,
    strip_prefix,
    tail_lags,
    unroll,
)
from .records import same_class_eq, same_class_ne


class GroupoidError(ValueError):
    """Invalid groupoid element or non-composable pair."""


class GroupoidElement(NamedTuple):
    """(x, k, y) with x tail-equivalent to y with lag k."""

    x: BoundaryPath
    k: int
    y: BoundaryPath

    __eq__, __ne__, __hash__ = same_class_eq, same_class_ne, tuple.__hash__

    def __str__(self) -> str:
        return f"({self.x}, {self.k}, {self.y})"


def groupoid_element(x: BoundaryPath, k: int, y: BoundaryPath) -> GroupoidElement:
    if not tail_lags(x, y).contains(k):
        raise GroupoidError(f"{x} is not tail-equivalent to {y} with lag {k}")
    return GroupoidElement(x, k, y)


def compose(g: GroupoidElement, h: GroupoidElement) -> GroupoidElement:
    """(x, k, y)(y, l, z) = (x, k+l, z)."""
    if g.y != h.x:
        raise GroupoidError(f"not composable: {g} then {h}")
    return GroupoidElement(g.x, g.k + h.k, h.y)


def inverse(g: GroupoidElement) -> GroupoidElement:
    return GroupoidElement(g.y, -g.k, g.x)


def degree(g: GroupoidElement) -> int:
    return g.k


# ---------------------------------------------------------------------------
# Bisections


class Bisection(NamedTuple):
    """Z((mu, nu) \\ F): pairs (mu.p, |mu|-|nu|, nu.p) with p not starting in F."""

    mu: FinitePath
    nu: FinitePath
    excluded: frozenset[str]

    @property
    def degree(self) -> int:
        return len(self.mu) - len(self.nu)

    def __str__(self) -> str:
        base = f"Z({self.mu},{self.nu})"
        if self.excluded:
            return base[:-1] + "\\{" + ",".join(sorted(self.excluded)) + "})"
        return base


def bisection(graph: Graph, mu: FinitePath, nu: FinitePath, excluded=()) -> Bisection:
    if mu.rng != nu.rng:
        raise GroupoidError(f"ranges differ: {mu} vs {nu}")
    excl = frozenset(excluded)
    if excl:  # the empty set always leaves mu.rng
        out = {e.name for e in graph.out_edges(mu.rng)}
        if not excl <= out:
            raise GroupoidError(f"excluded edges {sorted(excl - out)} do not leave {mu.rng}")
    return Bisection(mu, nu, excl)


def monomial_bisection(graph: Graph, m: Monomial) -> Bisection:
    """The bisection the monomial mu.nu* maps to (its characteristic set)."""
    return bisection(graph, m.mu, m.nu)


def _first_edge(x: BoundaryPath) -> str | None:
    names = unroll(x, 1)
    return names[0] if names else None


def membership(graph: Graph, g: GroupoidElement, b: Bisection) -> bool:
    """Whether g = (mu.p, |mu|-|nu|, nu.p) for some p not starting in the excluded set."""
    if g.k != b.degree:
        return False
    p1 = strip_prefix(graph, b.mu, g.x)
    if p1 is None:
        return False
    p2 = strip_prefix(graph, b.nu, g.y)
    if p2 is None or p1 != p2:
        return False
    first = _first_edge(p1)
    return first is None or first not in b.excluded


def bisection_product(graph: Graph, b1: Bisection, b2: Bisection) -> list[Bisection]:
    """Pointwise product set; empty or a single bisection.

    Z(mu,nu)Z(al,be) is Z(mu.ga, be) when al = nu.ga and Z(mu, be.ga) when
    nu = al.ga; exclusions transfer to whichever side still constrains the
    common continuation.
    """
    mu, nu, ex1 = b1  # unpacked once: a NamedTuple's named field read is slower
    al, be, ex2 = b2
    gamma = initial_remainder(nu, al)
    if gamma is not None:
        if gamma.edges:
            if gamma.edges[0] in ex1:
                return []
            excl = ex2
        else:
            excl = ex1 | ex2
        return [bisection(graph, concat(mu, gamma), be, excl)]
    gamma = initial_remainder(al, nu)
    if gamma is not None and gamma.edges:
        if gamma.edges[0] in ex2:
            return []
        return [bisection(graph, mu, concat(be, gamma), ex1)]
    return []


def bisections_match_monomial(prod: Monomial | None, bs: list[Bisection]) -> bool:
    """Compare a monomial product with a bisection product (zero <-> empty)."""
    if prod is None:
        return not bs
    if len(bs) != 1:
        return False
    mu, nu, excluded = bs[0]
    prod_mu, prod_nu = prod
    return mu == prod_mu and nu == prod_nu and not excluded


def pi_consistency(algebra: LeavittAlgebra, m1: Monomial, m2: Monomial) -> bool:
    """Monomial multiplication agrees with the bisection product under mu.nu* -> Z(mu,nu)."""
    graph = algebra.graph
    prod = algebra.mono_mul(m1, m2)
    bs = bisection_product(graph, monomial_bisection(graph, m1), monomial_bisection(graph, m2))
    return bisections_match_monomial(prod, bs)


# ---------------------------------------------------------------------------
# Isotropy and orbits


class IsotropyDescriptor(NamedTuple):
    """Trivial, or infinite cyclic generated by (x, |c|, x) over the tail cycle c."""

    kind: str  # "trivial" | "infinite-cyclic"
    generator_lag: int = 0
    cycle: tuple[str, ...] = ()

    __eq__, __ne__, __hash__ = same_class_eq, same_class_ne, tuple.__hash__

    @property
    def is_trivial(self) -> bool:
        return self.kind == "trivial"


def isotropy(x: BoundaryPath) -> IsotropyDescriptor:
    if isinstance(x, SinkPath):
        return IsotropyDescriptor("trivial")
    return IsotropyDescriptor("infinite-cyclic", generator_lag=x.period, cycle=x.cycle)


def isotropy_generator(x: BoundaryPath) -> GroupoidElement:
    iso = isotropy(x)
    if iso.is_trivial:
        return GroupoidElement(x, 0, x)
    return GroupoidElement(x, iso.generator_lag, x)


class OrbitEnumeration(NamedTuple):
    elements: tuple[BoundaryPath, ...]
    exact: bool

    __eq__, __ne__, __hash__ = same_class_eq, same_class_ne, tuple.__hash__


def canonical_lassos(graph: Graph, cycle_star: tuple[str, ...], max_prefix: int | None) -> list[Lasso]:
    """All canonical lassos over the rotation class of ``cycle_star``.

    With ``max_prefix`` None the cycle must be maximal (the set is then
    finite and returned completely); otherwise prefixes are bounded.
    """
    n = len(cycle_star)
    entry = {}  # vertex -> rotation indices starting there
    for i in range(n):
        entry.setdefault(graph.edge(cycle_star[i]).src, []).append(i)
    out: list[Lasso] = []

    def keep(prefix: FinitePath):
        for i in entry.get(prefix.rng, ()):
            if prefix.edges and prefix.edges[-1] == cycle_star[(i - 1) % n]:
                continue
            out.append(Lasso(prefix, cycle_star, i))

    if max_prefix is None:
        for w in sorted(entry):
            keep(graph.vertex_path(w))
        cycle_edges = set(cycle_star)
        for d in graph.edges:
            if d.name in cycle_edges or d.rng not in entry:
                continue
            for pi in enumerate_paths_ending_at(graph, d.src).paths:
                keep(FinitePath(pi.edges + (d.name,), pi.src, d.rng))
    else:
        for w in sorted(entry):
            for p in enumerate_paths_ending_at(graph, w, bound=max_prefix).paths:
                keep(p)
    out.sort(key=Lasso.sort_key)
    return out


def orbit(graph: Graph, x: BoundaryPath, bound: int | None = None) -> OrbitEnumeration:
    """The tail-equivalence class of x, canonically enumerated.

    Exact when the class is finite (acyclic sink predecessors, or a maximal
    cycle); otherwise truncated at the bound and flagged.
    """
    if isinstance(x, SinkPath):
        v = x.path.rng
        res = enumerate_paths_ending_at(graph, v, bound=bound)
        return OrbitEnumeration(tuple(sink_path(graph, p) for p in res.paths), res.exact)
    cycle_path = graph.path(x.cycle)
    exact = is_maximal_cycle(graph, cycle_path)
    if exact:
        elems = canonical_lassos(graph, x.cycle, None)
    else:
        if bound is None:
            raise GraphError(f"the class of {x} is infinite; a bound is required")
        elems = canonical_lassos(graph, x.cycle, bound)
    return OrbitEnumeration(tuple(elems), exact)


def orbit_size(graph: Graph, x: BoundaryPath) -> int | None:
    """|[x]| when finite, else None."""
    if isinstance(x, SinkPath):
        if cycle_reaches_vertex(graph, x.path.rng):
            return None
        return count_paths_ending_at(graph, x.path.rng)
    if not is_maximal_cycle(graph, graph.path(x.cycle)):
        return None
    return len(canonical_lassos(graph, x.cycle, None))
