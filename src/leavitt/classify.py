"""Classification of spectral simple and graded simple modules.

The graded families over a finite graph are: one shift-family of
boundary-path modules per sink (finite-dimensional exactly for maximal
sinks), a family flag for irrational tail classes (present when some
strongly connected component carries two cycles), and one Laurent family
per simple closed path with shifts modulo its length.  The
finite-dimensional simple modules are the boundary-path modules at
maximal sinks and the scalar extensions at maximal cycles, one per monic
irreducible polynomial other than t.
"""

from __future__ import annotations

import itertools
from typing import Iterable, NamedTuple

from .fields import Field, Poly, PrimeField, RationalField, enumerate_monic_irreducibles
from .graphs import (
    FinitePath,
    Graph,
    _entwined_pair,
    sink_path,
    closed_path_set_is_finite,
    cycle_tail,
    elementary_cycles,
    maximal_cycles,
    maximal_sinks,
    per_graph,
    simple_closed_paths,
)
from .records import InputError, same_class_eq, same_class_ne


class ClassificationError(InputError):
    pass


# ---------------------------------------------------------------------------
# Graded families


class SinkFamily(NamedTuple):
    vertex: str
    dimension: int | None  # None = infinite

    __eq__, __ne__, __hash__ = same_class_eq, same_class_ne, tuple.__hash__

    def to_json_dict(self) -> dict:
        return {
            "kind": "sink",
            "vertex": self.vertex,
            "dimension": self.dimension,
            "shifts": "Z",
        }


class LaurentFamily(NamedTuple):
    cycle: FinitePath
    period: int

    __eq__, __ne__, __hash__ = same_class_eq, same_class_ne, tuple.__hash__

    @property
    def shifts(self) -> tuple[int, ...]:
        return tuple(range(self.period))

    def to_json_dict(self) -> dict:
        return {
            "kind": "laurent",
            "cycle": str(self.cycle),
            "period": self.period,
            "shifts": list(self.shifts),
        }


class IrrationalFamilyFlag(NamedTuple):
    present: bool
    witness: tuple[str, str] | None

    __eq__, __ne__, __hash__ = same_class_eq, same_class_ne, tuple.__hash__

    def to_json_dict(self) -> dict:
        return {
            "kind": "irrational-classes",
            "present": self.present,
            "witness": list(self.witness) if self.witness else None,
        }


class GradedClassification(NamedTuple):
    sink_families: tuple[SinkFamily, ...]
    laurent_families: tuple[LaurentFamily, ...]
    irrational: IrrationalFamilyFlag
    complete: bool
    bounds: dict

    __eq__, __ne__, __hash__ = same_class_eq, same_class_ne, tuple.__hash__

    def to_json_dict(self) -> dict:
        return {
            "families": [f.to_json_dict() for f in self.sink_families]
            + [f.to_json_dict() for f in self.laurent_families]
            + [self.irrational.to_json_dict()],
            "complete": self.complete,
            "bounds": dict(self.bounds),
        }


def irrational_classes_flag(graph: Graph) -> IrrationalFamilyFlag:
    """Irrational tail classes exist iff some SCC contains two cycles; the
    witness names that component's two least cycles."""
    if closed_path_set_is_finite(graph):
        return IrrationalFamilyFlag(False, None)
    return IrrationalFamilyFlag(True, _entwined_pair(graph))


def classify_graded(graph: Graph, cycle_length_bound: int = 6) -> GradedClassification:
    """All spectral graded simple families, up to the cycle length bound."""
    finite = dict(maximal_sinks(graph))
    sinks = [SinkFamily(v, finite.get(v)) for v in graph.sinks]
    closed = simple_closed_paths(graph, cycle_length_bound)
    laurent = [LaurentFamily(c, len(c)) for c in closed.paths]
    return GradedClassification(
        sink_families=tuple(sinks),
        laurent_families=tuple(laurent),
        irrational=irrational_classes_flag(graph),
        complete=closed.complete,
        bounds={"cycle_length": cycle_length_bound},
    )


# ---------------------------------------------------------------------------
# Simple modules


class SinkSimple(NamedTuple):
    vertex: str
    dimension: int

    __eq__, __ne__, __hash__ = same_class_eq, same_class_ne, tuple.__hash__

    def module_spec(self, graph: Graph) -> ChenSpec:
        from .reps import ChenSpec

        return ChenSpec(sink_path(graph, graph.vertex_path(self.vertex)))

    def to_json_dict(self) -> dict:
        return {"kind": "sink-simple", "vertex": self.vertex, "dimension": self.dimension}


class CycleSimple(NamedTuple):
    cycle: FinitePath
    modulus: Poly
    orbit_size: int
    dimension: int  # orbit_size * deg(modulus)

    __eq__, __ne__, __hash__ = same_class_eq, same_class_ne, tuple.__hash__

    def module_spec(self, graph: Graph) -> ChenExtSpec:
        from .reps import ChenExtSpec

        return ChenExtSpec(self.cycle, self.modulus)

    def to_json_dict(self) -> dict:
        return {
            "kind": "cycle-simple",
            "cycle": str(self.cycle),
            "modulus": str(self.modulus),
            "dimension": self.dimension,
        }


class InfiniteDimFlagged(NamedTuple):
    kind: str  # "sink" | "cycle" | "irrational-classes"
    base: str
    reason: str

    __eq__, __ne__, __hash__ = same_class_eq, same_class_ne, tuple.__hash__

    def to_json_dict(self) -> dict:
        return {
            "kind": "infinite-dimensional",
            "family": self.kind,
            "base": self.base,
            "reason": self.reason,
        }


class SimpleClassification(NamedTuple):
    entries: tuple
    flagged: tuple[InfiniteDimFlagged, ...]
    complete: bool
    bounds: dict
    field_name: str

    __eq__, __ne__, __hash__ = same_class_eq, same_class_ne, tuple.__hash__

    def to_json_dict(self) -> dict:
        return {
            "field": self.field_name,
            "families": [e.to_json_dict() for e in self.entries],
            "flagged": [f.to_json_dict() for f in self.flagged],
            "complete": self.complete,
            "bounds": dict(self.bounds),
        }


def moduli_for_field(
    field: Field, poly_degree_bound: int, rational_values: Iterable[int] = (1, 2, -1)
) -> tuple[list[Poly], bool]:
    """The enumerated (GF(p)) or sampled (Q) f-axis, each modulus once;
    second value: complete up to the bound."""
    if isinstance(field, PrimeField):
        return enumerate_monic_irreducibles(field.p, poly_degree_bound), True
    if isinstance(field, RationalField):
        out = set()
        for a in rational_values:
            if a == 0:
                raise ClassificationError("t - 0 is the excluded modulus t")
            out.add(Poly.make(field, [-a, 1]))
        return sorted(out, key=Poly.sort_key), False
    raise ClassificationError(
        f"classification enumerates moduli over Q or a prime field, not {field.name}"
    )


def classify_simple(
    graph: Graph,
    field: Field,
    poly_degree_bound: int = 3,
    rational_values: Iterable[int] = (1, 2, -1),
) -> SimpleClassification:
    """Finite-dimensional spectral simples, plus flags for the infinite families."""
    from .groupoid import orbit_size

    entries: list = []
    flagged: list[InfiniteDimFlagged] = []
    finite = dict(maximal_sinks(graph))
    for v, count in finite.items():
        entries.append(SinkSimple(v, count))
    for v in graph.sinks:
        if v not in finite:
            flagged.append(
                InfiniteDimFlagged("sink", v, "a cycle reaches this sink, so its class is infinite")
            )
    max_cycles = maximal_cycles(graph)
    moduli, moduli_complete = moduli_for_field(field, poly_degree_bound, rational_values)
    sizes = [orbit_size(graph, cycle_tail(graph, c)) for c in max_cycles]
    cycle_entries = []
    for f in moduli:
        for c, size in zip(max_cycles, sizes):
            cycle_entries.append(CycleSimple(c, f, size, size * f.degree))
    entries.extend(cycle_entries)
    max_cycle_names = {c.edges for c in max_cycles}
    for c in elementary_cycles(graph):
        if c.edges not in max_cycle_names:
            flagged.append(
                InfiniteDimFlagged(
                    "cycle", str(c), "another cycle reaches this one, so its class is infinite"
                )
            )
    if not closed_path_set_is_finite(graph):
        flagged.append(
            InfiniteDimFlagged(
                "irrational-classes",
                " and ".join(_entwined_pair(graph)),
                "entwined cycles give irrational tail classes; infinite-dimensional by truncation",
            )
        )
    complete = moduli_complete or not max_cycles
    return SimpleClassification(
        entries=tuple(entries),
        flagged=tuple(flagged),
        complete=complete,
        bounds={"poly_degree": poly_degree_bound},
        field_name=field.name,
    )


@per_graph
def _lasso_count(graph: Graph, star: tuple[str, ...]) -> int:
    """The number of distinct canonical lassos prefix.(rotation of star)^inf,
    for a cycle ``star``.

    A brute-force walk over every finite path up to |V| + |star| + 1 edges,
    started and extended only at vertices that reach the cycle (found by a
    reverse search).  Each path is a node of the walk's trie, and a path
    that ends on the cycle, at the source of star[i], names the lasso
    path.(star from i)^inf: by its parent's name when its last edge is
    star[i - 1], the cycle edge that enters its end, and by its own node
    otherwise.  The count is the number of distinct names.  A step costs
    O(1): it builds no path and canonicalises none.

    The name is ``lasso``'s canonical form.  ``lasso`` absorbs a trailing
    star[i - 1] into the rotation, taking (path, i) to (parent, i - 1),
    until the path does not end so.  By induction on length, a path's name
    is the node where that absorption stops, and two paths give the same
    lasso exactly when they stop at the same node: the lasso is that node's
    path with the entry at its end, one per vertex since a cycle repeats no
    vertex.  For the same reason a cycle edge is star[i - 1] for the entry
    i at its range, so testing membership in the cycle is enough.  The
    parent, on the cycle, has a name by then, and the walk visits it before
    its children.
    """
    on_cycle = {graph.edge(e).src for e in star}
    reach = set(on_cycle)
    stack = list(reach)
    while stack:
        for e in graph.in_edges(stack.pop()):
            if e.src not in reach:
                reach.add(e.src)
                stack.append(e.src)
    cycle_edges = set(star)
    horizon = len(graph.vertices) + len(star) + 1
    fresh = itertools.count()
    names = set()
    # (length, range, the lasso's name, or None off the cycle)
    paths = [(0, v, next(fresh) if v in on_cycle else None) for v in graph.vertices if v in reach]
    while paths:
        k, v, name = paths.pop()
        if name is not None:
            names.add(name)
        if k < horizon:
            for e in graph.out_edges(v):
                if e.name in cycle_edges:
                    paths.append((k + 1, e.rng, name))
                elif e.rng in reach:
                    paths.append((k + 1, e.rng, next(fresh) if e.rng in on_cycle else None))
    return len(names)


def _walk_count(graph: Graph, v: str) -> int:
    """The number of paths ending at v.  x_0 = e_v and x_(k+1)(w) is the sum
    of x_k(r(e)) over the edges e out of w, so x_k(w) counts the paths of
    length k from w to v; the answer is the sum of every x_k.  A path of |V|
    edges repeats a vertex, so x_k nonzero at k = |V| means a cycle reaches
    v.  O(|V|.|E|) work."""
    x, total = {v: 1}, 0
    for _ in range(len(graph.vertices)):
        total += sum(x.values())
        step: dict[str, int] = {}
        for w, n in x.items():
            for e in graph.in_edges(w):
                step[e.src] = step.get(e.src, 0) + n
        x = step
        if not x:
            return total
    raise ClassificationError(f"a cycle reaches {v!r}; the path count is infinite")


def dimension_oracle(graph: Graph, entry) -> int:
    """Independent dimension computation for a finite-dimensional entry.

    Sink entries: the paths into the sink, counted length by length
    (``_walk_count``), not by the dynamic programming of
    ``graphs.count_paths_ending_at`` that ``classify_simple`` uses.
    Cycle entries: the number of boundary paths tail-equivalent to the
    cycle's tail, found by brute-force path enumeration with each lasso
    named by its canonical form and deduplicated (exact because the
    predecessors are finite), times deg(modulus), never calling
    ``orbit_size``, ``canonical_lassos`` or the groupoid.  So
    neither half shares a formula with ``classify_simple``'s dimensions.
    The cycle walk is pruned to the vertices that reach the cycle, and the
    count is kept on the graph per cycle (``per_graph``), since every
    modulus at one cycle shares it.
    """
    if isinstance(entry, SinkSimple):
        return _walk_count(graph, entry.vertex)
    if isinstance(entry, CycleSimple):
        return _lasso_count(graph, entry.cycle.edges) * entry.modulus.degree
    raise ClassificationError(f"no finite dimension for {entry!r}")
