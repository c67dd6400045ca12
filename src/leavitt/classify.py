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
    lasso,
    maximal_cycles,
    maximal_sinks,
    per_graph,
    simple_closed_paths,
)
from .groupoid import orbit_size
from .records import same_class_eq, same_class_ne
from .reps import ChenExtSpec, ChenSpec, quotient_field


class ClassificationError(ValueError):
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
        return ChenSpec(sink_path(graph, graph.vertex_path(self.vertex)))

    def to_json_dict(self) -> dict:
        return {"kind": "sink-simple", "vertex": self.vertex, "dimension": self.dimension}


class CycleSimple(NamedTuple):
    cycle: FinitePath
    modulus: Poly
    orbit_size: int
    dimension: int  # orbit_size * deg(modulus)

    __eq__, __ne__, __hash__ = same_class_eq, same_class_ne, tuple.__hash__

    def module_spec(self) -> ChenExtSpec:
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
    field: Field,
    poly_degree_bound: int,
    rational_values: Iterable[int] = (1, 2, -1),
    extra_moduli: Iterable[Poly] = (),
) -> tuple[list[Poly], bool]:
    """The sampled or enumerated f-axis with the extra moduli, each modulus
    once (over GF(p) the extras not enumerated follow in the order given);
    second value: complete up to the bound."""
    if isinstance(field, PrimeField):
        out = enumerate_monic_irreducibles(field.p, poly_degree_bound)
        for f in extra_moduli:
            f = quotient_field(field, f).modulus
            if f not in out:
                out.append(f)
        return out, True
    if isinstance(field, RationalField):
        out = []
        for a in rational_values:
            if a == 0:
                raise ClassificationError("t - 0 is the excluded modulus t")
            out.append(Poly.make(field, [-a, 1]))
        for f in extra_moduli:
            out.append(quotient_field(field, f).modulus)
        return sorted(set(out), key=Poly.sort_key), False
    raise ClassificationError(
        f"classification enumerates moduli over Q or a prime field, not {field.name}"
    )


def classify_simple(
    graph: Graph,
    field: Field,
    poly_degree_bound: int = 3,
    rational_values: Iterable[int] = (1, 2, -1),
    extra_moduli: Iterable[Poly] = (),
) -> SimpleClassification:
    """Finite-dimensional spectral simples, plus flags for the infinite families."""
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
    moduli, moduli_complete = moduli_for_field(
        field, poly_degree_bound, rational_values, extra_moduli
    )
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
    """The number of distinct canonical lassos prefix.(rotation of star)^inf.

    A depth-first walk over finite paths up to |V| + |star| + 1 edges,
    started and extended only at vertices that reach the cycle (found by a
    reverse search); each path ending on the cycle continues around it.
    """
    n = len(star)
    entries: dict[str, list[int]] = {}
    for i, e in enumerate(star):
        entries.setdefault(graph.edge(e).src, []).append(i)
    reach = set(entries)
    stack = list(reach)
    while stack:
        for e in graph.in_edges(stack.pop()):
            if e.src not in reach:
                reach.add(e.src)
                stack.append(e.src)
    horizon = len(graph.vertices) + n + 1
    seen = set()
    paths = [graph.vertex_path(v) for v in graph.vertices if v in reach]
    while paths:
        p = paths.pop()
        for i in entries.get(p.rng, ()):
            seen.add(lasso(graph, p, star[i:] + star[:i]))
        if len(p) < horizon:
            for e in graph.out_edges(p.rng):
                if e.rng in reach:
                    paths.append(FinitePath(p.edges + (e.name,), p.src, e.rng))
    return len(seen)


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
    cycle's tail, found by brute-force path enumeration with ``lasso``
    canonicalisation and dedup (exact because the predecessors are finite),
    times deg(modulus), never calling ``orbit_size`` or the groupoid.  So
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
