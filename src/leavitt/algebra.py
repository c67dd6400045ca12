"""The Leavitt path algebra of a finite graph.

Elements are sparse linear combinations of monomials mu.nu* (paths with a
common range).  Multiplication is the prefix calculus of the relation
e*f = delta_{e,f} r(e); canonical forms eliminate, at every regular vertex,
monomials whose two sides both end in the vertex's special edge, via the
relation v = sum of ee* over edges leaving v.  The special edge is the
lexicographically least edge name, so normal forms are deterministic.
"""

from __future__ import annotations

from typing import NamedTuple

from .fields import Field
from .graphs import FinitePath, Graph, concat, initial_remainder, per_graph
from .linalg import add_scaled, add_term
from .records import Frozen


class AlgebraError(ValueError):
    """Invalid algebra element construction or mixed-context operation."""


class LinearCombination:
    """A finite linear combination of keys with a ``sort_key`` method.

    ``terms`` maps each key to its coefficient, a raw nonzero value of
    ``field``; constructors trust their terms, so values from outside go
    through a checked entry point first.  Subclasses give ``field`` and
    ``_like``, the combination of the same kind and context with other terms.
    """

    __slots__ = ("terms",)

    field: Field

    def _like(self, terms: dict):
        raise NotImplementedError

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        F = self.field
        out = dict(self.terms)
        add_scaled(F, out, F.one(), other.terms)
        return self._like(out)

    def __neg__(self):
        F = self.field
        return self._like({k: F.neg(c) for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        F = self.field
        c = F.coerce(c)
        if F.is_zero(c):
            return self._like({})
        return self._like({k: F.mul(c, x) for k, x in self.terms.items()})

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        F = self.field
        parts = []
        for k in sorted(self.terms, key=lambda k: k.sort_key()):
            cs = F.format(self.terms[k])
            parts.append(str(k) if cs == "1" else f"{cs} {k}")
        return " + ".join(parts)


class Monomial(NamedTuple):
    """mu.nu* with r(mu) = r(nu); degree |mu| - |nu|."""

    mu: FinitePath
    nu: FinitePath

    @property
    def degree(self) -> int:
        return len(self.mu) - len(self.nu)

    def __str__(self) -> str:
        if self.nu.is_trivial:
            return str(self.mu)
        return f"{self.mu} {self.nu}^"

    def sort_key(self):
        return (self.mu.sort_key(), self.nu.sort_key())


def monomial(mu: FinitePath, nu: FinitePath) -> Monomial:
    if mu.rng != nu.rng:
        raise AlgebraError(f"ranges differ: r({mu}) = {mu.rng}, r({nu}) = {nu.rng}")
    return Monomial(mu, nu)


class TwistVector(Frozen):
    """An invertible scalar per edge; paths get the product of their edges.

    a_mu and a_nu^(-1) are memoized per edge tuple, so ``ratio`` on paths
    seen before is one multiplication.  Only ``field`` and ``entries`` are
    compared, hashed and printed.
    """

    _compared = ("field", "entries")
    __slots__ = _compared + ("_values", "_inverses", "_path_values", "_path_inverses")

    def __init__(self, field: Field, entries: tuple[tuple[str, object], ...]):
        # entries: sorted by edge name, all edges present.  Each distinct
        # value is inverted once: most edges carry the value one.
        values = dict(entries)
        inverse = {c: field.inv(c) for c in dict.fromkeys(values.values())}
        _setattr = object.__setattr__
        _setattr(self, "field", field)
        _setattr(self, "entries", entries)
        _setattr(self, "_values", values)
        _setattr(self, "_inverses", {n: inverse[c] for n, c in values.items()})
        _setattr(self, "_path_values", {})
        _setattr(self, "_path_inverses", {})

    @classmethod
    def make(cls, graph: Graph, field: Field, values: dict | None = None) -> "TwistVector":
        values = dict(values or {})
        table = {}
        for e in graph.edges:
            raw = values.pop(e.name, field.one())
            c = field.coerce(raw)
            if field.is_zero(c):
                raise AlgebraError(f"twist value at edge {e.name!r} must be nonzero")
            table[e.name] = c
        if values:
            raise AlgebraError(f"twist names unknown edges: {sorted(values)}")
        return cls(field, tuple(sorted(table.items())))

    def value(self, edge_name: str):
        try:
            return self._values[edge_name]
        except KeyError:
            raise AlgebraError(f"no twist value for edge {edge_name!r}") from None

    def _product(self, memo: dict, table: dict, names: tuple[str, ...]):
        """The product of the table's scalars at the named edges, kept in memo."""
        out = memo.get(names)
        if out is None:
            mul = self.field.mul
            out = self.field.one()
            for name in names:
                c = table.get(name)
                if c is None:
                    raise AlgebraError(f"no twist value for edge {name!r}")
                out = mul(out, c)
            memo[names] = out
        return out

    def of_path(self, path: FinitePath):
        """a_mu: the product of the edge scalars along mu (1 for vertices)."""
        return self._product(self._path_values, self._values, path.edges)

    def ratio(self, mu: FinitePath, nu: FinitePath):
        """a_mu a_nu^(-1): the factor by which the twist scales mu.nu*."""
        inv_nu = self._product(self._path_inverses, self._inverses, nu.edges)
        return self.field.mul(self.of_path(mu), inv_nu)


class LeavittAlgebra:
    """Element factory and arithmetic context for one (graph, field) pair."""

    def __init__(self, graph: Graph, field: Field):
        self.graph = graph
        self.field = field
        self.special_edge = {
            v: graph.out_edges(v)[0].name for v in graph.vertices if graph.is_regular(v)
        }

    # -- element construction ----------------------------------------------

    def element(self, terms: dict) -> "AlgebraElement":
        """The checked entry point: coerces the coefficients and drops zeros."""
        F = self.field
        out: dict[Monomial, object] = {}
        for m, c in terms.items():
            add_term(F, out, m, F.coerce(c))
        return AlgebraElement(self, out)

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, {})

    def one(self) -> "AlgebraElement":
        """Sum of all vertex idempotents (the identity; the graph is finite)."""
        one = self.field.one()
        return self.element({self._vertex_mono(v): one for v in self.graph.vertices})

    def vertex(self, v: str) -> "AlgebraElement":
        return self.element({self._vertex_mono(v): self.field.one()})

    def edge(self, name: str) -> "AlgebraElement":
        e = self.graph.edge(name)
        mu = self.graph.path([name])
        return self.element({monomial(mu, self.graph.vertex_path(e.rng)): self.field.one()})

    def ghost(self, name: str) -> "AlgebraElement":
        e = self.graph.edge(name)
        nu = self.graph.path([name])
        return self.element({monomial(self.graph.vertex_path(e.rng), nu): self.field.one()})

    def _vertex_mono(self, v: str) -> Monomial:
        p = self.graph.vertex_path(v)
        return Monomial(p, p)

    # -- multiplication ------------------------------------------------------

    def mono_mul(self, m1: Monomial, m2: Monomial) -> Monomial | None:
        """(mu.nu*)(al.be*): mu.gamma.be* if al = nu.gamma, mu.(be.gamma)* if nu = al.gamma, else 0."""
        mu, nu = m1  # unpacked once: a NamedTuple's named field read is slower
        al, be = m2
        gamma = initial_remainder(nu, al)
        if gamma is not None:
            return monomial(concat(mu, gamma), be)
        gamma = initial_remainder(al, nu)
        if gamma is not None:
            return monomial(mu, concat(be, gamma))
        return None

    def is_normal(self, m: Monomial) -> bool:
        if not m.mu.edges or not m.nu.edges:
            return True
        last = m.mu.edges[-1]
        if last != m.nu.edges[-1]:
            return True
        return last != self.special_edge[self.graph.edge(last).src]

    def normalize(self, x: "AlgebraElement") -> "AlgebraElement":
        return AlgebraElement(self, self._normalize_terms(list(x.terms.items())))

    def _normalize_terms(self, work: list) -> dict:
        F = self.field
        out: dict[Monomial, object] = {}
        work = list(work)
        while work:
            m, coef = work.pop()
            if self.is_normal(m):
                add_term(F, out, m, coef)
                continue
            # rewrite mu0.e e*.nu0* -> mu0.nu0* - sum over f != e of mu0.f f*.nu0*
            e = self.graph.edge(m.mu.edges[-1])
            mu0 = FinitePath(m.mu.edges[:-1], m.mu.src, e.src)
            nu0 = FinitePath(m.nu.edges[:-1], m.nu.src, e.src)
            work.append((Monomial(mu0, nu0), coef))
            for f in self.graph.out_edges(e.src):
                if f.name == e.name:
                    continue
                muf = FinitePath(mu0.edges + (f.name,), mu0.src, f.rng)
                nuf = FinitePath(nu0.edges + (f.name,), nu0.src, f.rng)
                work.append((Monomial(muf, nuf), F.neg(coef)))
        return out

    def mul(self, x: "AlgebraElement", y: "AlgebraElement") -> "AlgebraElement":
        self._check(x)
        self._check(y)
        F = self.field
        raw: dict[Monomial, object] = {}
        for m1, c1 in x.terms.items():
            for m2, c2 in y.terms.items():
                m = self.mono_mul(m1, m2)
                if m is not None:
                    add_term(F, raw, m, F.mul(c1, c2))
        return AlgebraElement(self, self._normalize_terms(list(raw.items())))

    def _check(self, x: "AlgebraElement"):
        if x.algebra is not self and (
            x.algebra.graph.to_json_dict() != self.graph.to_json_dict()
            or x.algebra.field != self.field
        ):
            raise AlgebraError("elements live over different graphs or fields")


class AlgebraElement(LinearCombination):
    """A finite K-linear combination of monomials (no zero coefficients stored)."""

    __slots__ = ("algebra",)

    def __init__(self, algebra: LeavittAlgebra, terms: dict):
        self.algebra = algebra
        self.terms = dict(terms)

    @property
    def field(self) -> Field:
        return self.algebra.field

    def _like(self, terms: dict) -> "AlgebraElement":
        return AlgebraElement(self.algebra, terms)

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self.algebra.mul(self, other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.algebra.normalize(self - other).is_zero

    def __hash__(self):
        raise TypeError("algebra elements are unhashable; compare with ==")


@per_graph
def all_monomials(graph: Graph, max_len: int) -> tuple[Monomial, ...]:
    """Every mu.nu* with |mu|, |nu| <= max_len, canonically ordered."""
    paths: list[FinitePath] = [graph.vertex_path(v) for v in graph.vertices]
    frontier = list(paths)
    for _ in range(max_len):
        nxt = []
        for p in frontier:
            for e in graph.out_edges(p.rng):
                nxt.append(FinitePath(p.edges + (e.name,), p.src, e.rng))
        paths.extend(nxt)
        frontier = nxt
    by_range: dict[str, list[FinitePath]] = {}
    for p in paths:
        by_range.setdefault(p.rng, []).append(p)
    out = []
    for v in sorted(by_range):
        group = sorted(by_range[v], key=FinitePath.sort_key)
        for mu in group:
            for nu in group:
                out.append(Monomial(mu, nu))
    return tuple(out)


def random_element(algebra: LeavittAlgebra, rng, max_len: int = 2, max_terms: int = 2) -> AlgebraElement:
    """A small random element for property tests (seeded rng)."""
    monos = all_monomials(algebra.graph, max_len)
    terms: dict[Monomial, object] = {}
    F = algebra.field
    for _ in range(rng.randint(1, max_terms)):
        m = monos[rng.randrange(len(monos))]
        add_term(F, terms, m, F.random(rng))
    return AlgebraElement(algebra, terms)
