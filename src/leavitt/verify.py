"""Window linear algebra, restriction, intertwiners, and certificates.

Infinite-dimensional modules are handled on explicit finite windows; any
operation that must close a matrix over a window raises OutOfWindowError
instead of truncating.  The certificate builders realize the structural
isomorphisms between induced modules and the boundary-path families as
executable mutual inverses, checked exactly on windows together with
degree preservation and equivariance.  Equivariance is checked on the
generators, over the window's closure under the steps of the short
monomials (the window itself when it is the whole basis): a pass is a
proof for those monomials, and a failure names a generator and a basis
element where the map is not a module map.

A full window also keeps its generator actions indexed by the support
(``Window.actions``): for each basis element, the nonzero columns of the
generators that can act on it, without the vertex idempotents that are
sums and products of edges and ghosts (``spin_generators``).  The one spin
(``_spin``) multiplies each new vector through that index alone and
records how each spin vector arose and the coordinates of each image that
was already spanned.  The simplicity probe reads its dimension, and Hom is
solved by spinning (``intertwiner_space``): the unknowns are the values of
a map at the seeds, and the spin's relations are its equations.

Induced at a non-rational base with trivial coefficients, or at a cycle
tail with a scalar action or with K[t]/(f), the induced module is the
(twisted or scalar-extended) boundary-path module under one map,
(y, k, x) (x) t^j -> a_mu a_nu^(-1) t^j y with y = mu.p and x = nu.p
(``boundary_iso_maps``).  The induced side computes with lags and cosets
and the boundary side with twist products, so the certificate compares
two independent formulas.  Its negative control drops the a_nu^(-1)
factor and must fail.
"""

from __future__ import annotations

import functools
import random
from typing import NamedTuple

from .algebra import (
    LeavittAlgebra,
    Monomial,
    TwistVector,
    all_monomials,
    monomial,
    random_element,
)
from .fields import Field, Poly
from .graphs import (
    BoundaryPath,
    FinitePath,
    Graph,
    Lasso,
    SinkPath,
    cycle_tail,
    initial_path,
    per_graph,
    prepend,
    strip_prefix,
    tail_lags,
    unroll,
)
from .linalg import (
    add_scaled,
    add_term,
    echelon_step,
    linear_extend,
    nullspace,
    row_reduce,
)
from .groupoid import bisection_product, bisections_match_monomial, monomial_bisection
from .records import InputError, same_class_eq, same_class_ne
from .reps import (
    ChenBasis,
    ChenExtModule,
    ChenExtSpec,
    ChenModule,
    ChenSpec,
    CosetBasis,
    InducedModule,
    InducedSpec,
    LaurentCoeff,
    Module,
    ModuleSpec,
    ModuleSpecError,
    ModuleVector,
    NvcBasis,
    NvcModule,
    NvcSpec,
    QuotientCoeff,
    ScalarAction,
    TrivialCoeff,
    build_module,
)

RESTRICTION_CAP = 6  # idempotents the restriction chain may need before it stabilizes


class OutOfWindowError(InputError):
    """An action left the enumerated window; the window is not closed."""


class Window:
    """A finite slice of a module's canonical basis, with exact matrices."""

    def __init__(self, module: Module, elements):
        self.module = module
        self.elements = tuple(elements)
        self.index = {b: i for i, b in enumerate(self.elements)}

    @classmethod
    def full(cls, module: Module) -> "Window":
        enum = module.enumerate_basis(0)  # exact, whatever the bound, just when finite-dimensional
        if not enum.exact:
            raise ModuleSpecError("module is not finite-dimensional")
        return cls(module, enum.elements)

    @property
    def dim(self) -> int:
        return len(self.elements)

    def _column(self, mono: Monomial, b) -> dict:
        """``module.act_monomial_basis`` of mono on b, keyed by window index."""
        col = {}
        for b2, c in self.module.act_monomial_basis(mono, b).items():
            i = self.index.get(b2)
            if i is None:
                raise OutOfWindowError(f"action of {mono} leaves the window at {b2}")
            col[i] = c
        return col

    def matrix_of(self, mono: Monomial) -> list[dict]:
        """The matrix of the monomial ``mono`` as sparse columns: column j is
        ``module.act_monomial_basis`` on basis element j, as a {row:
        coefficient} dict."""
        return [self._column(mono, b) for b in self.elements]

    @functools.cached_property
    def actions(self) -> list[dict[int, dict]]:
        """The spin's generators on the window, indexed by the support: entry
        j is {k: column j of the matrix of spin_generators(graph)[k]} over
        the k whose column j is nonzero.

        Only the generators in ``generator_support`` of basis element j are
        tried, about 3 of the 3.V generators, and the rest act on it by zero
        (the proof is in ``generator_support``).  Built once per window, on
        first use."""
        graph = self.module.graph
        position = {g: k for k, g in enumerate(spin_generators(graph))}
        support = generator_support(graph)
        out = []
        for b in self.elements:
            cols = {}
            for g in support(b):
                k = position.get(g)
                if k is not None:
                    col = self._column(g, b)
                    if col:
                        cols[k] = col
            out.append(cols)
        return out

    def degrees(self) -> list[int]:
        return [self.module.grade(b) for b in self.elements]


@per_graph
def generators(graph: Graph) -> tuple[Monomial, ...]:
    """Vertex idempotents, edges, and ghost edges, as monomials in canonical order."""
    out = [Monomial(p, p) for p in map(graph.vertex_path, graph.vertices)]
    for e in graph.edges:
        path, rng = graph.path([e.name]), graph.vertex_path(e.rng)
        out += [Monomial(path, rng), Monomial(rng, path)]
    return tuple(out)


@per_graph
def spin_generators(graph: Graph) -> tuple[Monomial, ...]:
    """The generators that spins and Hom act with, in ``generators`` order:
    the idempotent of each isolated vertex, then the edges and ghost edges.

    Proof that a subspace closed under these is closed under every vertex
    idempotent, and that a linear map commuting with these commutes with
    every vertex idempotent: a vertex v with an out-edge is regular (the
    graph is finite), so v = sum over s(e) = v of s_e s_e* (CK2); a sink w
    with an in-edge e is s_e* s_e (CK1).  Both are products and sums of
    edges and ghosts, and every module here is an L_K(E)-module, so v acts
    by the same products and sums.  Only a vertex with no edge at all keeps
    its idempotent.  Certificates and the equivariance check keep every
    generator."""
    isolated = {v for v in graph.vertices if not (graph.out_edges(v) or graph.in_edges(v))}
    return tuple(g for g in generators(graph) if g.mu.edges or g.nu.edges or g.mu.src in isolated)


@per_graph
def generator_support(graph: Graph):
    """The function b -> the generators that can act nonzero on the basis
    element b.

    A basis element with a boundary path x (boundary-path, scalar-extended
    and induced modules): the idempotent at the source v of x, the edges
    into v, and the ghost of x's first edge e, read from a table keyed by
    (v, e), or (v, None) when x is the sink v.  Proof that no generator
    acting nonzero is left out: each of these modules starts
    ``act_monomial_basis(mu.nu*, b)`` with ``strip_prefix(nu, b.path)``
    and returns {} when it is None, so mu.nu* acts nonzero on b only when
    nu is an initial path of x.  A generator's nu has length 0 or 1, so it
    is v, the ghost part of the idempotent v and of the edges into v, or
    e, that of the ghost e* alone.

    A no-exit-cycle basis element mu.nu* (``NvcBasis``): the idempotent at
    v = s(mu), the edges into v and the ghosts of the edges out of v, the
    generators whose ghost part starts at v.  Proof: b = v.b in the
    algebra, so g.b = (g.v).b, and g.v = 0 unless g is v, an edge e with
    r(e) = v (e = e.r(e)) or a ghost e* with s(e) = v (e* = e*.s(e)).
    Some of those ghosts may still act as zero."""
    by_src: dict[str, tuple[Monomial, ...]] = {}
    for g in generators(graph):
        by_src[g.nu.src] = by_src.get(g.nu.src, ()) + (g,)
    table = {}
    for v, gens in by_src.items():
        at_v = table[v, None] = tuple(g for g in gens if not g.nu.edges)
        for g in gens:
            if g.nu.edges:  # the ghost of an edge out of v
                table[v, g.nu.edges[0]] = at_v + (g,)

    def support(b) -> tuple[Monomial, ...]:
        if isinstance(b, NvcBasis):
            return by_src[b.mono.mu.src]
        x = b.path
        first = unroll(x, 1)
        return table[x.source, first[0] if first else None]

    return support


# ---------------------------------------------------------------------------
# Restriction along the descending chain of cylinder idempotents


class Restriction(NamedTuple):
    """Res_x M: its dimension, the isotropy generator as sparse columns in
    its reduced echelon basis (column j is the image of basis vector j, as
    {i: c}), the idempotents needed, and the basis degrees when graded."""

    dimension: int
    generator_matrix: list[dict]
    steps: int
    degrees: list | None

    __eq__, __ne__, __hash__ = same_class_eq, same_class_ne, tuple.__hash__


def _isotropy_monomial(module: Module, x: BoundaryPath) -> Monomial | None:
    """A monomial whose bisection contains the isotropy generator (x, |c|, x)."""
    if isinstance(x, SinkPath):
        return None
    return monomial(initial_path(module.graph, x, len(x.prefix) + x.period), x.prefix)


def restrict(module: Module, x: BoundaryPath, cap: int = RESTRICTION_CAP) -> Restriction:
    """Intersection of the idempotent images over initial subpaths of x.

    Requires a finite-dimensional module.  The chain is descending and,
    because cylinder idempotents act by prefix matching, it is provably
    constant beyond a horizon set by the longest basis prefix; ``steps``
    reports how many idempotents were needed before the image stopped
    moving, and exceeding ``cap`` is an explicit error.
    """
    window = Window.full(module)
    F = module.field
    if isinstance(x, SinkPath):
        horizon = len(x.path)
    else:
        reach = max(
            (
                len(b.path.prefix)
                for b in window.elements
                if isinstance(b, (ChenBasis, CosetBasis)) and isinstance(b.path, Lasso)
            ),
            default=0,
        )
        horizon = len(x.prefix) + reach + 2 * x.period + 1
    images = []
    for m in range(horizon + 1):
        mu = initial_path(module.graph, x, m)
        images.append(row_reduce(F, window.matrix_of(monomial(mu, mu))))
    final = images[-1]
    first_stable = next(m for m in range(len(images)) if images[m] == final)
    reported_steps = first_stable + 1
    if reported_steps > cap:
        raise OutOfWindowError(
            f"idempotent chain did not stabilize within {cap} steps ({reported_steps} needed)"
        )
    order = sorted(final)
    basis = [final[p] for p in order]
    dim = len(basis)
    gen_mono = _isotropy_monomial(module, x)
    if gen_mono is None or dim == 0:
        gen = [{j: F.one()} for j in range(dim)]
    else:
        gcols = window.matrix_of(gen_mono)
        gen = []
        for w in basis:
            # The basis is reduced, so an image inside its span has its
            # coordinates at the pivots, and is that combination of the basis.
            image = linear_extend(F, gcols.__getitem__, w)
            col = {i: image[p] for i, p in enumerate(order) if p in image}
            if linear_extend(F, basis.__getitem__, col) != image:
                raise OutOfWindowError("isotropy generator does not preserve the restriction")
            gen.append(col)
    degrees = None
    if module.gradable:
        degrees = []
        for w in basis:
            degs = {module.grade(window.elements[i]) for i in w}
            degrees.append(degs.pop() if len(degs) == 1 else None)
    return Restriction(dim, gen, reported_steps, degrees)


# ---------------------------------------------------------------------------
# The spin and intertwiner spaces


class Spin(NamedTuple):
    """The record of a spin (``_spin``) on a window of dimension n.

    ``steps[t]`` says where the spin vector v_t came from: (k, g) when
    v_t = g.v_k for the spin generator of index g (``Window.actions``), or
    (None, j) when v_t is the seed e_j.  ``images[k]`` holds, for each
    generator g acting nonzero on some term of v_k, either the index t of
    the new vector v_t = g.v_k or the coordinates {t: c} with
    g.v_k = sum of c.v_t over earlier spin vectors ({} when g.v_k = 0).
    ``pivots`` is the echelon form of the spin vectors: each row holds a
    vector at the window's indices below n and, at n + t, its coordinates
    in the spin vectors v_t (the tag columns)."""

    steps: list
    images: list
    pivots: dict

    __eq__, __ne__, __hash__ = same_class_eq, same_class_ne, tuple.__hash__


def _spin(window: Window, seeds) -> Spin:
    """Spin each seed index not yet spanned, in the order given, under the
    spin generators (Parker's spin, indexed by the support).

    Each spin vector v_k is multiplied once through ``window.actions`` at
    its terms alone, so only the generators that act nonzero on one of
    them are applied.  An image is reduced against the echelon form with a
    tag column n + t for its own index: it reduces either to a new pivot,
    when v_t is a new spin vector, or into the tags, which then read its
    coordinates in the earlier spin vectors (``echelon_step`` stops at the
    first tag).  Each row's vector is the combination of spin vectors its
    tags read, since that holds for each row added and is kept by every
    reduction step.  When no spin vector is left unmultiplied, the spin
    vectors are a basis of the subspace that holds the seeds and that every
    spin generator, hence every generator (``spin_generators``), maps into
    itself: the submodule the seeds generate."""
    F = window.module.field
    n, actions = window.dim, window.actions
    one = F.one()
    pivots: dict[int, dict] = {}
    steps: list = []
    images: list[dict] = []
    vectors: list[dict] = []  # v_t, unreduced

    def add(vec: dict, step):
        t = len(steps)
        row = dict(vec)
        row[n + t] = one
        if echelon_step(F, pivots, row, n) is None:
            return {s - n: F.neg(c) for s, c in row.items() if s != n + t}
        steps.append(step)
        images.append({})
        vectors.append(vec)
        return t

    for j in seeds:
        made = add({j: one}, (None, j))
        todo = [] if isinstance(made, dict) else [made]
        while todo:
            k = todo.pop()
            acted: dict[int, dict] = {}
            for i, c in vectors[k].items():
                for g, col in actions[i].items():
                    add_scaled(F, acted.setdefault(g, {}), c, col)
            for g, image in acted.items():
                made = add(image, (k, g))
                images[k][g] = made
                if not isinstance(made, dict):
                    todo.append(made)
    return Spin(steps, images, pivots)


def intertwiner_space(modA: Module, modB: Module, graded: bool = False, degree: int = 0) -> list[list[dict]]:
    """Basis of Hom(A, B) (graded mode: maps of the given degree)
    between finite-dimensional modules over one graph and one field, by
    spinning (Schneider, J. Symbolic Comput. 9, 1990).

    A is spun (``_spin``) from its basis vectors, each taken as a seed when
    not yet spanned, in index order.  The unknowns are the coordinates of
    T(seed) in B, in graded mode only at the rows of degree deg(seed) +
    ``degree``; so a cyclic A has dim B unknowns at most.  Each spin step
    v_t = g.v_k defines T(v_t) = g_B.T(v_k), a B-vector of linear forms in
    the unknowns.  The equations are g_B.T(v_k) = sum of c.T(v_t) for each
    recorded image g.v_k = sum of c.v_t, and g_B.T(v_k) = 0 for each
    generator g with g.v_k = 0 that acts nonzero on a term of T(v_k).
    ``nullspace`` solves them, and each solution is taken back to A's basis
    through the coordinates of each e_j in the spin vectors (the back-
    substituted tag columns).

    Proof that the solutions are exactly the module maps of that degree:
    the spin vectors are linearly independent and span A (every basis
    vector was a seed or spanned), so the values T(v_t) fix one linear map
    T, homogeneous of the degree when every T(v_t) is, as the graded
    unknowns make it.  T is a module map iff T(g.v_k) = g_B.T(v_k) for
    every spin generator g and spin vector v_k, because the spin
    generators generate the action (``spin_generators``) and the v_k span
    A.  For each pair, either g.v_k is the spin vector v_t, where the
    identity holds by the definition of T(v_t), or it is a recorded image,
    where it is the equation, or g.v_k = 0 with g acting by zero on every
    term of v_k, where it is the equation g_B.T(v_k) = 0, trivial unless g
    acts nonzero on a term of T(v_k).

    The basis is in reverse reduced echelon form over the entries T[i][j]
    in row-major order: each map is one at its last nonzero entry and zero
    at the last nonzero entries of the others, and the maps come in the
    order of those entries.  It depends only on the space of maps, and it
    is the basis that a nullspace over the unknowns T[i][j] gives.  Each map
    T is returned as dim A sparse columns: ``T[j]`` is T(e_j) as {i: c}."""
    if modA.field != modB.field:
        raise ModuleSpecError("modules live over different fields")
    if (modA.graph.vertices, modA.graph.edges) != (modB.graph.vertices, modB.graph.edges):
        raise ModuleSpecError("modules live over different graphs")
    F = modA.field
    winA = Window.full(modA)
    winB = winA if modB is modA else Window.full(modB)
    nA, nB = winA.dim, winB.dim
    degsA, degsB = (winA.degrees(), winB.degrees()) if graded else (None, None)
    spin = _spin(winA, range(nA))
    one = F.one()
    actionsB = winB.actions
    empty: dict = {}

    def act_forms(g: int, forms: dict) -> dict:
        """g_B on a B-vector of linear forms, kept as {unknown: B-vector}."""
        out = {}
        for u, vec in forms.items():
            image = linear_extend(F, lambda i: actionsB[i].get(g, empty), vec)
            if image:
                out[u] = image
        return out

    values: list[dict] = []  # T(v_t) as {unknown: B-vector}
    unknowns = 0
    for k, g in spin.steps:
        if k is None:
            rows = range(nB) if not graded else [i for i in range(nB) if degsB[i] == degsA[g] + degree]
            values.append({unknowns + s: {i: one} for s, i in enumerate(rows)})
            unknowns += len(rows)
        else:
            values.append(act_forms(g, values[k]))

    def equations():
        for k, forms in enumerate(values):
            imagesA = spin.images[k]
            acting = {g: None for vec in forms.values() for i in vec for g in actionsB[i]}
            for g in dict.fromkeys([*imagesA, *acting]):
                made = imagesA.get(g, empty)
                if not isinstance(made, dict):
                    continue  # g.v_k is a spin vector: T(g.v_k) is defined as g_B.T(v_k)
                eq = act_forms(g, forms)
                for t, c in made.items():
                    minus_c = F.neg(c)
                    for u, vec in values[t].items():
                        add_scaled(F, eq.setdefault(u, {}), minus_c, vec)
                rows: dict[int, dict] = {}
                for u, vec in eq.items():
                    for i, c in vec.items():
                        rows.setdefault(i, {})[u] = c
                yield from rows.values()

    solutions = nullspace(F, equations(), unknowns)
    if not solutions:
        return []
    # Back-substituted, the echelon row at j is e_j there, so its tag
    # columns read e_j in the spin vectors.
    echelon = row_reduce(F, spin.pivots.values())
    in_spin = [{t - nA: c for t, c in echelon[j].items() if t >= nA} for j in range(nA)]
    last = nA * nB - 1  # T[i][j] is keyed last - (i.nA + j), so the least key is the last entry
    maps = []
    for y in solutions:
        at = [linear_extend(F, forms.get, y) for forms in values]
        row = {}
        for j in range(nA):
            for i, c in linear_extend(F, at.__getitem__, in_spin[j]).items():
                row[last - (i * nA + j)] = c
        maps.append(row)
    reduced = row_reduce(F, maps)
    out = []
    for key in sorted(reduced, reverse=True):
        T: list[dict] = [{} for _ in range(nA)]
        for k, c in reduced[key].items():
            i, j = divmod(last - k, nA)
            T[j][i] = c
        out.append(T)
    return out


# ---------------------------------------------------------------------------
# Certificates


class Certificate:
    """The checks of one claim, recorded as they run (so not a tuple)."""

    __slots__ = ("claim", "window", "checks", "passed", "counterexample")

    def __init__(
        self,
        claim: str,
        window: dict,
        checks: list | None = None,
        passed: bool = True,
        counterexample: dict | None = None,
    ):
        self.claim = claim
        self.window = window
        self.checks = [] if checks is None else checks
        self.passed = passed
        self.counterexample = counterexample

    def _key(self) -> tuple:
        return (self.claim, self.window, self.checks, self.passed, self.counterexample)

    def __eq__(self, other):
        if type(other) is not Certificate:
            return NotImplemented
        return self._key() == other._key()

    __hash__ = None  # mutable

    def __repr__(self) -> str:
        return "Certificate(" + ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._key())) + ")"

    def record(self, name: str, ok: bool, detail: str = ""):
        self.checks.append({"name": name, "passed": ok, "detail": detail})
        if not ok:
            self.passed = False
            if self.counterexample is None:
                self.counterexample = {"check": name, "detail": detail}

    def to_json_dict(self) -> dict:
        return {
            "claim": self.claim,
            "window": self.window,
            "checks": self.checks,
            "pass": self.passed,
            "counterexample": self.counterexample,
        }


def _check_window(bound: int, mono_len: int):
    if bound < 0 or mono_len < 0:
        raise ModuleSpecError("the window bound and monomial length must be nonnegative")


def check_module_iso(claim: str, modA: Module, modB: Module, maps, bound: int, mono_len: int) -> Certificate:
    """The certificate that maps = (phi, psi), phi: A-basis -> B-vector and
    psi: B-basis -> A-vector, are mutually inverse and equivariant on the
    windows of ``bound`` and preserve degrees when A is graded.

    Equivariance is the generator check (``_generators_equivariant``) on
    A's window, to closure depth ``mono_len``; an exact window (A's whole
    basis) is its own closure, and there ``mono_len`` is recorded but
    unused.  A pass proves f(eta.b) = eta.f(b) for every b in the window
    and every monomial eta with both path lengths at most ``mono_len``,
    and for every monomial when the window is exact.  A failure names a
    generator g and an element d of A's basis with f(g.d) != g.f(d), so
    phi is not a module map.

    phi and psi are pure, so each is evaluated once per basis element; the
    memo lives for this call.  Both sides of each check are still computed
    independently."""
    _check_window(bound, mono_len)
    enumA = modA.enumerate_basis(bound)
    elemsA, elemsB = enumA.elements, modB.enumerate_basis(bound).elements
    cert = Certificate(claim, {"basis": len(elemsA), "mono_len": mono_len, "exact": enumA.exact})
    F = modA.field
    one = F.one()
    phi, psi = (functools.cache(f) for f in maps)
    ok = all(linear_extend(F, lambda b2: psi(b2).terms, phi(b).terms) == {b: one} for b in elemsA)
    cert.record("psi-after-phi-is-identity", ok)
    ok = all(linear_extend(F, lambda b2: phi(b2).terms, psi(b).terms) == {b: one} for b in elemsB)
    cert.record("phi-after-psi-is-identity", ok)
    if modA.gradable:
        ok = True
        for b in elemsA:
            d = modA.grade(b)
            ok = ok and all(modB.grade(b2) == d for b2 in phi(b).terms)
        for b in elemsB:
            d = modB.grade(b)
            ok = ok and all(modA.grade(b2) == d for b2 in psi(b).terms)
        cert.record("degree-preservation", ok)
    bad = _generators_equivariant(modA, modB, phi, elemsA, 0 if enumA.exact else mono_len)
    cert.record(
        "equivariance",
        bad is None,
        "" if bad is None else "eta={} on {}: {} != {}".format(*bad),
    )
    return cert


def _generators_equivariant(modA: Module, modB: Module, f, elems, depth: int):
    """None when f(g.d) = g.f(d) for every generator g and every d in the
    closure D of depth ``depth`` of elems, else the first failure
    (g, d, f(g.d), g.f(d)).

    A's action and then f make one side, f and then B's action the other.
    Only the generators in the support (``generator_support``) of d or of a
    term of f(d) are tried: any other g gives zero on both sides.

    D holds elems, then the elements up to ``depth`` ghost steps away, then
    those up to depth - 1 edge steps further, found breadth-first in that
    order; a step adds the terms of g.d for a ghost (an edge) g in d's
    support.  With depth 0, D is elems.  D keeps the order it is found in,
    and each of its elements is checked once, when it is found, so the
    check stops at the first failure.

    Proof that None means f(eta.b) = eta.f(b) for every b in elems and every
    monomial eta = mu.nu* with |mu|, |nu| <= depth, and for every monomial
    whatever its length when elems is A's whole basis (an exact window).
    eta is a product g_1...g_n of generators: e_1...e_k f_l*...f_1*, or the
    idempotent v when mu = nu = v.  Each module acts by eta as by g_n, then
    g_(n-1), ..., then g_1 (the module axioms; tier-1 tests check this for
    every module kind).  Each proper suffix h_i = g_(i+1)...g_n (i >= 1) is
    at most l <= depth ghosts, or all l ghosts and then at most k - 1 <=
    depth - 1 edges, so the terms of h_i.b are in D; on a whole basis they
    are in elems = D for every eta.  Downwards from h_n = 1, where it is
    trivial, f(h_i.b) = h_i.f(b) for each i: h_(i-1).b = g_i.w for
    w = h_i.b, whose terms are in D; f(g_i.w) = g_i.f(w) by the check on
    each term of w and linearity; and f(w) = h_i.f(b).  So
    f(eta.b) = f(h_0.b) = eta.f(b).  A failure is a generator g and a
    basis element d of A with f(g.d) != g.f(d), so f is not a module map."""
    F = modA.field
    support = generator_support(modA.graph)
    image = lambda b: f(b).terms
    act_basis, act = modA.act_monomial_basis, modB.act_monomial
    reached: dict = {}  # d in D -> (terms of its ghost steps, terms of its edge steps)

    def failure(d):
        fd = f(d).terms
        ghost_terms, edge_terms = {}, {}
        for g in dict.fromkeys(h for t in (d, *fd) for h in support(t)):
            gd = act_basis(g, d)
            lhs, rhs = linear_extend(F, image, gd), act(g, fd)
            if lhs != rhs:
                return g, d, ModuleVector(F, lhs), ModuleVector(F, rhs)
            if g.nu.edges:
                ghost_terms.update(gd)
            elif g.mu.edges:
                edge_terms.update(gd)
        reached[d] = ghost_terms, edge_terms
        return None

    for d in elems:
        bad = failure(d)
        if bad:
            return bad
    for side, levels in ((0, depth), (1, depth - 1)):
        frontier = list(elems if side == 0 else reached)
        for _ in range(levels):
            found = []
            for d in frontier:
                for t in reached[d][side]:
                    if t not in reached:
                        bad = failure(t)
                        if bad:
                            return bad
                        found.append(t)
            frontier = found
    return None


def boundary_iso_maps(
    modA: InducedModule, modB: ChenModule | ChenExtModule, drop_nu_inverse: bool = False
):
    """phi: (y,k,x) (x) t^j -> a_mu a_nu^(-1) t^j y, with y = mu.p and x = nu.p
    along the canonical decomposition, and its inverse psi.

    One formula covers trivial coefficients at a non-rational base (the
    twisted module), a scalar action at a cycle tail (the module twisted by
    that scalar on the cycle's first edge) and K[t]/(f) at a cycle tail
    (the scalar extension, twisted by the class of t).  ``drop_nu_inverse``
    deliberately corrupts phi to a_mu alone (negative control).
    """
    twist = modB.twist or TwistVector.make(modB.graph, modB.scalars, {})

    def phi(b: CosetBasis) -> ModuleVector:
        mu, nu = modA.canonical_decomposition(b.path)
        scale = twist.of_path(mu) if drop_nu_inverse else twist.ratio(mu, nu)
        value = modB.expand(scale, b.power)
        return ModuleVector(modB.field, {ChenBasis(b.path, j): c for j, c in value.items()})

    def psi(b: ChenBasis) -> ModuleVector:
        mu, nu = modA.canonical_decomposition(b.path)
        value = modB.expand(twist.ratio(nu, mu), b.power)
        k = len(mu) - len(nu)
        return ModuleVector(modA.field, {CosetBasis(b.path, k, j): c for j, c in value.items()})

    return phi, psi


def verify_triv_iso(
    graph,
    field: Field,
    x: SinkPath,
    twist: TwistVector | None = None,
    bound: int = 4,
    mono_len: int = 3,
    corrupt: bool = False,
) -> Certificate:
    """Certificate: inducing the trivial coefficient at a non-rational base
    point is graded-isomorphic to the twisted boundary-path module."""
    if not isinstance(x, SinkPath):
        raise ModuleSpecError("this certificate needs a non-rational (sink) base point")
    modA = build_module(graph, field, InducedSpec(x, TrivialCoeff(0)))
    modB = build_module(graph, field, ChenSpec(x, twist))
    claim = f"induced trivial coefficients at {x} match the twisted boundary-path module"
    maps = boundary_iso_maps(modA, modB, drop_nu_inverse=corrupt)
    return check_module_iso(claim, modA, modB, maps, bound, mono_len)


def verify_twist_iso(
    graph,
    field: Field,
    cycle: FinitePath,
    coeff: ScalarAction | QuotientCoeff,
    bound: int = 4,
    mono_len: int = 3,
) -> Certificate:
    """Certificate: inducing a scalar action (resp. quotient field) at a cycle
    tail matches the twisted (resp. scalar-extended) boundary-path module."""
    x = cycle_tail(graph, cycle)
    modA = build_module(graph, field, InducedSpec(x, coeff))
    if isinstance(coeff, ScalarAction):
        twist = TwistVector.make(graph, field, {x.cycle[0]: coeff.value})
        modB = build_module(graph, field, ChenSpec(x, twist))
        claim = f"induced scalar action {field.format(field.coerce(coeff.value))} at {x} matches the twisted boundary-path module"
    else:
        modB = build_module(graph, field, ChenExtSpec.over(cycle, coeff))
        claim = f"induced quotient field K[t]/({coeff.modulus}) at {x} matches the scalar-extended boundary-path module"
    return check_module_iso(claim, modA, modB, boundary_iso_maps(modA, modB), bound, mono_len)


def nvc_iso_maps(modA: InducedModule, modB: NvcModule):
    """phi (y,k,x) -> mu.nu* (normal form) and psi mu.nu* -> (mu.p, |mu|-|nu|, x)
    with x = nu.p."""
    graph = modA.graph
    F = modA.field
    x = modA.spec.base
    n = x.period
    algebra = modB.algebra()

    def phi(b: CosetBasis) -> ModuleVector:
        mu, nu = modA.canonical_decomposition(b.path)
        steps = (b.lag - (len(mu) - len(nu))) // n
        if steps > 0:
            mu = initial_path(graph, b.path, len(mu) + steps * n)
        elif steps < 0:
            nu = initial_path(graph, x, len(nu) - steps * n)
        (m, c), = algebra._normalize_terms([(monomial(mu, nu), F.one())]).items()
        return ModuleVector(F, {NvcBasis(m): c})

    def psi(b: NvcBasis) -> ModuleVector:
        m = b.mono
        y = prepend(graph, m.mu, strip_prefix(graph, m.nu, x))
        return ModuleVector(F, {CosetBasis(y, m.degree): F.one()})

    return phi, psi


def verify_nvc_iso(graph, field: Field, cycle: FinitePath, bound: int = 3, mono_len: int = 2) -> Certificate:
    """Certificate: inducing the full isotropy group algebra at the tail of a
    no-exit cycle matches the graded monomial module based at the cycle."""
    modB = build_module(graph, field, NvcSpec(cycle))  # validates no exits
    x = modB.tail
    modA = build_module(graph, field, InducedSpec(x, LaurentCoeff(0)))
    claim = f"inducing the isotropy group algebra at {x} matches the no-exit-cycle monomial module"
    return check_module_iso(claim, modA, modB, nvc_iso_maps(modA, modB), bound, mono_len)


def _annihilates(field: Field, f: Poly, cols: list[dict]) -> bool:
    """Whether f(M) = 0, by Horner's rule on the sparse columns of M:
    column j of f(M) is (...(f_d M + f_(d-1)) M + ... + f_0) e_j."""
    n = len(cols)
    value: list[dict] = [{} for _ in range(n)]
    for c in reversed(f.coeffs):
        value = [linear_extend(field, cols.__getitem__, col) for col in value]
        for j, col in enumerate(value):
            add_term(field, col, j, c)
    return not any(value)


def verify_res_ind(graph, field: Field, spec: InducedSpec, cap: int = RESTRICTION_CAP) -> Certificate:
    """Certificate: restricting the induced module at its base point recovers
    the coefficient module (dimension and isotropy action)."""
    module = build_module(graph, field, spec)
    coeff = spec.coeff
    if isinstance(coeff, LaurentCoeff):
        raise ModuleSpecError("restriction comparison is for finite-dimensional coefficients")
    res = restrict(module, spec.base, cap)
    cert = Certificate(
        claim=f"restriction at {spec.base} recovers the coefficient module",
        window={"cap": cap, "steps": res.steps},
    )
    expected_dim = 1 if isinstance(coeff, (TrivialCoeff, ScalarAction)) else coeff.modulus.degree
    cert.record("dimension", res.dimension == expected_dim, f"dim {res.dimension} vs {expected_dim}")
    cert.record("stabilization-steps", res.steps <= cap, f"{res.steps} steps")
    if isinstance(coeff, TrivialCoeff):
        cert.record("generator-is-identity", res.generator_matrix == [{j: field.one()} for j in range(res.dimension)])
        want = -coeff.shift - spec.shift
        cert.record(
            "degrees-match-shift",
            res.degrees == [want] * res.dimension,
            f"degrees {res.degrees} vs {[want] * res.dimension}",
        )
    elif isinstance(coeff, ScalarAction):
        a = field.coerce(coeff.value)
        zero, gen = field.zero(), res.generator_matrix
        rows = ", ".join(
            "[" + ", ".join(field.format(col.get(i, zero)) for col in gen) + "]" for i in range(len(gen))
        )
        cert.record(
            "generator-is-scalar",
            gen == [{0: a}],
            f"matrix [{rows}] vs [[{field.format(a)}]]",
        )
    else:
        f = coeff.modulus
        cert.record("dimension-equals-degree", res.dimension == f.degree)
        if res.dimension == f.degree:
            cert.record(
                "generator-satisfies-modulus",
                _annihilates(field, f, res.generator_matrix),
                "f(M) = 0 certifies similarity to the companion matrix",
            )
    return cert


def verify_relations(graph, field: Field, seed: int = 0, triples: int = 200) -> Certificate:
    """The five defining relations as normal-form identities, plus sampled
    associativity triples with exact equality."""
    A = LeavittAlgebra(graph, field)
    cert = Certificate(
        claim="defining relations and associativity hold in normal form",
        window={"seed": seed, "triples": triples},
    )
    ok = all(
        A.vertex(v) * A.vertex(w) == (A.vertex(v) if v == w else A.zero())
        for v in graph.vertices
        for w in graph.vertices
    )
    cert.record("vertex-idempotents", ok)
    ok = True
    for e in graph.edges:
        el, gh = A.edge(e.name), A.ghost(e.name)
        ok = ok and A.vertex(e.src) * el == el == el * A.vertex(e.rng)
        ok = ok and A.vertex(e.rng) * gh == gh == gh * A.vertex(e.src)
    cert.record("edge-endpoint-relations", ok)
    ok = all(
        A.ghost(e.name) * A.edge(f.name)
        == (A.vertex(e.rng) if e.name == f.name else A.zero())
        for e in graph.edges
        for f in graph.edges
    )
    cert.record("ghost-edge-orthogonality", ok)
    ok = True
    for v in graph.vertices:
        if graph.is_regular(v):
            acc = A.zero()
            for e in graph.out_edges(v):
                acc = acc + A.edge(e.name) * A.ghost(e.name)
            ok = ok and acc == A.vertex(v)
    cert.record("range-decomposition", ok)
    rng = random.Random(seed)
    bad = None
    for _ in range(triples):
        x, y, z = (random_element(A, rng) for _ in range(3))
        if ((x * y) * z).terms != (x * (y * z)).terms:
            bad = {"x": str(x), "y": str(y), "z": str(z)}
            break
    cert.record(
        "associativity",
        bad is None,
        "" if bad is None else f"({bad['x']})({bad['y']})({bad['z']})",
    )
    return cert


def verify_pi_consistency(graph, field: Field, max_len: int = 3) -> Certificate:
    """Monomial products match bisection products for every pair of monomials
    with both path lengths at most ``max_len`` (exhaustive)."""
    A = LeavittAlgebra(graph, field)
    monos = all_monomials(graph, max_len)
    cert = Certificate(
        claim="monomial multiplication matches the bisection calculus",
        window={"max_len": max_len, "monomials": len(monos)},
    )
    # Each monomial's bisection is built once; each pair still multiplies
    # the monomials and the bisections by their own formulas.
    bisected = [(m, monomial_bisection(graph, m)) for m in monos]
    bad = None
    checked = 0
    for m1, b1 in bisected:
        for m2, b2 in bisected:
            checked += 1
            if not bisections_match_monomial(A.mono_mul(m1, m2), bisection_product(graph, b1, b2)):
                bad = {"left": str(m1), "right": str(m2)}
                break
        if bad:
            break
    cert.window["pairs"] = checked
    cert.record(
        "exhaustive-pairs",
        bad is None,
        "" if bad is None else f"{bad['left']} times {bad['right']}",
    )
    return cert


# ---------------------------------------------------------------------------
# The graded isomorphism criterion


class IsoDecision(NamedTuple):
    isomorphic: bool
    witness: dict

    __eq__, __ne__, __hash__ = same_class_eq, same_class_ne, tuple.__hash__


def _as_induced(graph, field, spec: ModuleSpec) -> InducedSpec:
    if isinstance(spec, InducedSpec):
        return spec
    if isinstance(spec, ChenSpec):
        if isinstance(spec.base, Lasso):
            raise ModuleSpecError("a rational boundary-path module is not graded")
        return InducedSpec(spec.base, TrivialCoeff(spec.shift))
    if isinstance(spec, NvcSpec):
        return InducedSpec(cycle_tail(graph, spec.cycle), LaurentCoeff(0), spec.shift)
    raise ModuleSpecError(f"{spec!r} is not in a supported graded family")


def graded_iso_check(graph, field: Field, specA: ModuleSpec, specB: ModuleSpec) -> IsoDecision:
    """Graded isomorphism of induced modules: same orbit, and coefficients
    matching after a shift drawn from the lag set between the base points."""
    a = _as_induced(graph, field, specA)
    b = _as_induced(graph, field, specB)
    for s in (a, b):
        if isinstance(s.coeff, (ScalarAction, QuotientCoeff)):
            raise ModuleSpecError("scalar-action and quotient coefficients are not graded")
    lags = tail_lags(b.base, a.base)
    if lags.is_empty:
        return IsoDecision(False, {"reason": "base points lie in different orbits"})
    famA = type(a.coeff).__name__
    famB = type(b.coeff).__name__
    if famA != famB:
        return IsoDecision(False, {"reason": f"coefficient families differ ({famA} vs {famB})"})
    m_eff_a = a.coeff.shift + a.shift
    m_eff_b = b.coeff.shift + b.shift
    alpha = m_eff_a - m_eff_b
    if lags.contains(alpha):
        return IsoDecision(True, {"alpha": alpha, "lag_set": str(lags)})
    return IsoDecision(
        False,
        {"reason": f"no lag matches the shift difference {alpha}", "lag_set": str(lags)},
    )


# ---------------------------------------------------------------------------
# Simplicity probe


class ProbeResult(NamedTuple):
    verdict: str  # "simple" | "graded-simple-not-simple" | "not-simple" | "inconclusive"
    witness: dict

    __eq__, __ne__, __hash__ = same_class_eq, same_class_ne, tuple.__hash__


def simplicity_probe(graph, field: Field, spec: ModuleSpec, bound: int = 4, mono_len: int = 2) -> ProbeResult:
    """Simplicity evidence.

    Finite-dimensional modules: checks that every basis-coordinate seed
    generates the whole module.  Each seed is spun alone (``_spin``), on
    one support-indexed window shared by every seed, so only the
    generators that act nonzero on a term of a new spin vector act on it.
    Induced modules with Laurent coefficients: certifies
    graded-simple-but-not-simple by exhibiting an equivariant surjection
    onto the untwisted boundary-path module with a nonzero in-window kernel
    vector.  Anything else is inconclusive.
    """
    _check_window(bound, mono_len)
    module = build_module(graph, field, spec)
    if isinstance(spec, InducedSpec) and isinstance(spec.coeff, LaurentCoeff):
        return _laurent_probe(module, bound, mono_len)
    enum = module.enumerate_basis(0)  # as in Window.full, exact just when finite-dimensional
    if not enum.exact:
        return ProbeResult("inconclusive", {"reason": "infinite-dimensional without a certified witness"})
    window = Window(module, enum.elements)
    for seed in range(window.dim):
        span = len(_spin(window, [seed]).steps)
        if span != window.dim:
            return ProbeResult(
                "not-simple",
                {
                    "seed": str(window.elements[seed]),
                    "submodule_dimension": span,
                    "module_dimension": window.dim,
                },
            )
    return ProbeResult("simple", {"dimension": window.dim, "seeds_checked": window.dim})


def _laurent_probe(module: InducedModule, bound: int, mono_len: int) -> ProbeResult:
    graph, F = module.graph, module.field
    x = module.spec.base
    n = module.period
    target = build_module(graph, F, ChenSpec(x, None))

    def project(b: CosetBasis) -> ModuleVector:
        return ModuleVector(F, {ChenBasis(b.path): F.one()})

    enum = module.enumerate_basis(bound)
    depth = 0 if enum.exact else mono_len
    equivariant = _generators_equivariant(module, target, project, enum.elements, depth) is None
    k0 = module.canonical_lag(x)
    kernel_vec = ModuleVector(F, {CosetBasis(x, k0 + n): F.one(), CosetBasis(x, k0): F.neg(F.one())})
    kernel_ok = not kernel_vec.is_zero and not linear_extend(F, lambda b: project(b).terms, kernel_vec.terms)
    target_window = target.enumerate_basis(bound).elements
    projected = {tb for b in enum.elements for tb in project(b).terms}
    surjective = all(tb in projected for tb in target_window)
    if equivariant and kernel_ok and surjective:
        return ProbeResult(
            "graded-simple-not-simple",
            {
                "kernel_vector": str(kernel_vec),
                "quotient": f"boundary-path module at {x}",
                "surjection_checked_on": len(target_window),
            },
        )
    return ProbeResult(
        "inconclusive",
        {"equivariant": equivariant, "kernel_ok": kernel_ok, "surjective": surjective},
    )
