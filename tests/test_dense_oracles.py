"""The support-indexed spin, Hom by spinning, the sparse restriction and the
pruned dimension oracle against the code they replaced.

The oracles below are the dense window matrices (``Module.act`` of the
generators as algebra elements on each basis element, written into a list
of rows), the dense cyclic span (apply every generator to the whole echelon
basis, then ``rref``, until the rank stops growing), two Hom solvers with
one unknown per entry T[i][j] of a map (the dense equation builder for
T.g_A = g_B.T solved by ``rref``, and the sparse equation rows that
``verify.intertwiner_space`` eliminated before it solved by spinning), and
the dense restriction (the column space of each cylinder idempotent by
``rref``, the isotropy generator's coordinates by ``coordinates``, and f(M)
by matrix powers).  Each spin's record (its steps, its images and the
coordinates in its tag columns) is checked against the spin vectors that
the window's matrices rebuild from its steps.  They run on random small
finite-dimensional modules: sink modules, twisted boundary-path modules at
cycles, scalar extensions, and induced modules with scalar-action and
quotient coefficients, plus a direct sum, which is not simple and maps onto
its summands; Hom also on the fixture graphs and at dimension 30.  The
cycle count of ``classify.dimension_oracle`` is checked against the walk
from every vertex over every path up to |V| + |c| + 1 edges, on random small
graphs.  Johnson's ``elementary_cycles`` and the witness search
``graphs._entwined_pair`` are checked against the elementary Lyndon-word
walk from every vertex that listed the cycles before them, and the witness
read off its full list.
"""

import random
from dataclasses import dataclass

import pytest
from hypothesis import example, given, settings

from fixture_graphs import FIXTURE_GRAPHS, tree_into_loop

from leavitt import verify
from leavitt.algebra import TwistVector, monomial
from leavitt.classify import CycleSimple, classify_simple, dimension_oracle
from leavitt.fields import QQ, PrimeField, parse_poly
from leavitt.graphs import (
    ClosedPath,
    Edge,
    FinitePath,
    Graph,
    Lasso,
    SinkPath,
    _cycle_structure,
    _entwined_pair,
    closed_path_set_is_finite,
    cycle_tail,
    elementary_cycles,
    enumerate_paths_ending_at,
    initial_path,
    lasso,
    sink_path,
    tail_lags,
)
from leavitt.groupoid import orbit, orbit_size
from leavitt.linalg import add_scaled, coordinates, identity, linear_extend, mat_mul, mat_vec, nullspace, rref
from leavitt.reps import (
    BasisEnumeration,
    ChenBasis,
    ChenExtSpec,
    ChenSpec,
    CosetBasis,
    InducedSpec,
    LaurentCoeff,
    Module,
    ModuleVector,
    NvcSpec,
    QuotientCoeff,
    ScalarAction,
    TrivialCoeff,
    build_module,
)
from leavitt.verify import (
    OutOfWindowError,
    Restriction,
    Window,
    generators,
    intertwiner_space,
    restrict,
    simplicity_probe,
)
from strategies import monomial_element, small_graphs

# field name -> (field, an irreducible quadratic, a scalar other than 0 and 1 when there is one)
FIELDS = {
    "F2": (PrimeField(2), "t^2+t+1", 1),
    "F3": (PrimeField(3), "t^2+1", 2),
    "Q": (QQ, "t^2-2", 2),
}
MAX_DIM = 5


# ---------------------------------------------------------------------------
# The dense oracles


def generator_elements(algebra) -> list:
    """Vertex idempotents, edges and ghost edges as algebra elements, in the
    order of ``verify.generators``."""
    out = [algebra.vertex(v) for v in algebra.graph.vertices]
    for e in algebra.graph.edges:
        out.append(algebra.edge(e.name))
        out.append(algebra.ghost(e.name))
    return out


def dense_matrix_of(window: Window, elt) -> list[list]:
    """Column j is the image of basis element j, in a dense list of rows."""
    F = window.module.field
    mat = [[F.zero()] * window.dim for _ in range(window.dim)]
    for j, b in enumerate(window.elements):
        for b2, c in window.module.act(elt, ModuleVector(F, {b: F.one()})).terms.items():
            mat[window.index[b2]][j] = c
    return mat


def dense_cyclic_span(F, mats: list[list[list]], dim: int, seed: int) -> int:
    """Dimension of the submodule that basis vector ``seed`` generates."""
    vec = [F.zero()] * dim
    vec[seed] = F.one()
    basis, _ = rref(F, [vec])
    while True:
        new_rows = list(basis)
        for m in mats:
            for w in basis:
                new_rows.append(mat_vec(F, m, w))
        nxt, _ = rref(F, new_rows)
        if len(nxt) == len(basis):
            return len(basis)
        basis = nxt


def dense_intertwiner_space(modA, modB, graded=False, degree=0) -> list[list[list]]:
    """Hom(A, B) from dense equation rows, eliminated together by ``rref``."""
    F = modA.field
    winA, winB = Window.full(modA), Window.full(modB)
    gens = generator_elements(modA.algebra())
    matsA = [dense_matrix_of(winA, g) for g in gens]
    matsB = [dense_matrix_of(winB, g) for g in gens]
    nA, nB = winA.dim, winB.dim
    if graded:
        degsA, degsB = winA.degrees(), winB.degrees()
        allowed = [(i, j) for i in range(nB) for j in range(nA) if degsB[i] == degsA[j] + degree]
    else:
        allowed = [(i, j) for i in range(nB) for j in range(nA)]
    col_of = {pair: idx for idx, pair in enumerate(allowed)}
    rows = []
    for ga, gb in zip(matsA, matsB):
        for i in range(nB):
            for j in range(nA):
                row = [F.zero()] * len(allowed)
                for k in range(nA):  # T[i,k] * ga[k,j]
                    if (i, k) in col_of and not F.is_zero(ga[k][j]):
                        row[col_of[(i, k)]] = F.add(row[col_of[(i, k)]], ga[k][j])
                for k in range(nB):  # - gb[i,k] * T[k,j]
                    if (k, j) in col_of and not F.is_zero(gb[i][k]):
                        row[col_of[(k, j)]] = F.sub(row[col_of[(k, j)]], gb[i][k])
                if any(not F.is_zero(c) for c in row):
                    rows.append(row)
    if not allowed:
        return []
    red, pivots = rref(F, rows)
    out = []
    for fc in range(len(allowed)):
        if fc in pivots:
            continue
        vec = [F.zero()] * len(allowed)
        vec[fc] = F.one()
        for r, pc in enumerate(pivots):
            vec[pc] = F.neg(red[r][fc])
        T = [[F.zero()] * nA for _ in range(nB)]
        for idx, (i, j) in enumerate(allowed):
            T[i][j] = vec[idx]
        out.append(T)
    return out


def equation_intertwiner_space(modA, modB, graded=False, degree=0) -> list[list[list]]:
    """Hom(A, B) with one unknown per entry T[i][j] allowed by the degree.
    Each equation (T.g_A - g_B.T)[i][j] = 0, for a generator g, is built as
    a sparse row from the sparse columns of g_A and the sparse rows of g_B,
    and ``nullspace`` eliminates it as it arrives: the library's Hom before
    it solved by spinning, with dim A . dim B unknowns."""
    F = modA.field
    winA, winB = Window.full(modA), Window.full(modB)
    nA, nB = winA.dim, winB.dim
    if graded:
        degsA, degsB = winA.degrees(), winB.degrees()
        allowed = [(i, j) for i in range(nB) for j in range(nA) if degsB[i] == degsA[j] + degree]
    else:
        allowed = [(i, j) for i in range(nB) for j in range(nA)]
    if not allowed:
        return []
    col_of = {pair: idx for idx, pair in enumerate(allowed)}
    gens = generators(modA.graph)
    matsA = [winA.matrix_of(g) for g in gens]
    matsB = [winB.matrix_of(g) for g in gens]
    minus_one = F.neg(F.one())

    def equations():
        for colsA, colsB in zip(matsA, matsB):
            rowsB = [{} for _ in range(nB)]  # the sparse rows of g_B
            for k, col in enumerate(colsB):
                for i, c in col.items():
                    rowsB[i][k] = c
            for i in range(nB):
                for j in range(nA):
                    # T[i,k] * gA[k,j] - gB[i,k] * T[k,j], summed over k
                    row = {col_of[i, k]: a for k, a in colsA[j].items() if (i, k) in col_of}
                    add_scaled(F, row, minus_one, {col_of[k, j]: b for k, b in rowsB[i].items() if (k, j) in col_of})
                    if row:
                        yield row

    out = []
    for vec in nullspace(F, equations(), len(allowed)):
        T = [[F.zero()] * nA for _ in range(nB)]
        for idx, (i, j) in enumerate(allowed):
            T[i][j] = vec[idx]
        out.append(T)
    return out


def dense(F, cols: list[dict], nrows: int) -> list[list]:
    """The dense matrix (a list of rows) whose columns are the sparse ``cols``."""
    out = [[F.zero()] * len(cols) for _ in range(nrows)]
    for j, col in enumerate(cols):
        for i, c in col.items():
            out[i][j] = c
    return out


def column_space(F, mat: list[list]) -> list[list]:
    """Reduced row echelon basis of the span of the columns of ``mat``."""
    return rref(F, [list(col) for col in zip(*mat)])[0] if mat and mat[0] else []


def dense_restrict(module: Module, x, cap: int = verify.RESTRICTION_CAP) -> Restriction:
    """``verify.restrict`` on dense matrices: each idempotent's column space
    by ``rref``, and the generator's coordinates by one ``rref`` per row."""
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
        images.append(column_space(F, dense(F, window.matrix_of(monomial(mu, mu)), window.dim)))
    final = images[-1]
    first_stable = next(m for m in range(len(images)) if images[m] == final)
    reported_steps = first_stable + 1
    if reported_steps > cap:
        raise OutOfWindowError(
            f"idempotent chain did not stabilize within {cap} steps ({reported_steps} needed)"
        )
    rows = final or []
    dim = len(rows)
    gen_mono = verify._isotropy_monomial(module, x)
    if gen_mono is None or dim == 0:
        gen = identity(F, dim)
    else:
        gmat = dense(F, window.matrix_of(gen_mono), window.dim)
        cols = []
        for w in rows:
            image = mat_vec(F, gmat, w)
            coeffs = coordinates(F, rows, image)
            if coeffs is None:
                raise OutOfWindowError("isotropy generator does not preserve the restriction")
            cols.append(coeffs)
        gen = [[cols[j][i] for j in range(dim)] for i in range(dim)]
    degrees = None
    if module.gradable:
        degrees = []
        for w in rows:
            degs = {module.grade(window.elements[i]) for i, c in enumerate(w) if not F.is_zero(c)}
            degrees.append(degs.pop() if len(degs) == 1 else None)
    return Restriction(dim, gen, rows, reported_steps, degrees)


def poly_of_matrix(F, f, mat: list[list]) -> list[list]:
    """f(mat) as the sum of f_i mat^i over dense matrix powers."""
    d = len(mat)
    acc = [[F.zero()] * d for _ in range(d)]
    power = identity(F, d)
    for i in range(f.degree + 1):
        c = f.coeff(i)
        for r in range(d):
            for s in range(d):
                acc[r][s] = F.add(acc[r][s], F.mul(c, power[r][s]))
        power = mat_mul(F, power, mat)
    return acc


# ---------------------------------------------------------------------------
# A module that is not simple


@dataclass(frozen=True)
class Summand:
    index: int
    b: object

    def __str__(self) -> str:
        return f"{self.index}:{self.b}"

    @property
    def path(self):
        """The summand element's boundary path, which ``generator_support``
        reads: M (+) N acts on each summand as that summand does."""
        return self.b.path

    def sort_key(self):
        return (self.index, self.b.sort_key())


class DirectSum(Module):
    """M (+) N for two finite-dimensional modules over one graph and field."""

    def __init__(self, first: Module, second: Module):
        self.parts = (first, second)
        self.graph, self.field = first.graph, first.field
        self.gradable = first.gradable and second.gradable

    def enumerate_basis(self, bound=None) -> BasisEnumeration:
        elems = tuple(
            Summand(i, b) for i, M in enumerate(self.parts) for b in M.enumerate_basis(bound).elements
        )
        return BasisEnumeration(elems, True)

    def act_monomial_basis(self, mono, s: Summand):
        return {Summand(s.index, b2): c for b2, c in self.parts[s.index].act_monomial_basis(mono, s.b).items()}

    def grade(self, s: Summand) -> int:
        return self.parts[s.index].grade(s.b)


def all_vertex_lasso_count(graph: Graph, entry: CycleSimple) -> int:
    """Boundary paths tail-equivalent to the cycle's tail: every path from
    every vertex up to |V| + |c| + 1 edges, continued around the cycle
    wherever it ends on it, canonicalised by ``lasso`` and deduplicated."""
    star = entry.cycle.edges
    n = len(star)
    horizon = len(graph.vertices) + n + 1
    seen = set()
    stack = [graph.vertex_path(v) for v in graph.vertices]
    while stack:
        p = stack.pop()
        rotated = {i for i in range(n) if graph.edge(star[i]).src == p.rng}
        for i in rotated:
            seen.add(lasso(graph, p, star[i:] + star[:i]))
        if len(p) < horizon:
            for e in graph.out_edges(p.rng):
                stack.append(FinitePath(p.edges + (e.name,), p.src, e.rng))
    return len(seen)


# ---------------------------------------------------------------------------
# Random small modules


def lyndon_elementary_cycles(graph: Graph) -> tuple[FinitePath, ...]:
    """Every cycle as its least rotation, by the elementary Fredricksen-Kessler-
    Maiorana walk from every vertex: a word grows by an out-edge of its range
    named at least word[n - p], p being its longest Lyndon prefix, and repeats
    no vertex.  It walks every such path, closing or not."""
    found = []
    for start in graph.vertices:
        word: list[Edge] = []
        seen = {start}
        stack = [(iter(graph.out_edges(start)), 0)]
        while stack:
            edges, p = stack[-1]
            e = next(edges, None)
            if e is None:
                stack.pop()
                if word:
                    seen.discard(word.pop().rng)
                continue
            n = len(word)
            floor = word[n - p].name if n else e.name
            if e.name < floor:
                continue
            p = p if n and e.name == floor else n + 1
            if e.rng == start and p == n + 1:
                found.append(FinitePath(tuple(x.name for x in word) + (e.name,), start, start))
            if n + 1 < len(graph.vertices) and e.rng not in seen:
                word.append(e)
                seen.add(e.rng)
                stack.append((iter(graph.out_edges(e.rng)), p))
    return tuple(sorted(found, key=FinitePath.sort_key))


def entwined_pair_from(graph: Graph, cycles: tuple[FinitePath, ...]) -> tuple[str, str]:
    """The two least of the listed cycles in the component with two cycles
    whose least cycle is least."""
    comps, counts, _ = _cycle_structure(graph)
    comp_of = {v: comp for comp, k in zip(comps, counts) if k == 2 for v in comp}
    first = next(c for c in cycles if c.src in comp_of)
    second = next(c for c in cycles if c != first and c.src in comp_of[first.src])
    return str(first), str(second)


def _random_graph(rng: random.Random) -> Graph:
    vertices = [f"v{i}" for i in range(rng.randint(1, 4))]
    edges = [(f"e{i}", rng.choice(vertices), rng.choice(vertices)) for i in range(rng.randint(1, 5))]
    return Graph(vertices, edges)


def _specs(g: Graph, F, modulus: str, a):
    """Sink modules (graded, some twisted and shifted), and at each cycle a
    twisted boundary-path module, a scalar extension, and induced modules
    with scalar-action and quotient coefficients."""
    f = parse_poly(modulus, F)
    for v in g.sinks:
        twist = TwistVector.make(g, F, {e.name: a for e in g.in_edges(v)})
        for p in enumerate_paths_ending_at(g, v, bound=1).paths:
            x = sink_path(g, p)
            yield ChenSpec(x)
            yield ChenSpec(x, twist, 1)
            yield InducedSpec(x, TrivialCoeff(1))
    for c in elementary_cycles(g):
        x = cycle_tail(g, c)
        yield ChenSpec(x, TwistVector.make(g, F, {x.cycle[0]: a}))
        yield ChenExtSpec(c, f)
        yield InducedSpec(x, ScalarAction(a))
        yield InducedSpec(x, QuotientCoeff(f))


def _modules(g: Graph, F, modulus: str, a) -> list[Module]:
    out = []
    for spec in _specs(g, F, modulus, a):
        M = build_module(g, F, spec)
        enum = M.enumerate_basis(0)
        if enum.exact and 0 < len(enum.elements) <= MAX_DIM:
            out.append(M)
    return out


def _samples(field_name: str, count: int):
    """(graph, field, modules) for ``count`` random graphs with at least one
    small finite-dimensional module."""
    F, modulus, a = FIELDS[field_name]
    rng = random.Random(f"dense-oracles-{field_name}")
    found, seen = [], set()
    while len(found) < count:
        g = _random_graph(rng)
        key = (g.vertices, g.edges)
        mods = [] if key in seen else _modules(g, F, modulus, a)
        seen.add(key)
        if mods:
            found.append((g, F, mods))
    return found


def _assert_spin_record(window: Window, spin: verify.Spin):
    """The spin's record against the spin vectors that the window's matrices
    rebuild from its steps: every image of a spin vector under a spin
    generator is the recorded new vector, the recorded combination of
    earlier ones, or zero where none is recorded; and each echelon row's
    vector is the combination of spin vectors that its tag columns read."""
    F, n = window.module.field, window.dim
    mats = [window.matrix_of(g) for g in verify.spin_generators(window.module.graph)]
    vectors = []
    for k, g in spin.steps:
        vectors.append({g: F.one()} if k is None else linear_extend(F, mats[g].__getitem__, vectors[k]))
    for k, v in enumerate(vectors):
        for g, mat in enumerate(mats):
            image = linear_extend(F, mat.__getitem__, v)
            made = spin.images[k].get(g)
            if made is None:
                assert image == {}, (k, g)
            elif isinstance(made, int):
                assert spin.steps[made] == (k, g) and vectors[made] == image
            else:
                assert max(made, default=-1) < len(vectors) and image == linear_extend(F, vectors.__getitem__, made)
    assert len(spin.pivots) == len(vectors)
    for row in spin.pivots.values():
        tags = {i - n: c for i, c in row.items() if i >= n}
        assert {i: c for i, c in row.items() if i < n} == linear_extend(F, vectors.__getitem__, tags)


def _assert_spin_matches(module: Module):
    window = Window.full(module)
    F = module.field
    monos, elts = generators(module.graph), generator_elements(module.algebra())
    assert [monomial_element(module.algebra(), m) for m in monos] == elts
    sparse = [window.matrix_of(m) for m in monos]
    dense = [dense_matrix_of(window, g) for g in elts]
    for s, d in zip(sparse, dense):
        assert [{i: c for i, c in enumerate(col) if not F.is_zero(c)} for col in zip(*d)] == s
    spins = [verify._spin(window, [seed]) for seed in range(window.dim)]
    for spin in spins + [verify._spin(window, range(window.dim))]:
        _assert_spin_record(window, spin)
    dims = [len(spin.steps) for spin in spins]
    assert dims == [dense_cyclic_span(F, dense, window.dim, seed) for seed in range(window.dim)]
    return dims


def _assert_hom_matches(A, B, graded=False, degree=0, dense=True):
    """Hom by spinning equals the sparse equation oracle, and the dense one
    unless ``dense`` is False."""
    got = intertwiner_space(A, B, graded=graded, degree=degree)
    assert got == equation_intertwiner_space(A, B, graded=graded, degree=degree)
    if dense:
        assert got == dense_intertwiner_space(A, B, graded=graded, degree=degree)
    return got


# ---------------------------------------------------------------------------
# The tests


@pytest.mark.parametrize("field_name", sorted(FIELDS))
def test_spin_matches_dense_span(field_name):
    for g, F, mods in _samples(field_name, 3):
        for M in mods:
            dims = _assert_spin_matches(M)
            probe = simplicity_probe(g, F, M.spec)
            full = all(d == len(dims) for d in dims)
            assert probe.verdict == ("simple" if full else "not-simple")


@pytest.mark.parametrize("field_name", sorted(FIELDS))
def test_hom_matches_dense_equations(field_name):
    rng = random.Random(f"hom-{field_name}")
    for g, F, mods in _samples(field_name, 3):
        pairs = [(A, B) for A in mods for B in mods]
        for A, B in rng.sample(pairs, min(len(pairs), 4)):
            _assert_hom_matches(A, B)
        graded = [M for M in mods if M.gradable]
        for A in graded:
            B = rng.choice(graded)
            for degree in (-1, 0, 1):
                _assert_hom_matches(A, B, graded=True, degree=degree)


@pytest.mark.parametrize("graph_name", sorted(FIXTURE_GRAPHS))
def test_hom_matches_both_oracles_on_the_fixtures(graph_name):
    """Every pair of the twisted, scalar-extended and induced modules of
    ``_specs`` on a fixture graph, which includes each no-exit cycle; the
    graded pairs (twisted and shifted sink modules, induced trivial
    coefficients) also at degrees -1, 0 and 1."""
    g = Graph(*FIXTURE_GRAPHS[graph_name])
    for F, modulus, a in FIELDS.values():
        mods = _modules(g, F, modulus, a)
        for A in mods:
            for B in mods:
                _assert_hom_matches(A, B)
                if A.gradable and B.gradable:
                    for degree in (-1, 0, 1):
                        _assert_hom_matches(A, B, graded=True, degree=degree)


def test_hom_matches_both_oracles_on_a_tree_into_a_loop():
    """On the binary tree of depth 3 into a loop l: End of the scalar
    extension by t^2+1 over F3 (dimension 30) against the equation oracle
    (the dense one takes about 6 s there), and Hom between it and the
    modules induced at l from the scalar 2 and from K[t]/(t^2+1), and End
    of the first (dimension 15), against both."""
    F = PrimeField(3)
    f = parse_poly("t^2+1", F)
    g = Graph(*tree_into_loop(3))
    x = cycle_tail(g, g.path(["l"]))
    ext = build_module(g, F, ChenExtSpec(g.path(["l"]), f))
    scalar = build_module(g, F, InducedSpec(x, ScalarAction(2)))
    quotient = build_module(g, F, InducedSpec(x, QuotientCoeff(f)))
    assert [len(Window.full(M).elements) for M in (ext, scalar, quotient)] == [30, 15, 30]
    assert len(_assert_hom_matches(ext, ext, dense=False)) == 2
    assert len(_assert_hom_matches(ext, quotient, dense=False)) == 2
    assert len(_assert_hom_matches(scalar, scalar)) == 1
    assert _assert_hom_matches(scalar, ext, dense=False) == []


def test_hom_of_a_simple_module_has_dim_b_unknowns(monkeypatch):
    """Hom by spinning hands ``nullspace`` one seed's coordinates in B for
    each seed of A: dim B unknowns when A is simple, where dim A . dim B
    were solved for before; M (+) N spins from 2 seeds."""
    sizes = []
    solve = verify.nullspace
    monkeypatch.setattr(verify, "nullspace", lambda F, rows, n: sizes.append(n) or solve(F, rows, n))

    def spin_all(M):
        window = Window.full(M)
        return verify._spin(window, range(window.dim))

    simple_pairs = 0
    for g, F, mods in _samples("F3", 3):
        simple = [M for M in mods if simplicity_probe(g, F, M.spec).verdict == "simple"]
        for A in mods:
            seeds = [j for k, j in spin_all(A).steps if k is None]
            assert len(seeds) == 1 or A not in simple
            for B in mods:
                sizes.clear()
                intertwiner_space(A, B)
                assert sizes == [len(seeds) * len(Window.full(B).elements)]
                simple_pairs += A in simple
        M, N = simple[0], simple[-1]
        S = DirectSum(M, N)
        assert [j for k, j in spin_all(S).steps if k is None] == [0, len(Window.full(M).elements)]
        sizes.clear()
        intertwiner_space(S, N)
        assert sizes == [2 * len(Window.full(N).elements)]
    assert simple_pairs > 0
    F3 = FIELDS["F3"][0]
    g = Graph(*tree_into_loop(3))
    M = build_module(g, F3, ChenExtSpec(g.path(["l"]), parse_poly("t^2+1", F3)))
    sizes.clear()
    assert len(intertwiner_space(M, M)) == 2 and sizes == [30]


def _base_points(M: Module) -> list:
    """Every point of the orbit M is built on, then one point of another
    orbit (a sink or a cycle tail) when the graph has one."""
    g, spec = M.graph, M.spec
    x = spec.base if hasattr(spec, "base") else cycle_tail(g, spec.cycle)
    others = [sink_path(g, g.vertex_path(v)) for v in g.sinks] + [cycle_tail(g, c) for c in elementary_cycles(g)]
    off = [y for y in others if tail_lags(x, y).is_empty]
    return list(orbit(g, x).elements) + off[:1]


def _outcome(restriction, M, x):
    """The restriction's fields, or the message of the error it raised."""
    try:
        r = restriction(M, x)
    except OutOfWindowError as exc:
        return str(exc)
    return (r.dimension, r.generator_matrix, r.subspace, r.steps, r.degrees)


@pytest.mark.parametrize("field_name", sorted(FIELDS))
def test_restrict_matches_dense_restriction(field_name):
    restricted = 0
    for g, F, mods in _samples(field_name, 3):
        for M in mods:
            for x in _base_points(M):
                got = _outcome(restrict, M, x)
                assert got == _outcome(dense_restrict, M, x)
                restricted += not isinstance(got, str) and got[0] > 0
    assert restricted > 0


@pytest.mark.parametrize("field_name", sorted(FIELDS))
def test_horner_matches_dense_powers(field_name):
    """``verify._annihilates`` agrees with f(M) by dense powers on every
    isotropy generator matrix, for the modulus and for a polynomial it
    does not satisfy."""
    checked = 0
    for g, F, mods in _samples(field_name, 3):
        for M in mods:
            for x in _base_points(M):
                try:
                    gen = restrict(M, x).generator_matrix
                except OutOfWindowError:
                    continue
                modulus = parse_poly(FIELDS[field_name][1], F)
                for f in (modulus, parse_poly("t-1", F), modulus * parse_poly("t", F)):
                    zero = [[F.zero()] * len(gen) for _ in gen]
                    assert verify._annihilates(F, f, gen) == (poly_of_matrix(F, f, gen) == zero)
                    checked += bool(gen)
    assert checked > 0


@pytest.mark.parametrize("field_name", sorted(FIELDS))
def test_direct_sum_is_not_simple_and_maps_onto_a_summand(monkeypatch, field_name):
    for g, F, mods in _samples(field_name, 3):
        M, N = mods[0], mods[-1]
        S = DirectSum(M, N)
        dims = _assert_spin_matches(S)
        assert min(dims) <= len(M.enumerate_basis().elements) < len(dims)
        monkeypatch.setattr(verify, "build_module", lambda *args: S)
        probe = simplicity_probe(g, F, None)
        monkeypatch.undo()
        seed = next(i for i, d in enumerate(dims) if d < len(dims))
        assert probe.verdict == "not-simple"
        assert probe.witness == {
            "seed": str(Window.full(S).elements[seed]),
            "submodule_dimension": dims[seed],
            "module_dimension": len(dims),
        }
        homs = _assert_hom_matches(S, M)
        assert len(homs) >= len(intertwiner_space(M, M)) > 0


_CHAIN_INTO_LOOP = Graph(
    ["v0", "v1", "v2", "v3"],
    [("a", "v0", "v1"), ("b", "v1", "v2"), ("c", "v2", "v3"), ("e", "v3", "v3")],
)


@given(g=small_graphs())
@example(g=_CHAIN_INTO_LOOP)
@settings(max_examples=150, deadline=None)
def test_pruned_dimension_oracle_matches_all_vertex_walk(g):
    F2 = PrimeField(2)
    entries = [e for e in classify_simple(g, F2, 2).entries if isinstance(e, CycleSimple)]
    for e in entries:
        want = all_vertex_lasso_count(g, e) * e.modulus.degree
        assert dimension_oracle(g, e) == want == e.dimension
        assert dimension_oracle(g, e) == want  # read back from the memo


@given(g=small_graphs())
@example(g=_CHAIN_INTO_LOOP)
@settings(max_examples=100, deadline=None)
def test_exact_enumeration_matches_orbit_size(g):
    """A module is finite-dimensional exactly when enumerate_basis is exact,
    for any bound: the no-exit-cycle and Laurent modules never are, every
    other module exactly when ``orbit_size`` finds its orbit finite, and then
    the basis is the orbit times the tensor degree."""
    F2 = PrimeField(2)
    cycles = elementary_cycles(g)
    infinite = [InducedSpec(cycle_tail(g, c), LaurentCoeff(0)) for c in cycles]
    infinite += [NvcSpec(c) for c in cycles if not ClosedPath.analyze(g, c).has_exit]
    for spec in infinite:
        assert not build_module(g, F2, spec).enumerate_basis(0).exact
    for spec in _specs(g, F2, "t^2+t+1", 1):
        M = build_module(g, F2, spec)
        enum = M.enumerate_basis(0)
        size = orbit_size(g, cycle_tail(g, spec.cycle) if isinstance(spec, ChenExtSpec) else spec.base)
        assert enum.exact == (size is not None)
        if enum.exact:
            assert len(enum.elements) == size * M.tensor_degree


def _assert_cycles_match_the_lyndon_walk(g: Graph):
    cycles = lyndon_elementary_cycles(g)
    assert elementary_cycles(g) == cycles
    if not closed_path_set_is_finite(g):
        assert _entwined_pair(g) == entwined_pair_from(g, cycles)


@given(g=small_graphs())
@settings(max_examples=300, deadline=None)
def test_cycles_and_witness_match_the_lyndon_walk(g):
    _assert_cycles_match_the_lyndon_walk(g)


@pytest.mark.parametrize("loops", [False, True])
@pytest.mark.parametrize("n", range(3, 9))
def test_cycles_and_witness_match_the_lyndon_walk_on_complete_digraphs(n, loops):
    # edge i -> j is named after j first, so name order is not vertex order
    edges = [(f"e{j}{i}", f"v{i}", f"v{j}") for i in range(n) for j in range(n) if loops or i != j]
    _assert_cycles_match_the_lyndon_walk(Graph([f"v{i}" for i in range(n)], edges))


@pytest.mark.parametrize("seed", range(40))
def test_witness_matches_the_lyndon_walk_on_random_digraphs(seed):
    """Three to eight vertices, no loops and edge names in random order, so
    that the search often doubles its bound past 2 (in 14 of these 40 graphs
    the witness holds a cycle of three edges or more)."""
    rng = random.Random(seed)
    vertices = [f"v{i}" for i in range(rng.randint(3, 8))]
    names = rng.sample(range(100), rng.randint(len(vertices) + 1, 2 * len(vertices)))
    edges = [(f"e{k:02d}", *rng.sample(vertices, 2)) for k in names]
    _assert_cycles_match_the_lyndon_walk(Graph(vertices, edges))
