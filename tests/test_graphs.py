import itertools
import time
import tracemalloc
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixture_graphs import FIXTURE_GRAPHS
from strategies import small_graphs
from leavitt.classify import irrational_classes_flag
from leavitt.graphs import (
    _cycle_structure,
    FinitePath,
    Graph,
    GraphError,
    LagSet,
    Lasso,
    SinkPath,
    ClosedPath,
    canonical_rotation,
    concat,
    closed_path_set_is_finite,
    cycle_tail,
    count_paths_ending_at,
    cycle_reaches_vertex,
    elementary_cycles,
    enumerate_paths_ending_at,
    initial_path,
    initial_remainder,
    lasso,
    maximal_cycles,
    maximal_sinks,
    per_graph,
    prepend,
    primitive_root,
    simple_closed_paths,
    sink_path,
    strip_prefix,
    strongly_connected_components,
    tail_lags,
    unroll,
    validate,
)
from leavitt.groupoid import orbit


class TestValidate:
    def test_single_vertex_ok(self, single_vertex):
        report = validate(single_vertex)
        assert report.ok
        assert report.sinks == ("w",)

    def test_a2_ok(self, a2):
        report = validate(a2)
        assert report.ok
        assert report.sinks == ("v",)
        assert report.regular == ("u",)

    def test_dangling_endpoint(self):
        with pytest.raises(GraphError, match="dangling endpoint"):
            Graph(["u"], [("f", "u", "v")])

    def test_duplicate_name(self):
        with pytest.raises(GraphError, match="duplicate name"):
            Graph(["u", "v"], [("u", "u", "v")])
        with pytest.raises(GraphError, match="duplicate name"):
            Graph(["u", "v"], [("f", "u", "v"), ("f", "v", "u")])

    def test_empty_vertex_set(self):
        with pytest.raises(GraphError, match="empty"):
            Graph([], [])

    def test_bad_name(self):
        with pytest.raises(GraphError, match="bad vertex name"):
            Graph(["a.b"], [])

    def test_error_message_is_bounded(self):
        """Each bad value is quoted by a prefix of its repr, and only the first
        errors are listed; short values are quoted whole."""
        with pytest.raises(GraphError) as exc:
            Graph(["a.b", "x" * 100 + "."], [("f", "u", "v")])
        assert str(exc.value) == (
            "bad vertex name 'a.b'; bad vertex name '" + "x" * 39 + "...; "
            "dangling endpoint: edge 'f' has undeclared source 'u'; "
            "dangling endpoint: edge 'f' has undeclared range 'v'"
        )
        with pytest.raises(GraphError) as exc:
            Graph([f"bad-{i}" for i in range(20_000)], [])
        assert str(exc.value).endswith("bad vertex name 'bad-4'; and 19995 more errors")
        deep = []
        for _ in range(984):
            deep = [deep]
        with pytest.raises(GraphError) as exc:
            Graph([deep], [])
        assert str(exc.value).startswith("bad vertex name [[[") and len(str(exc.value)) < 100


class TestPathOps:
    def test_concat(self, chain3):
        f = chain3.path(["f"])
        g = chain3.path(["g"])
        fg = concat(f, g)
        assert fg.edges == ("f", "g")
        assert (fg.src, fg.rng) == ("u", "v")
        assert len(fg) == len(f) + len(g)

    def test_concat_mismatch(self, chain3):
        with pytest.raises(GraphError):
            concat(chain3.path(["g"]), chain3.path(["f"]))

    def test_concat_associative(self, cycle3):
        a, b, c = (cycle3.path([n]) for n in "abc")
        assert concat(concat(a, b), c) == concat(a, concat(b, c))

    def test_trivial_prefix(self, a2):
        x = sink_path(a2, a2.path(["f"]))
        rem = strip_prefix(a2, a2.vertex_path("u"), x)
        assert rem == x

    def test_periodic_unrolling(self, r1):
        x = lasso(r1, r1.vertex_path("v"), ["e"])
        mu = r1.path(["e", "e", "e"])
        assert strip_prefix(r1, mu, x) == x

    def test_prefix_too_long(self, a2):
        x = sink_path(a2, a2.vertex_path("v"))
        assert strip_prefix(a2, a2.path(["f"]), x) is None

    def test_initial_remainder(self, toeplitz):
        p = toeplitz.path(["e", "e", "f"])
        rem = initial_remainder(toeplitz.path(["e"]), p)
        assert rem == toeplitz.path(["e", "f"])
        assert initial_remainder(toeplitz.path(["f"]), p) is None

    def test_initial_remainder_by_slicing(self, toeplitz, rose2):
        for g in (toeplitz, rose2):
            names = [e.name for e in g.edges]
            paths = [g.vertex_path(v) for v in g.vertices]
            for n in (1, 2, 3):
                for seq in itertools.product(names, repeat=n):
                    if all(g.edge(a).rng == g.edge(b).src for a, b in zip(seq, seq[1:])):
                        paths.append(g.path(seq))
            for mu in paths:
                for p in paths:
                    n = len(mu)
                    want = None
                    if mu.src == p.src and p.edges[:n] == mu.edges:
                        want = FinitePath(p.edges[n:], mu.rng, p.rng)
                    assert initial_remainder(mu, p) == want


class TestLassoCanonicalForm:
    def test_absorbs_trailing_cycle_edges(self, r1):
        v = r1.vertex_path("v")
        assert lasso(r1, r1.path(["e", "e"]), ["e"]) == lasso(r1, v, ["e"])

    def test_reduces_proper_powers(self, r1):
        v = r1.vertex_path("v")
        assert lasso(r1, v, ["e", "e", "e"]) == lasso(r1, v, ["e"])

    def test_rotation_representative(self, cycle3):
        x = lasso(cycle3, cycle3.vertex_path("v2"), ["b", "c", "a"])
        assert x.cycle == ("a", "b", "c")
        assert x.rotation == 1
        assert str(x) == "(b.c.a)^inf"

    def test_prefix_absorption_shifts_rotation(self, cycle3):
        x = lasso(cycle3, cycle3.path(["a"]), ["b", "c", "a"])
        assert x == lasso(cycle3, cycle3.vertex_path("v1"), ["a", "b", "c"])

    def test_nontrivial_canonical_prefix(self, rose2):
        x = lasso(rose2, rose2.path(["e"]), ["e", "g"])
        assert x.prefix.edges == ("e",)

    @given(
        prefix_len=st.integers(0, 3),
        rot=st.integers(0, 5),
        power=st.integers(1, 3),
        data=st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_canonical_iff_same_unrolling(self, prefix_len, rot, power, data):
        # Two lassos denote the same infinite path iff their canonical
        # forms coincide; cross-checked on a graph with two entwined cycles.
        g = Graph(
            ["p", "q"],
            [("x", "p", "q"), ("y", "q", "p"), ("z", "p", "p"), ("w", "q", "p")],
        )
        base = ("x", "y") if rot % 2 == 0 else ("y", "x")
        seq = base * power
        start = g.edge(seq[0]).src
        names = []
        at = start
        for _ in range(prefix_len):
            e = data.draw(st.sampled_from(g.in_edges(at)))
            names.insert(0, e.name)
            at = e.src
        prefix = g.path(names) if names else g.vertex_path(start)
        first = lasso(g, prefix, seq)
        second_seq = seq + seq[:2]
        second = lasso(g, prefix, second_seq)
        assert first == second
        horizon = 3 * (prefix_len + len(seq) + 2)
        assert unroll(first, horizon) == unroll(second, horizon)


class TestEnumeratePaths:
    def test_a2(self, a2):
        res = enumerate_paths_ending_at(a2, "v")
        assert [str(p) for p in res.paths] == ["v", "f"]
        assert res.exact

    def test_toeplitz_bounded(self, toeplitz):
        res = enumerate_paths_ending_at(toeplitz, "v", bound=3)
        assert [str(p) for p in res.paths] == ["v", "f", "e.f", "e.e.f"]
        assert not res.exact

    def test_isolated_vertex(self, single_vertex):
        res = enumerate_paths_ending_at(single_vertex, "w")
        assert [str(p) for p in res.paths] == ["w"]
        assert res.exact

    def test_bound_required_when_cyclic(self, toeplitz):
        with pytest.raises(GraphError):
            enumerate_paths_ending_at(toeplitz, "v")

    def test_count_matches_enumeration(self, chain3):
        res = enumerate_paths_ending_at(chain3, "v")
        assert count_paths_ending_at(chain3, "v") == len(res.paths) == 3

    def test_unknown_vertex(self, a2):
        for query in (cycle_reaches_vertex, count_paths_ending_at, enumerate_paths_ending_at):
            with pytest.raises(GraphError, match="unknown vertex"):
                query(a2, "nope")

    def test_count_on_long_chain(self):
        n = 600
        edges = [(f"f{i}", f"c{i}", f"c{i + 1}") for i in range(n - 1)]
        g = Graph([f"c{i}" for i in range(n)], edges)
        assert count_paths_ending_at(g, f"c{n - 1}") == n


class TestCycles:
    def test_acyclic(self, a2):
        assert elementary_cycles(a2) == ()

    def test_rose(self, rose2):
        assert [str(c) for c in elementary_cycles(rose2)] == ["e", "g"]

    def test_rotation_dedup(self, cycle3):
        cycles = elementary_cycles(cycle3)
        assert len(cycles) == 1
        assert cycles[0].edges == ("a", "b", "c")

    def test_long_cycle_builds_in_linear_time(self):
        n = 20_000
        edges = [(f"f{i}", f"c{i}", f"c{(i + 1) % n}") for i in range(n)]
        start = time.perf_counter()
        g = Graph([f"c{i}" for i in range(n)], edges)
        assert time.perf_counter() - start < 2.0
        assert strongly_connected_components(g) == (frozenset(g.vertices),)

    def test_cycle_longer_than_the_recursion_limit(self):
        n = 1050
        edges = [(f"f{i}", f"c{i}", f"c{(i + 1) % n}") for i in range(n)]
        g = Graph([f"c{i}" for i in range(n)], edges)
        assert elementary_cycles(g) == (g.path(e[0] for e in edges),)

    def test_long_cycle_walks_each_edge_a_few_times(self, monkeypatch):
        """Names increase along the cycle, so the elementary Lyndon walk from
        vertex i ran n - i edges before its names fell below its first edge:
        about n^2/2 edges in all.  Johnson's order searches from the least
        vertex only, then finds no component with an edge in the rest."""
        n = 400
        edges = [(f"f{i:04d}", f"c{i:04d}", f"c{(i + 1) % n:04d}") for i in range(n)]
        g = Graph([f"c{i:04d}" for i in range(n)], edges)
        visited = []
        out_edges = Graph.out_edges
        monkeypatch.setattr(
            Graph, "out_edges", lambda self, v: visited.append(len(out_edges(self, v))) or out_edges(self, v)
        )
        assert elementary_cycles(g) == (g.path(e[0] for e in edges),)
        assert sum(visited) <= 5 * n  # 1,598 here; 80,599 for the Lyndon walk

    def test_every_rotation_canonicalizes_to_it(self, cycle3):
        for rot in (["a", "b", "c"], ["b", "c", "a"], ["c", "a", "b"]):
            assert canonical_rotation(cycle3.path(rot).edges) == ("a", "b", "c")

    @given(word=st.lists(st.sampled_from("abc"), min_size=1, max_size=12))
    @settings(max_examples=500, deadline=None)
    def test_booth_finds_the_least_of_all_rotations(self, word):
        w = tuple(word)
        assert canonical_rotation(w) == min(w[i:] + w[:i] for i in range(len(w)))

    @given(word=st.lists(st.sampled_from("eg"), min_size=1, max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_lasso_enters_its_cycle_at_the_given_rotation(self, word):
        rose2 = Graph(*FIXTURE_GRAPHS["rose2"])
        x = lasso(rose2, rose2.vertex_path("v"), word)
        assert x.rotated_cycle() == primitive_root(tuple(word))
        assert x.cycle == canonical_rotation(x.cycle)

    def test_least_rotation_of_a_long_word_in_linear_memory(self):
        """The list of every rotation of 4,000 names held 16 million references."""
        word = tuple(f"f{i * 7919 % 4000:04d}" for i in range(4000))
        tracemalloc.start()
        try:
            star = canonical_rotation(word)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert star[0] == "f0000" and sorted(star) == sorted(word)
        assert peak < 1_000_000

    def test_closed_path_flags(self, rose2):
        eg = ClosedPath.analyze(rose2, rose2.path(["e", "g"]))
        assert eg.is_simple and not eg.is_cycle and eg.has_exit
        ee = ClosedPath.analyze(rose2, rose2.path(["e", "e"]))
        assert not ee.is_simple
        e = ClosedPath.analyze(rose2, rose2.path(["e"]))
        assert e.is_simple and e.is_cycle and e.has_exit

    def test_no_exit_flag(self, r1):
        e = ClosedPath.analyze(r1, r1.path(["e"]))
        assert not e.has_exit


class TestSimpleClosedPaths:
    def test_r1(self, r1):
        res = simple_closed_paths(r1, 5)
        assert [str(c) for c in res.paths] == ["e"]
        assert res.complete

    def test_rose_bound2(self, rose2):
        res = simple_closed_paths(rose2, 2)
        assert [str(c) for c in res.paths] == ["e", "g", "e.g"]
        assert not res.complete

    def test_a2(self, a2):
        res = simple_closed_paths(a2, 5)
        assert res.paths == ()
        assert res.complete

    def test_walks_stay_inside_their_component(self, monkeypatch):
        """A 2,000-vertex chain runs into a vertex with two loops.  No closed
        walk starts on the chain, so the Lyndon walks read only the loop
        vertex's edges, where a walk from every vertex read each chain edge."""
        n = 2000
        edges = [(f"f{i:04d}", f"c{i:04d}", f"c{i + 1:04d}") for i in range(n - 1)]
        edges += [(f"f{n - 1:04d}", f"c{n - 1:04d}", "x"), ("a", "x", "x"), ("b", "x", "x")]
        g = Graph([f"c{i:04d}" for i in range(n)] + ["x"], edges)
        _cycle_structure(g)  # the components are found once per graph, outside the count
        calls = []
        out_edges = Graph.out_edges
        monkeypatch.setattr(Graph, "out_edges", lambda self, v: calls.append(v) or out_edges(self, v))
        res = simple_closed_paths(g, 6)
        flag = irrational_classes_flag(g)
        assert len(res.paths) == 23  # the binary Lyndon words of length 1 to 6
        assert flag.present and flag.witness == ("a", "b")
        assert set(calls) == {"x"} and len(calls) <= 50


class TestMaximality:
    def test_a2_sinks(self, a2):
        assert maximal_sinks(a2) == (("v", 2),)

    def test_toeplitz_sink_not_maximal(self, toeplitz):
        assert maximal_sinks(toeplitz) == ()

    def test_single_vertex(self, single_vertex):
        assert maximal_sinks(single_vertex) == (("w", 1),)

    def test_toeplitz_cycle_maximal(self, toeplitz):
        assert [str(c) for c in maximal_cycles(toeplitz)] == ["e"]

    def test_rose_no_maximal_cycle(self, rose2):
        assert maximal_cycles(rose2) == ()

    def test_disjoint_loops_both_maximal(self, two_loops):
        assert [str(c) for c in maximal_cycles(two_loops)] == ["e", "g"]

    def test_sccs(self, cycle3_exit):
        comps = set(strongly_connected_components(cycle3_exit))
        assert frozenset({"v1", "v2", "v3"}) in comps
        assert frozenset({"w"}) in comps


def _reach(g, v):
    seen, stack = {v}, [v]
    while stack:
        for e in g.out_edges(stack.pop()):
            if e.rng not in seen:
                seen.add(e.rng)
                stack.append(e.rng)
    return seen


class TestCycleStructureOracles:
    """The cycle questions against brute force from elementary_cycles and BFS."""

    @given(g=small_graphs())
    @settings(max_examples=300, deadline=None)
    def test_against_brute_force(self, g):
        cycles = elementary_cycles(g)
        reach = {v: _reach(g, v) for v in g.vertices}
        # Another cycle reaches c; when c reaches it back they share a component.
        reached = {c: [d for d in cycles if d != c and c.src in reach[d.src]] for c in cycles}
        finite = not any(d.src in reach[c.src] for c in cycles for d in reached[c])
        assert closed_path_set_is_finite(g) == finite
        assert maximal_cycles(g) == tuple(c for c in cycles if not reached[c])
        for b in range(1, 5):
            complete = finite and all(len(c) <= b for c in cycles)
            assert simple_closed_paths(g, b).complete == complete
        for v in g.vertices:
            infinite = any(v in reach[c.src] for c in cycles)
            assert cycle_reaches_vertex(g, v) == infinite
            if infinite:
                with pytest.raises(GraphError):
                    count_paths_ending_at(g, v)
            else:
                assert count_paths_ending_at(g, v) == len(enumerate_paths_ending_at(g, v).paths)

    @given(g=small_graphs())
    @settings(max_examples=300, deadline=None)
    def test_sccs_are_the_mutual_reachability_classes(self, g):
        reach = {v: _reach(g, v) for v in g.vertices}
        comps = strongly_connected_components(g)
        assert sorted(v for comp in comps for v in comp) == list(g.vertices)
        for comp in comps:
            v = min(comp)
            assert comp == {w for w in reach[v] if v in reach[w]}


def _closed_walks_by_brute_force(g, bound, elementary):
    """Each primitive closed walk of length <= bound as its least rotation, read
    off every edge sequence; ``elementary`` keeps those with no repeated vertex."""
    out = []
    for n in range(1, bound + 1):
        for seq in itertools.product(g.edges, repeat=n):
            if any(a.rng != b.src for a, b in zip(seq, seq[1:] + seq[:1])):
                continue
            names = tuple(e.name for e in seq)
            rots = [names[i:] + names[:i] for i in range(n)]
            # a word equal to another of its rotations is a proper power
            if names != min(rots) or names in rots[1:]:
                continue
            if elementary and len({e.src for e in seq}) < n:
                continue
            out.append(FinitePath(names, seq[0].src, seq[0].src))
    return tuple(sorted(out, key=FinitePath.sort_key))


class TestClosedWalksAgainstBruteForce:
    """simple_closed_paths and elementary_cycles against every edge sequence."""

    @given(g=small_graphs(), b=st.integers(1, 4))
    @settings(max_examples=150, deadline=None)
    def test_small_graphs(self, g, b):
        assert simple_closed_paths(g, b).paths == _closed_walks_by_brute_force(g, b, False)
        assert elementary_cycles(g) == _closed_walks_by_brute_force(g, len(g.vertices), True)

    @pytest.mark.parametrize("n,loops,b", [(4, True, 4), (5, False, 3)])
    def test_complete_digraphs(self, n, loops, b):
        # edge i -> j is named after j first, so name order is not vertex order
        edges = [(f"e{j}{i}", f"v{i}", f"v{j}") for i in range(n) for j in range(n) if loops or i != j]
        g = Graph([f"v{i}" for i in range(n)], edges)
        assert simple_closed_paths(g, b).paths == _closed_walks_by_brute_force(g, b, False)
        cycles = elementary_cycles(g)
        assert tuple(c for c in cycles if len(c) <= b) == _closed_walks_by_brute_force(g, b, True)
        # C(n, k) (k - 1)! cycles of each length k >= 2, plus the loops
        assert len(cycles) == n * loops + sum(comb(n, k) * factorial(k - 1) for k in range(2, n + 1))


class TestTailLags:
    @pytest.mark.parametrize("fixture,n", [("r1", 1), ("rose2", 2), ("cycle3", 3)])
    def test_cycle_self_lags(self, fixture, n, request):
        g = request.getfixturevalue(fixture)
        if fixture == "r1":
            x = lasso(g, g.vertex_path("v"), ["e"])
        elif fixture == "rose2":
            x = lasso(g, g.vertex_path("v"), ["e", "g"])
        else:
            x = lasso(g, g.vertex_path("v1"), ["a", "b", "c"])
        assert tail_lags(x, x) == LagSet.coset(0, n)

    def test_a2_sink_lag(self, a2):
        x = sink_path(a2, a2.path(["f"]))
        y = sink_path(a2, a2.vertex_path("v"))
        assert tail_lags(x, y) == LagSet.single(1)

    def test_partition_preserved(self, toeplitz):
        x = sink_path(toeplitz, toeplitz.path(["f"]))
        y = lasso(toeplitz, toeplitz.vertex_path("u"), ["e"])
        assert tail_lags(x, y).is_empty
        assert tail_lags(y, x).is_empty

    def test_symmetry_up_to_negation(self, lasso_graph):
        x = lasso(lasso_graph, lasso_graph.path(["f"]), ["e"])
        y = lasso(lasso_graph, lasso_graph.vertex_path("v"), ["e"])
        fwd, bwd = tail_lags(x, y), tail_lags(y, x)
        for k in range(-6, 7):
            assert fwd.contains(k) == bwd.contains(-k)
        assert tail_lags(x, x).contains(0)

    def test_different_sinks_empty(self, cycle3_exit):
        g = Graph(["a1", "b1"], [])
        x = sink_path(g, g.vertex_path("a1"))
        y = sink_path(g, g.vertex_path("b1"))
        assert tail_lags(x, y).is_empty


class TestPrepend:
    def test_prepend_sink(self, a2):
        x = sink_path(a2, a2.vertex_path("v"))
        assert prepend(a2, a2.path(["f"]), x) == sink_path(a2, a2.path(["f"]))

    def test_prepend_lasso_recanonicalizes(self, r1):
        x = lasso(r1, r1.vertex_path("v"), ["e"])
        assert prepend(r1, r1.path(["e", "e"]), x) == x

    def test_strip_then_prepend_roundtrip(self, toeplitz):
        x = lasso(toeplitz, toeplitz.vertex_path("u"), ["e"])
        mu = toeplitz.path(["e", "e"])
        rem = strip_prefix(toeplitz, mu, x)
        assert prepend(toeplitz, mu, rem) == x


def _paths_up_to(g, n):
    """Every path of length at most n, vertices included."""
    paths = [g.vertex_path(v) for v in g.vertices]
    frontier = list(paths)
    for _ in range(n):
        frontier = [concat(p, g.path([e.name])) for p in frontier for e in g.out_edges(p.rng)]
        paths.extend(frontier)
    return paths


def _strip_prefix_by_lasso(g, mu, x):
    """strip_prefix on a lasso, re-canonicalizing the result through lasso()."""
    if mu.src != x.source or unroll(x, len(mu)) != mu.edges:
        return None
    pre = x.prefix.edges
    if len(mu) <= len(pre):
        return lasso(g, FinitePath(pre[len(mu):], mu.rng, x.prefix.rng), x.rotated_cycle())
    rot = (x.rotation + len(mu) - len(pre)) % x.period
    start = g.edge(x.cycle[rot]).src
    return lasso(g, FinitePath((), start, start), x.cycle[rot:] + x.cycle[:rot])


def _check_boundary_arithmetic(g, cycles):
    """strip_prefix and prepend build the lasso that lasso() canonicalizes,
    for every lasso in the bounded orbit of each cycle and every path of
    length <= 3."""
    paths = _paths_up_to(g, 3)
    checked = 0
    for c in cycles:
        for x in orbit(g, cycle_tail(g, c), bound=2).elements:
            for mu in paths:
                assert strip_prefix(g, mu, x) == _strip_prefix_by_lasso(g, mu, x), (mu, x)
                if mu.rng == x.source:
                    assert prepend(g, mu, x) == lasso(g, concat(mu, x.prefix), x.rotated_cycle()), (mu, x)
                    checked += 1
    return checked


class TestBoundaryPathsAgainstLasso:
    @pytest.mark.parametrize("name", sorted(FIXTURE_GRAPHS))
    def test_fixtures(self, name):
        g = Graph(*FIXTURE_GRAPHS[name])
        assert _check_boundary_arithmetic(g, simple_closed_paths(g, 3).paths) or not elementary_cycles(g)

    @given(g=small_graphs())
    @settings(max_examples=60, deadline=None)
    def test_small_graphs(self, g):
        _check_boundary_arithmetic(g, elementary_cycles(g))


def _boundary_paths(g):
    """Every boundary path in the orbits, bounded by 2, of the sinks and of
    the tails of the elementary cycles."""
    bases = [sink_path(g, g.vertex_path(v)) for v in g.sinks]
    bases += [cycle_tail(g, c) for c in elementary_cycles(g)]
    return [x for base in bases for x in orbit(g, base, bound=2).elements]


def _check_initial_paths(g):
    for x in _boundary_paths(g):
        for m in range(9):
            if isinstance(x, SinkPath) and m > len(x.path):
                with pytest.raises(GraphError):
                    initial_path(g, x, m)
                continue
            p = initial_path(g, x, m)
            assert p.edges == unroll(x, m) and p.src == x.source, (x, m)
            assert p.rng == strip_prefix(g, p, x).source, (x, m)


class TestInitialPath:
    """initial_path against unroll and strip_prefix."""

    @pytest.mark.parametrize("name", sorted(FIXTURE_GRAPHS))
    def test_fixtures(self, name):
        _check_initial_paths(Graph(*FIXTURE_GRAPHS[name]))

    @given(g=small_graphs())
    @settings(max_examples=60, deadline=None)
    def test_small_graphs(self, g):
        _check_initial_paths(g)


def _word(x, n):
    """The first n edge names of the boundary path x, spelled out from its
    fields here (fewer for a sink path that ends sooner)."""
    if isinstance(x, SinkPath):
        return x.path.edges[:n]
    body = x.cycle[x.rotation:] + x.cycle[: x.rotation]
    return (x.prefix.edges + body * n)[:n]


def _is_canonical(g, x):
    """A sink path ends at a sink.  A lasso's cycle is primitive and its own
    least rotation, its prefix is minimal and ends where the tail enters."""
    if isinstance(x, SinkPath):
        return g.is_sink(x.path.rng)
    c, n = x.cycle, x.period
    return (
        c == min(c[k:] + c[:k] for k in range(n))
        and all(c != c[:d] * (n // d) for d in range(1, n) if n % d == 0)
        and not (x.prefix.edges and x.prefix.edges[-1] == c[(x.rotation - 1) % n])
        and x.prefix.rng == g.edge(c[x.rotation]).src
    )


def _spells(g, r, x, source, word):
    """r is the canonical boundary path of x's kind that starts at source
    and spells word: all of its edges for a sink path, its first len(word)
    edges for a lasso.  A canonical lasso is fixed by its source and its
    infinite word, and word is long enough to fix that."""
    if type(r) is not type(x) or r.source != source or not _is_canonical(g, r):
        return False
    if isinstance(x, SinkPath):
        return r.path == FinitePath(word, source, x.path.rng)
    return _word(r, len(word)) == word


def _word_length(mu, x):
    """Edges of x enough to fix x less mu and mu.x: all of a sink path; for
    a lasso, more than its prefix, mu and two periods, which fixes an
    eventually periodic word of that prefix length and period."""
    if isinstance(x, SinkPath):
        return len(x.path)
    return 2 * (len(mu) + len(x.prefix) + 2 * x.period)


def _strip_oracle(g, mu, x, r):
    """r is strip_prefix(g, mu, x), by the unrolled edge words."""
    m, word = len(mu), _word(x, len(mu) + _word_length(mu, x))
    if mu.src != x.source or word[:m] != mu.edges:
        return r is None
    return _spells(g, r, x, mu.rng, word[m:])


def _prepend_oracle(g, mu, x, r):
    """r is prepend(g, mu, x), by the unrolled edge words."""
    return _spells(g, r, x, mu.src, mu.edges + _word(x, _word_length(mu, x)))


def _check_path_memo(g, size=3):
    """strip_prefix and prepend against the oracles on a cold memo and again
    on a warm one, and the round trips between them, for the paths mu of
    length at most ``size`` and the boundary paths x within ``size - 1`` of
    a base.  The tails of closed paths that repeat a vertex give lassos
    that differ in rotation alone."""
    bases = [sink_path(g, g.vertex_path(v)) for v in g.sinks]
    cycles = elementary_cycles(g) + simple_closed_paths(g, 2).paths
    bases += dict.fromkeys(cycle_tail(g, c) for c in cycles)
    xs = [x for base in bases for x in orbit(g, base, bound=size - 1).elements]
    paths = _paths_up_to(g, size)
    pairs = [(mu, x) for x in xs for mu in paths]
    cold = {}
    for mu, x in pairs:
        cold[mu, x] = strip_prefix(g, mu, x), prepend(g, mu, x) if mu.rng == x.source else None
    for mu, x in pairs:
        stripped, prepended = cold[mu, x]
        assert _strip_oracle(g, mu, x, stripped), (mu, x, stripped)
        assert strip_prefix(g, mu, x) is stripped, (mu, x)
        if stripped is not None:
            assert prepend(g, mu, stripped) == x, (mu, x)
        if mu.rng == x.source:
            assert _prepend_oracle(g, mu, x, prepended), (mu, x, prepended)
            assert prepend(g, mu, x) is prepended, (mu, x)
            assert strip_prefix(g, mu, prepended) == x, (mu, x)
    return len(pairs)


class TestPathMemo:
    """The memo behind strip_prefix and prepend, against oracles on edge
    words that call neither.  The all-pairs equivariance oracle cannot see
    a memo fault: both of its sides call the memoized functions."""

    @pytest.mark.parametrize("name", sorted(FIXTURE_GRAPHS))
    def test_fixtures(self, name):
        assert _check_path_memo(Graph(*FIXTURE_GRAPHS[name]))

    @given(g=small_graphs())
    @settings(max_examples=40, deadline=None)
    def test_small_graphs(self, g):
        _check_path_memo(g, size=2)

    def test_graphs_with_the_same_edge_names_share_no_result(self):
        # In both graphs c.d runs from s to v and the tail (e.d)^inf starts at
        # v.  Prepending c.d absorbs d into the tail, and the prefix left
        # ends at the source of d: w in one graph, z in the other.
        vertices = ["s", "v", "w", "z"]
        g1 = Graph(vertices, [("c", "s", "w"), ("d", "w", "v"), ("e", "v", "w")])
        g2 = Graph(vertices, [("c", "s", "z"), ("d", "z", "v"), ("e", "v", "z")])
        mu = FinitePath(("c", "d"), "s", "v")
        x = Lasso(FinitePath((), "v", "v"), ("d", "e"), 1)
        assert g1.path(mu.edges) == mu == g2.path(mu.edges)
        y1, y2 = prepend(g1, mu, x), prepend(g2, mu, x)
        assert y1 == Lasso(FinitePath(("c",), "s", "w"), ("d", "e"), 0)
        assert y2 == Lasso(FinitePath(("c",), "s", "z"), ("d", "e"), 0)
        for g in (g1, g2):
            _check_path_memo(g)
        assert prepend(g1, mu, x) is y1 and prepend(g2, mu, x) is y2


def test_per_graph_builds_once_per_graph_and_argument_tuple():
    calls = []

    @per_graph
    def built(graph, *args):
        calls.append((graph, args))
        return len(calls)

    data = (["v", "w"], [("e", "v", "w")])
    g, h = Graph(*data), Graph(*data)
    assert g is not h and g.to_json_dict() == h.to_json_dict()
    assert [built(g), built(g, 1), built(g), built(g, 1), built(h), built(g, 2), built(h)] == [1, 2, 1, 2, 3, 4, 3]
    assert calls == [(g, ()), (g, (1,)), (h, ()), (g, (2,))]


class TestJson:
    def test_roundtrip(self, toeplitz):
        assert Graph.from_json_dict(toeplitz.to_json_dict()).to_json_dict() == toeplitz.to_json_dict()
