import gc
import json
import weakref

import pytest

from leavitt import classify, graphs
from leavitt.classify import (
    ClassificationError,
    CycleSimple,
    SinkSimple,
    classify_graded,
    classify_simple,
    dimension_oracle,
    irrational_classes_flag,
)
from leavitt.cli import main
from leavitt.fields import QQ, PrimeField, parse_poly
from leavitt.graphs import Graph
from leavitt.reps import ModuleSpecError, build_module
from leavitt.verify import intertwiner_space

F2 = PrimeField(2)


class TestClassifyGraded:
    def test_a2(self, a2):
        res = classify_graded(a2, 4)
        assert res.sink_families == (type(res.sink_families[0])("v", 2),)
        assert res.laurent_families == ()
        assert not res.irrational.present
        assert res.complete

    def test_r1(self, r1):
        res = classify_graded(r1, 4)
        assert res.sink_families == ()
        assert len(res.laurent_families) == 1
        fam = res.laurent_families[0]
        assert str(fam.cycle) == "e" and fam.shifts == (0,)
        assert not res.irrational.present
        assert res.complete

    def test_rose2_incomplete_with_flag(self, rose2):
        res = classify_graded(rose2, 2)
        names = [str(f.cycle) for f in res.laurent_families]
        assert names == ["e", "g", "e.g"]
        assert res.irrational.present
        assert not res.complete

    def test_cycle3_shifts(self, cycle3):
        res = classify_graded(cycle3, 4)
        assert len(res.laurent_families) == 1
        assert res.laurent_families[0].shifts == (0, 1, 2)
        assert res.complete

    def test_toeplitz_infinite_sink_family(self, toeplitz):
        res = classify_graded(toeplitz, 4)
        assert res.sink_families[0].dimension is None
        assert [str(f.cycle) for f in res.laurent_families] == ["e"]
        assert res.complete

    def test_monotone_in_bound(self, rose2):
        small = classify_graded(rose2, 2).laurent_families
        large = classify_graded(rose2, 3).laurent_families
        assert large[: len(small)] == small
        assert len(large) > len(small)

    def test_finite_dimension_iff_maximal_sink(self, request):
        from leavitt.graphs import maximal_sinks

        for name in ("a2", "r1", "toeplitz", "rose2", "chain3", "lasso_graph", "two_loops"):
            graph = request.getfixturevalue(name)
            res = classify_graded(graph, 4)
            finite = {f.vertex: f.dimension for f in res.sink_families if f.dimension is not None}
            assert finite == dict(maximal_sinks(graph))


class TestClassifySimple:
    def test_a2_any_field(self, a2):
        for field in (QQ, F2):
            res = classify_simple(a2, field, 3)
            assert len(res.entries) == 1
            entry = res.entries[0]
            assert isinstance(entry, SinkSimple) and entry.dimension == 2
            assert res.complete

    def test_toeplitz_f2_bound3(self, toeplitz):
        res = classify_simple(toeplitz, F2, 3)
        cycles = [e for e in res.entries if isinstance(e, CycleSimple)]
        assert sorted(e.dimension for e in cycles) == [1, 2, 3, 3]
        assert [str(e.modulus) for e in cycles] == [
            "t+1",
            "t^2+t+1",
            "t^3+t+1",
            "t^3+t^2+1",
        ]
        sink_flags = [f for f in res.flagged if f.kind == "sink"]
        assert [f.base for f in sink_flags] == ["v"]
        assert res.complete

    def test_rose2_no_finite_dimension(self, rose2):
        res = classify_simple(rose2, QQ, 2)
        assert res.entries == ()
        assert any(f.kind == "cycle" for f in res.flagged)
        assert any(f.kind == "irrational-classes" for f in res.flagged)

    def test_rose2_completeness_no_maximal_cycles(self, rose2):
        # there are no maximal cycles, so the (empty) finite-dimensional list is complete
        res = classify_simple(rose2, QQ, 2)
        assert res.complete

    def test_q_sampled_axis(self, toeplitz):
        res = classify_simple(toeplitz, QQ, 3, rational_values=(1, 2, -1))
        cycles = [e for e in res.entries if isinstance(e, CycleSimple)]
        assert [str(e.modulus) for e in cycles] == ["t-2", "t-1", "t+1"]
        assert not res.complete

    def test_q_moduli_listed_once(self, toeplitz):
        extra = [parse_poly("t-2", QQ), parse_poly("t^2-2", QQ), parse_poly("t^2-2", QQ)]
        res = classify_simple(toeplitz, QQ, 3, rational_values=(2, 1, 2, -1), extra_moduli=extra)
        cycles = [e for e in res.entries if isinstance(e, CycleSimple)]
        assert [str(e.modulus) for e in cycles] == ["t-2", "t-1", "t+1", "t^2-2"]

    @pytest.mark.parametrize(
        "argv,key,moduli",
        [
            (["classify", "--simple", "--rational-samples", "1,1"], "families", ["t-1"]),
            (["dims", "--rational-samples", "2,2"], "entries", ["t-2"]),
        ],
    )
    def test_lpa_lists_a_repeated_sample_once(self, r1, tmp_path, capsys, argv, key, moduli):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(r1.to_json_dict()))
        assert main(argv + ["--field", "Q", "--json", str(path)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert [e["modulus"] for e in data[key]] == moduli

    def test_q_extra_moduli(self, toeplitz):
        extra = [parse_poly("t^2-2", QQ)]
        res = classify_simple(toeplitz, QQ, 3, extra_moduli=extra)
        dims = sorted(
            e.dimension for e in res.entries if isinstance(e, CycleSimple)
        )
        assert dims == [1, 1, 1, 2]

    @pytest.mark.parametrize(
        "extra,moduli",
        [
            (["t^2+t+1"], ["t+1", "t^2+t+1"]),
            (["t+1", "t^3+t+1", "t^2+t+1", "t^3+t+1"], ["t+1", "t^3+t+1", "t^2+t+1"]),
        ],
    )
    def test_prime_field_extra_moduli(self, r1, extra, moduli):
        res = classify_simple(r1, F2, 1, extra_moduli=[parse_poly(f, F2) for f in extra])
        assert [str(e.modulus) for e in res.entries] == moduli
        assert res.complete

    def test_prime_field_reducible_extra_modulus(self, r1):
        with pytest.raises(ModuleSpecError):
            classify_simple(r1, F2, 1, extra_moduli=[parse_poly("t^2+1", F2)])

    def test_monotone_in_poly_bound(self, toeplitz):
        small = classify_simple(toeplitz, F2, 2).entries
        large = classify_simple(toeplitz, F2, 3).entries
        assert large[: len(small)] == small

    def test_rejects_extension_ground_field(self, toeplitz):
        from leavitt.fields import ExtensionField

        K = ExtensionField(F2, parse_poly("t^2+t+1", F2))
        with pytest.raises(ClassificationError):
            classify_simple(toeplitz, K, 2)


class TestDimensionOracle:
    def test_a2_sink(self, a2):
        assert dimension_oracle(a2, SinkSimple("v", 2)) == 2

    def test_chain(self, chain3):
        assert dimension_oracle(chain3, SinkSimple("v", 3)) == 3

    def test_sink_below_a_cycle_is_an_error(self, toeplitz):
        with pytest.raises(ClassificationError, match="a cycle reaches 'v'"):
            dimension_oracle(toeplitz, SinkSimple("v", 1))

    def test_lpa_dims_catches_a_wrong_sink_count(self, a2, tmp_path, capsys, monkeypatch):
        """The oracle counts sink paths by its own walk, so a wrong count from
        ``graphs.count_paths_ending_at`` shows as a mismatch."""
        real = graphs.count_paths_ending_at
        wrong = lambda graph, v: real(graph, v) + 1
        monkeypatch.setattr(graphs, "count_paths_ending_at", wrong)
        monkeypatch.setattr(classify, "count_paths_ending_at", wrong, raising=False)
        path = tmp_path / "g.json"
        path.write_text(json.dumps(a2.to_json_dict()))
        assert main(["dims", "--json", str(path)]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["all_match"] is False
        assert [(e["dimension"], e["oracle"]) for e in data["entries"]] == [(3, 2)]

    def test_toeplitz_orbit_size_one(self, toeplitz):
        res = classify_simple(toeplitz, F2, 2)
        for e in res.entries:
            if isinstance(e, CycleSimple):
                assert e.orbit_size == 1
                assert dimension_oracle(toeplitz, e) == e.dimension

    def test_lasso_graph_orbit_size_two(self, lasso_graph):
        res = classify_simple(lasso_graph, F2, 1)
        assert [e.orbit_size for e in res.entries if isinstance(e, CycleSimple)] == [2]

    def test_oracle_matches_basis_length(self, a2, toeplitz, lasso_graph):
        for graph, field in ((a2, QQ), (toeplitz, F2), (lasso_graph, QQ)):
            res = classify_simple(graph, field, 2)
            for e in res.entries:
                spec = e.module_spec(graph) if isinstance(e, SinkSimple) else e.module_spec()
                M = build_module(graph, field, spec)
                enum = M.enumerate_basis()
                assert enum.exact
                assert dimension_oracle(graph, e) == len(enum.elements)


def _complete_with_loops_beside_a_loop(n: int) -> Graph:
    """K_n with a loop at every vertex, and a separate vertex w with one loop."""
    vs = [f"v{i}" for i in range(n)]
    edges = [(f"e{i}_{j}", a, b) for i, a in enumerate(vs) for j, b in enumerate(vs)]
    return Graph(vs + ["w"], edges + [("l", "w", "w")])


class TestDimensionOracleWork:
    def test_walk_stays_at_the_cycle(self, monkeypatch):
        """Only w reaches the maximal loop; a walk from every vertex would
        list every path of K5 up to 8 edges (2.4 million) and of K6 up to
        9 edges (73 million)."""
        calls = []
        real_lasso = classify.lasso
        monkeypatch.setattr(classify, "lasso", lambda *a: calls.append(a) or real_lasso(*a))
        for n in (5, 6):
            graph = _complete_with_loops_beside_a_loop(n)
            calls.clear()
            res = classify_simple(graph, F2, 2)
            dims = [dimension_oracle(graph, e) for e in res.entries]
            assert dims == [e.dimension for e in res.entries] == [1, 2]
            # at most one lasso per path l^k, k <= |V| + 2, for the first modulus only
            assert len(calls) <= len(graph.vertices) + 3

    def test_lpa_dims_on_k5_beside_a_loop(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(_complete_with_loops_beside_a_loop(5).to_json_dict()))
        assert main(["dims", "--field", "F2", "--poly-deg", "2", "--json", str(path)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["all_match"] and [e["oracle"] for e in data["entries"]] == [1, 2]

    def test_memo_lets_the_graph_go(self, toeplitz):
        """The lasso count is built once per graph and cycle, for both
        moduli at the loop, and is kept on the graph, so it goes with it."""
        graph = Graph(toeplitz.vertices, toeplitz.edges)
        entries = classify_simple(graph, F2, 2).entries
        assert [e.cycle.edges for e in entries] == [("e",), ("e",)]
        for e in entries:
            dimension_oracle(graph, e)
        build = classify._lasso_count.__wrapped__
        assert [key for key in graph._derived if key[0] is build] == [(build, ("e",))]
        ref = weakref.ref(graph)
        del graph, entries, e
        gc.collect()
        assert ref() is None


class TestPairwiseNonIsomorphism:
    @pytest.mark.parametrize("gname", ["toeplitz", "lasso_graph"])
    def test_distinct_entries_have_no_intertwiners(self, gname, request):
        graph = request.getfixturevalue(gname)
        res = classify_simple(graph, F2, 2)
        mods = []
        for e in res.entries:
            spec = e.module_spec(graph) if isinstance(e, SinkSimple) else e.module_spec()
            mods.append(build_module(graph, F2, spec))
        for i, Mi in enumerate(mods):
            for j, Mj in enumerate(mods):
                dim = len(intertwiner_space(Mi, Mj))
                assert (dim == 0) == (i != j) or (i == j and dim >= 1)
                if i != j:
                    assert dim == 0


class TestIrrationalFlag:
    def test_two_loops_not_flagged(self, two_loops):
        assert not irrational_classes_flag(two_loops).present

    def test_rose_flagged_with_witness(self, rose2):
        flag = irrational_classes_flag(rose2)
        assert flag.present and set(flag.witness) == {"e", "g"}

    def test_witness_cycle_longer_than_the_cycle_bound(self, theta):
        res = classify_graded(theta, 2)
        assert [str(f.cycle) for f in res.laurent_families] == ["a.b"]
        assert res.irrational.witness == ("a.b", "a.c.d")

    def test_classify_graded_lists_no_cycles(self, monkeypatch, theta, rose2):
        """The witness comes from a bounded search, not from every cycle."""
        calls = []
        listed = graphs.elementary_cycles
        for module in (graphs, classify):
            monkeypatch.setattr(module, "elementary_cycles", lambda g: calls.append(g) or listed(g))
        edges = [(f"e{i}{j}", f"v{i}", f"v{j}") for i in range(5) for j in range(5) if i != j]
        k5 = Graph([f"v{i}" for i in range(5)], edges)
        for g in (theta, rose2, k5):
            assert classify_graded(g, 3).irrational.present
        assert calls == []
        assert len(classify_simple(k5, F2, 1).flagged) == 85  # 84 cycles and the witness
        assert len(calls) == 1


class TestJsonShape:
    def test_graded_json(self, toeplitz):
        data = classify_graded(toeplitz, 3).to_json_dict()
        assert set(data) == {"families", "complete", "bounds"}
        kinds = {f["kind"] for f in data["families"]}
        assert kinds == {"sink", "laurent", "irrational-classes"}

    def test_simple_json(self, toeplitz):
        data = classify_simple(toeplitz, F2, 2).to_json_dict()
        assert set(data) == {"field", "families", "flagged", "complete", "bounds"}
