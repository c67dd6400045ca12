"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS/FAIL line so the suite doubles as a
human-readable report (run with ``pytest tests/test_acceptance.py -v -s``).
"""

from leavitt.algebra import TwistVector
from leavitt.classify import CycleSimple, SinkSimple, classify_graded, classify_simple
from leavitt.fields import QQ, PrimeField, parse_poly
from leavitt.graphs import Graph, LagSet, lasso, sink_path, tail_lags
from leavitt.groupoid import orbit
from leavitt.reps import (
    ChenExtSpec,
    ChenSpec,
    InducedSpec,
    LaurentCoeff,
    QuotientCoeff,
    ScalarAction,
    TrivialCoeff,
    build_module,
)
from leavitt.verify import (
    check_module_iso,
    graded_iso_check,
    intertwiner_space,
    simplicity_probe,
    boundary_iso_maps,
    verify_nvc_iso,
    verify_pi_consistency,
    verify_relations,
    verify_res_ind,
    verify_triv_iso,
    verify_twist_iso,
)
from strategies import enumerate_monic

F2 = PrimeField(2)

TEST_GRAPHS = {
    "single-vertex": Graph(["w"], []),
    "A2": Graph(["u", "v"], [("f", "u", "v")]),
    "R1": Graph(["v"], [("e", "v", "v")]),
    "Toeplitz": Graph(["u", "v"], [("e", "u", "u"), ("f", "u", "v")]),
    "2-rose": Graph(["v"], [("e", "v", "v"), ("g", "v", "v")]),
    "3-cycle-with-exit": Graph(
        ["v1", "v2", "v3", "w"],
        [("a", "v1", "v2"), ("b", "v2", "v3"), ("c", "v3", "v1"), ("d", "v1", "w")],
    ),
    "chain": Graph(["u", "w", "v"], [("f", "u", "w"), ("g", "w", "v")]),
}


def report(number: int, description: str, ok: bool):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {description}")
    assert ok, f"criterion {number}: {description}"


def test_criterion_1_relation_suite():
    ok = True
    for name, graph in TEST_GRAPHS.items():
        for field in (QQ, F2):
            cert = verify_relations(graph, field, seed=0, triples=200)
            ok = ok and cert.passed
    report(1, "defining relations and 200 associativity triples per graph over Q and F2", ok)


def test_criterion_2_pi_consistency():
    ok = True
    for name, graph in TEST_GRAPHS.items():
        cert = verify_pi_consistency(graph, QQ, max_len=3)
        ok = ok and cert.passed and cert.window["pairs"] == cert.window["monomials"] ** 2
    report(2, "monomial products match bisection products for all pairs of length <= 3", ok)


def test_criterion_3_a2_classification():
    a2 = TEST_GRAPHS["A2"]
    simple = classify_simple(a2, QQ, 3)
    ok = len(simple.entries) == 1
    entry = simple.entries[0]
    ok = ok and isinstance(entry, SinkSimple) and entry.dimension == 2
    graded = classify_graded(a2, 4)
    ok = ok and len(graded.sink_families) == 1 and graded.sink_families[0].dimension == 2
    ok = ok and graded.laurent_families == () and graded.complete
    probe = simplicity_probe(a2, QQ, ChenSpec(sink_path(a2, a2.vertex_path("v"))))
    ok = ok and probe.verdict == "simple"
    report(3, "A2: one finite-dimensional simple of dimension 2, one sink family, probe says simple", ok)


def brute_force_irreducible_count(p: int, d: int) -> int:
    field = PrimeField(p)
    reducible = set()
    for d1 in range(1, d):
        d2 = d - d1
        for g in enumerate_monic(field, d1):
            for h in enumerate_monic(field, d2):
                reducible.add((g * h).coeffs)
    return p ** d - len(reducible)


def test_criterion_4_toeplitz_over_f2():
    toeplitz = TEST_GRAPHS["Toeplitz"]
    res = classify_simple(toeplitz, F2, 3)
    cycles = [e for e in res.entries if isinstance(e, CycleSimple)]
    dims = sorted(e.dimension for e in cycles)
    ok = dims == [1, 2, 3, 3]
    moduli = sorted(str(e.modulus) for e in cycles)
    ok = ok and moduli == ["t+1", "t^2+t+1", "t^3+t+1", "t^3+t^2+1"]
    flagged = [f for f in res.flagged if f.kind == "sink"]
    ok = ok and [f.base for f in flagged] == ["v"]
    # cross-check irreducible counts against brute-force factoring
    per_degree = {d: sum(1 for e in cycles if e.modulus.degree == d) for d in (1, 2, 3)}
    expected = {
        1: brute_force_irreducible_count(2, 1) - 1,  # t is excluded
        2: brute_force_irreducible_count(2, 2),
        3: brute_force_irreducible_count(2, 3),
    }
    ok = ok and per_degree == expected
    report(4, "Toeplitz/F2 bound 3: cycle simples of dims 1,2,3,3 and the sink family flagged infinite", ok)


def test_criterion_5_triv_certificate():
    a2 = TEST_GRAPHS["A2"]
    a = TwistVector.make(a2, QQ, {"f": 3})
    cert = verify_triv_iso(a2, QQ, sink_path(a2, a2.vertex_path("v")), twist=a, mono_len=3)
    ok = cert.passed
    # negative control 1: the corrupted map fails the certificate
    bad = verify_triv_iso(a2, QQ, sink_path(a2, a2.path(["f"])), twist=a, corrupt=True)
    ok = ok and not bad.passed
    # negative control 2: a mutually-inverse but wrongly scaled pair fails equivariance
    x = sink_path(a2, a2.path(["f"]))
    modA = build_module(a2, QQ, InducedSpec(x, TrivialCoeff(0)))
    modB = build_module(a2, QQ, ChenSpec(x, a))
    phi, psi = boundary_iso_maps(modA, modB)

    def invert_scale(mapping):
        def bad_map(b):
            vec = mapping(b)
            ((bb, c),) = vec.terms.items()
            from leavitt.reps import ModuleVector

            return ModuleVector(QQ, {bb: QQ.inv(c)})

        return bad_map

    control = check_module_iso("negative control", modA, modB, (invert_scale(phi), invert_scale(psi)), 4, 3)
    equiv = next(c for c in control.checks if c["name"] == "equivariance")
    ok = ok and not equiv["passed"]
    report(5, "A2 with twist f=3: certificate passes; corrupted maps fail", ok)


def test_criterion_6_twist_iso_and_intertwiners():
    r1, toeplitz = TEST_GRAPHS["R1"], TEST_GRAPHS["Toeplitz"]
    ok = True
    for graph, cyc in ((r1, ["e"]), (toeplitz, ["e"])):
        for a in (1, 2, -1):
            cert = verify_twist_iso(graph, QQ, graph.path(cyc), ScalarAction(QQ.coerce(a)))
            ok = ok and cert.passed
        cert = verify_twist_iso(graph, F2, graph.path(cyc), QuotientCoeff(parse_poly("t^2+t+1", F2)))
        ok = ok and cert.passed
    # intertwiner dimensions: Hom(V^a, V^b) is a point iff a = b
    for graph in (r1, toeplitz):
        x = lasso(graph, graph.vertex_path(graph.edge("e").src), ["e"])

        def twisted(aval, g=graph, base=x):
            return build_module(g, QQ, ChenSpec(base, TwistVector.make(g, QQ, {"e": QQ.coerce(aval)})))

        for a in (1, 2, -1):
            for b in (1, 2, -1):
                dim = len(intertwiner_space(twisted(a), twisted(b)))
                ok = ok and dim == (1 if a == b else 0)
        # Hom(V^{t-a}, V^a) is one-dimensional
        for a in (1, 2, -1):
            text = f"t-{a}" if a > 0 else f"t+{-a}"
            ext = build_module(graph, QQ, ChenExtSpec(graph.path(["e"]), parse_poly(text, QQ)))
            dim = len(intertwiner_space(ext, twisted(a)))
            ok = ok and dim == 1
    report(6, "twist certificates for a in {1,2,-1} and t^2+t+1; intertwiner dims match the twist classes", ok)


def test_criterion_7_res_ind():
    a2, r1, toeplitz = TEST_GRAPHS["A2"], TEST_GRAPHS["R1"], TEST_GRAPHS["Toeplitz"]
    certs = [
        verify_res_ind(a2, QQ, InducedSpec(sink_path(a2, a2.vertex_path("v")), TrivialCoeff(0))),
        verify_res_ind(r1, QQ, InducedSpec(lasso(r1, r1.vertex_path("v"), ["e"]), ScalarAction(QQ.coerce(5)))),
        verify_res_ind(
            toeplitz, F2,
            InducedSpec(lasso(toeplitz, toeplitz.vertex_path("u"), ["e"]), QuotientCoeff(parse_poly("t^2+t+1", F2))),
        ),
    ]
    ok = all(c.passed for c in certs)
    report(7, "restriction recovers the coefficient module (identity, scalar, companion)", ok)


def test_criterion_8_graded_simple_not_simple():
    r1 = TEST_GRAPHS["R1"]
    x = lasso(r1, r1.vertex_path("v"), ["e"])
    M = build_module(r1, QQ, InducedSpec(x, LaurentCoeff(0)))
    bound = 4
    by_degree = {}
    for b in M.enumerate_basis(bound).elements:
        by_degree.setdefault(M.grade(b), []).append(b)
    ok = all(len(by_degree.get(d, [])) == 1 for d in range(-bound, bound + 1))
    probe = simplicity_probe(r1, QQ, InducedSpec(x, LaurentCoeff(0)), bound=bound)
    ok = ok and probe.verdict == "graded-simple-not-simple"
    # the kernel witness is (e)^inf@1 - (e)^inf@0, the t - 1 element
    ok = ok and "(e)^inf@1" in probe.witness["kernel_vector"]
    ok = ok and "(e)^inf@0" in probe.witness["kernel_vector"]
    nvc = verify_nvc_iso(r1, QQ, r1.path(["e"]))
    ok = ok and nvc.passed
    report(8, "R1 Laurent module: every graded component is a line, quotient witness t-1, no-exit iso passes", ok)


def test_criterion_9_graded_iso_criterion():
    graph3 = Graph(["v1", "v2", "v3"], [("a", "v1", "v2"), ("b", "v2", "v3"), ("c", "v3", "v1")])
    x3 = lasso(graph3, graph3.vertex_path("v1"), ["a", "b", "c"])
    classes = []
    ok = True
    for m in range(3):
        spec = InducedSpec(x3, LaurentCoeff(0), shift=m)
        if not any(graded_iso_check(graph3, QQ, spec, other).isomorphic for other in classes):
            classes.append(spec)
    ok = ok and len(classes) == 3
    for m in range(6):
        for mp in range(6):
            d = graded_iso_check(
                graph3, QQ,
                InducedSpec(x3, LaurentCoeff(0), shift=m),
                InducedSpec(x3, LaurentCoeff(0), shift=mp),
            )
            ok = ok and d.isomorphic == ((m - mp) % 3 == 0)
    r1 = TEST_GRAPHS["R1"]
    x1 = lasso(r1, r1.vertex_path("v"), ["e"])
    for m in range(-3, 4):
        d = graded_iso_check(
            r1, QQ, InducedSpec(x1, LaurentCoeff(0)), InducedSpec(x1, LaurentCoeff(0), shift=m)
        )
        ok = ok and d.isomorphic
    report(9, "3-cycle: exactly 3 Laurent shift classes, congruence mod 3; loop: all shifts identified", ok)


def test_criterion_10_lag_sets():
    r1 = TEST_GRAPHS["R1"]
    cycle2 = Graph(["v1", "v2"], [("a", "v1", "v2"), ("b", "v2", "v1")])
    graph3 = Graph(["v1", "v2", "v3"], [("a", "v1", "v2"), ("b", "v2", "v3"), ("c", "v3", "v1")])
    ok = True
    for graph, seq, n in ((r1, ["e"], 1), (cycle2, ["a", "b"], 2), (graph3, ["a", "b", "c"], 3)):
        x = lasso(graph, graph.vertex_path(graph.edge(seq[0]).src), seq)
        ok = ok and tail_lags(x, x) == LagSet.coset(0, n)
    # exhaustive pairwise lag structure over enumerated boundary paths
    for name, graph in TEST_GRAPHS.items():
        elems = []
        for v in graph.sinks:
            elems.extend(orbit(graph, sink_path(graph, graph.vertex_path(v)), bound=3).elements)
        from leavitt.graphs import simple_closed_paths

        for c in simple_closed_paths(graph, 3).paths:
            x = lasso(graph, graph.vertex_path(c.src), c.edges)
            elems.extend(orbit(graph, x, bound=2).elements)
        from leavitt.graphs import SinkPath

        for p in elems:
            for q in elems:
                lags = tail_lags(p, q)
                if isinstance(p, SinkPath) != isinstance(q, SinkPath):
                    ok = ok and lags.is_empty
                elif isinstance(p, SinkPath):
                    ok = ok and lags.kind in ("empty", "single")
                    if p.path.rng == q.path.rng:
                        ok = ok and lags == LagSet.single(len(p.path) - len(q.path))
                else:
                    ok = ok and lags.kind in ("empty", "coset")
    report(10, "lag sets: cosets |c|Z on cycles of lengths 1,2,3; singletons for sinks; empty across the partition", ok)
