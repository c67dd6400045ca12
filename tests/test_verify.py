import functools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fixture_graphs import FIXTURE_GRAPHS, tree_into_loop
from leavitt import groupoid, verify
from leavitt.algebra import LeavittAlgebra, Monomial, TwistVector, all_monomials, monomial
from leavitt.fields import QQ, PrimeField, parse_field, parse_poly
from leavitt.classify import CycleSimple, SinkSimple, classify_simple
from leavitt.graphs import Graph, cycle_tail, elementary_cycles, enumerate_paths_ending_at, lasso, maximal_cycles, sink_path
from leavitt.linalg import add_scaled, identity, linear_extend, mat_mul, rref, zeros
from leavitt.reps import (
    ChenExtSpec,
    ChenModule,
    ChenSpec,
    CosetBasis,
    InducedModule,
    InducedSpec,
    LaurentCoeff,
    Module,
    ModuleSpecError,
    ModuleVector,
    NvcModule,
    NvcSpec,
    QuotientCoeff,
    ScalarAction,
    TrivialCoeff,
    build_module,
)
from strategies import monomial_element, small_graphs
from leavitt.verify import (
    _generators_equivariant,
    OutOfWindowError,
    Window,
    check_module_iso,
    generator_support,
    generators,
    graded_iso_check,
    intertwiner_space,
    nvc_iso_maps,
    restrict,
    simplicity_probe,
    spin_generators,
    boundary_iso_maps,
    verify_nvc_iso,
    verify_pi_consistency,
    verify_res_ind,
    verify_triv_iso,
    verify_twist_iso,
)

F2 = PrimeField(2)
EXTENSION_FIELDS = ["Q[t]/(t^2-2)", "F2[t]/(t^2+t+1)"]


def companion_matrix(f) -> list[list]:
    F = f.field
    d = f.degree
    out = [[F.zero()] * d for _ in range(d)]
    for i in range(1, d):
        out[i][i - 1] = F.one()
    for i in range(d):
        out[i][d - 1] = F.neg(f.coeff(i))
    return out


class TestRestrict:
    def test_a2_chen_at_v(self, a2):
        M = build_module(a2, QQ, ChenSpec(sink_path(a2, a2.vertex_path("v"))))
        res = restrict(M, sink_path(a2, a2.vertex_path("v")))
        assert res.dimension == 1
        assert res.generator_matrix == identity(QQ, 1)
        # spanned by the length-0 basis path
        assert res.subspace == [[QQ.one(), QQ.zero()]]

    def test_r1_twisted_chen(self, r1):
        a = TwistVector.make(r1, QQ, {"e": 7})
        x = lasso(r1, r1.vertex_path("v"), ["e"])
        M = build_module(r1, QQ, ChenSpec(x, a))
        res = restrict(M, x)
        assert res.dimension == 1
        assert res.generator_matrix == [[QQ.coerce(7)]]

    def test_toeplitz_ext_companion(self, toeplitz):
        f = parse_poly("t^2+t+1", F2)
        M = build_module(toeplitz, F2, ChenExtSpec(toeplitz.path(["e"]), f))
        x = lasso(toeplitz, toeplitz.vertex_path("u"), ["e"])
        res = restrict(M, x)
        assert res.dimension == 2
        assert res.generator_matrix == companion_matrix(f)

    def test_restrict_at_other_class_is_zero(self, a2):
        M = build_module(a2, QQ, ChenSpec(sink_path(a2, a2.vertex_path("v"))))
        res = restrict(M, sink_path(a2, a2.path(["f"])))
        assert res.dimension == 1  # f.f* keeps exactly the basis path f

    def test_cap_enforced(self, lasso_graph):
        x = lasso(lasso_graph, lasso_graph.vertex_path("v"), ["e"])
        M = build_module(lasso_graph, QQ, ChenSpec(x))
        with pytest.raises(OutOfWindowError):
            restrict(M, x, cap=0)

    def test_infinite_dimension_rejected(self, toeplitz):
        M = build_module(toeplitz, QQ, ChenSpec(sink_path(toeplitz, toeplitz.vertex_path("v"))))
        with pytest.raises(ModuleSpecError):
            restrict(M, sink_path(toeplitz, toeplitz.vertex_path("v")))


def test_windows_act_on_basis_elements(monkeypatch, toeplitz):
    """Window matrices, and the restriction, Hom and simplicity checks built
    on them, act on basis elements, never on one-term vectors."""

    def refuse(self, mono, terms):
        raise AssertionError(f"act_monomial on {terms}")

    monkeypatch.setattr(Module, "act_monomial", refuse)
    spec = InducedSpec(cycle_tail(toeplitz, toeplitz.path(["e"])), QuotientCoeff(parse_poly("t^2+t+1", F2)))
    M = build_module(toeplitz, F2, spec)
    window = Window.full(M)
    assert len(window.matrix_of(monomial(toeplitz.path(["e"]), toeplitz.vertex_path("u")))) == window.dim == 2
    assert restrict(M, spec.base).dimension == 2
    assert len(intertwiner_space(M, M)) == 2
    assert simplicity_probe(toeplitz, F2, spec).verdict == "simple"


def test_window_operations_enumerate_the_orbit_once_per_window(monkeypatch, lasso_graph):
    """Finiteness is read off the basis enumeration, so a full window lists
    its orbit once: one canonical_lassos call for Window.full, one for the
    simplicity probe, and one for End, whose two sides share a window."""
    calls = []
    lassos = groupoid.canonical_lassos

    def counted(*args):
        calls.append(args)
        return lassos(*args)

    monkeypatch.setattr(groupoid, "canonical_lassos", counted)
    spec = ChenExtSpec(lasso_graph.path(["e"]), parse_poly("t^2+t+1", F2))
    M = build_module(lasso_graph, F2, spec)
    counts = []
    for run in (lambda: Window.full(M), lambda: simplicity_probe(lasso_graph, F2, spec), lambda: intertwiner_space(M, M)):
        calls.clear()
        run()
        counts.append(len(calls))
    assert counts == [1, 1, 1]


def test_probe_of_an_infinite_module_enumerates_no_window(monkeypatch, toeplitz):
    """Without a Laurent coefficient the probe has no use for a window of
    ``bound``: an infinite-dimensional module is enumerated at bound 0 at
    most, however large the bound."""
    bounds = []
    enumerate_basis = ChenModule.enumerate_basis

    def recorded(self, bound=None):
        bounds.append(bound)
        return enumerate_basis(self, bound)

    monkeypatch.setattr(ChenModule, "enumerate_basis", recorded)
    probe = simplicity_probe(toeplitz, QQ, ChenSpec(sink_path(toeplitz, toeplitz.vertex_path("v"))), bound=50)
    assert probe.verdict == "inconclusive" and set(bounds) <= {0}


class TestIntertwiners:
    def test_schur_on_a2(self, a2):
        M = build_module(a2, QQ, ChenSpec(sink_path(a2, a2.vertex_path("v"))))
        homs = intertwiner_space(M, M)
        assert len(homs) == 1

    def test_twist_classes_r1(self, r1):
        x = lasso(r1, r1.vertex_path("v"), ["e"])

        def V(aval):
            return build_module(r1, QQ, ChenSpec(x, TwistVector.make(r1, QQ, {"e": aval})))

        assert len(intertwiner_space(V(2), V(3))) == 0
        assert len(intertwiner_space(V(2), V(2))) == 1

    def test_twist_classes_toeplitz(self, toeplitz):
        x = lasso(toeplitz, toeplitz.vertex_path("u"), ["e"])

        def V(aval):
            return build_module(
                toeplitz, QQ, ChenSpec(x, TwistVector.make(toeplitz, QQ, {"e": aval}))
            )

        assert len(intertwiner_space(V(2), V(-1))) == 0
        assert len(intertwiner_space(V(-1), V(-1))) == 1

    def test_quotient_linear_modulus_vs_twist(self, r1):
        # K[t]/(t-a) extension of scalars matches the a-twisted module
        x = lasso(r1, r1.vertex_path("v"), ["e"])
        for aval in (2, -1, 5):
            ext = build_module(r1, QQ, ChenExtSpec(r1.path(["e"]), parse_poly(f"t-{aval}" if aval > 0 else f"t+{-aval}", QQ)))
            tw = build_module(r1, QQ, ChenSpec(x, TwistVector.make(r1, QQ, {"e": aval})))
            assert len(intertwiner_space(ext, tw)) == 1

    def test_schur_extension_field_endos(self, toeplitz):
        f = parse_poly("t^2+t+1", F2)
        M = build_module(toeplitz, F2, ChenExtSpec(toeplitz.path(["e"]), f))
        homs = intertwiner_space(M, M)
        assert len(homs) == 2  # End = the degree-2 field extension

    def test_graded_mode_degree_zero(self, a2):
        M = build_module(a2, QQ, ChenSpec(sink_path(a2, a2.vertex_path("v"))))
        homs = intertwiner_space(M, M, graded=True, degree=0)
        assert len(homs) == 1
        shifted = intertwiner_space(M, M, graded=True, degree=1)
        assert len(shifted) == 0

    def test_window_not_closed_raises(self, r1):
        M = build_module(r1, QQ, NvcSpec(r1.path(["e"])))
        with pytest.raises(ModuleSpecError):
            intertwiner_space(M, M)

    def test_modules_over_different_graphs_rejected(self, a2):
        M = build_module(a2, QQ, ChenSpec(sink_path(a2, a2.vertex_path("v"))))
        other = Graph(["a", "b"], [("f", "a", "b")])
        N = build_module(other, QQ, ChenSpec(sink_path(other, other.vertex_path("b"))))
        with pytest.raises(ModuleSpecError, match="different graphs"):
            intertwiner_space(M, N)
        with pytest.raises(ModuleSpecError, match="different graphs"):
            intertwiner_space(N, M)
        rebuilt = Graph(*FIXTURE_GRAPHS["a2"])  # equal, but built separately
        M2 = build_module(rebuilt, QQ, ChenSpec(sink_path(rebuilt, rebuilt.vertex_path("v"))))
        assert len(intertwiner_space(M, M2)) == 1

    def test_nonisomorphic_sink_modules(self, chain3):
        Mv = build_module(chain3, QQ, ChenSpec(sink_path(chain3, chain3.vertex_path("v"))))
        homs = intertwiner_space(Mv, Mv)
        assert len(homs) == 1


class TestTrivIso:
    def test_untwisted_identity(self, a2):
        cert = verify_triv_iso(a2, QQ, sink_path(a2, a2.vertex_path("v")))
        assert cert.passed

    def test_twist_three(self, a2):
        a = TwistVector.make(a2, QQ, {"f": 3})
        cert = verify_triv_iso(a2, QQ, sink_path(a2, a2.vertex_path("v")), twist=a)
        assert cert.passed
        names = [c["name"] for c in cert.checks]
        assert "degree-preservation" in names and "equivariance" in names

    def test_corrupted_map_fails(self, a2):
        # the dropped nu-scaling is visible once the base path has an edge
        a = TwistVector.make(a2, QQ, {"f": 3})
        cert = verify_triv_iso(a2, QQ, sink_path(a2, a2.path(["f"])), twist=a, corrupt=True)
        assert not cert.passed
        assert cert.counterexample is not None

    def test_consistently_corrupted_maps_fail_equivariance(self, a2):
        # mutually inverse but with the twist ratio inverted: only the
        # equivariance check can catch this
        a = TwistVector.make(a2, QQ, {"f": 3})
        x = sink_path(a2, a2.path(["f"]))
        modA = build_module(a2, QQ, InducedSpec(x, TrivialCoeff(0)))
        modB = build_module(a2, QQ, ChenSpec(x, a))
        phi, psi = boundary_iso_maps(modA, modB)
        from leavitt.reps import ChenBasis, CosetBasis, ModuleVector

        def phi_bad(b: CosetBasis):
            good = phi(b)
            ((bb, c),) = good.terms.items()
            return ModuleVector(QQ, {bb: QQ.inv(c)})

        def psi_bad(b: ChenBasis):
            good = psi(b)
            ((bb, c),) = good.terms.items()
            return ModuleVector(QQ, {bb: QQ.inv(c)})

        cert = check_module_iso("negative control", modA, modB, (phi_bad, psi_bad), 4, 2)
        by_name = {c["name"]: c["passed"] for c in cert.checks}
        assert by_name["psi-after-phi-is-identity"]
        assert by_name["phi-after-psi-is-identity"]
        assert not by_name["equivariance"]
        assert not cert.passed
        # The generator f on the sink's basis element v@-1: f(f.d) = f but
        # f.f(d) = 9 f.  A detail that followed set order would differ
        # between hash seeds.
        assert cert.counterexample == {"check": "equivariance", "detail": "eta=f on v@-1: f != 9 f"}

    def test_phi_scales_by_path_twist(self, a2):
        a = TwistVector.make(a2, QQ, {"f": 3})
        modA = build_module(a2, QQ, InducedSpec(sink_path(a2, a2.vertex_path("v")), TrivialCoeff(0)))
        modB = build_module(a2, QQ, ChenSpec(sink_path(a2, a2.vertex_path("v")), a))
        phi, _ = boundary_iso_maps(modA, modB)
        from leavitt.reps import CosetBasis

        image = phi(CosetBasis(sink_path(a2, a2.path(["f"])), 1))
        assert list(image.terms.values()) == [QQ.coerce(3)]

    def test_chain_graph(self, chain3):
        cert = verify_triv_iso(chain3, QQ, sink_path(chain3, chain3.vertex_path("v")))
        assert cert.passed

    def test_bounded_window_on_infinite_class(self, toeplitz):
        cert = verify_triv_iso(toeplitz, QQ, sink_path(toeplitz, toeplitz.vertex_path("v")), bound=3)
        assert cert.passed
        assert cert.window["exact"] is False


class TestTwistIso:
    @pytest.mark.parametrize("aval", [1, 2, -1])
    def test_r1_scalar(self, r1, aval):
        cert = verify_twist_iso(r1, QQ, r1.path(["e"]), ScalarAction(QQ.coerce(aval)))
        assert cert.passed

    @pytest.mark.parametrize("aval", [1, 2, -1])
    def test_toeplitz_scalar(self, toeplitz, aval):
        cert = verify_twist_iso(toeplitz, QQ, toeplitz.path(["e"]), ScalarAction(QQ.coerce(aval)))
        assert cert.passed

    def test_toeplitz_quotient(self, toeplitz):
        f = parse_poly("t^2+t+1", F2)
        cert = verify_twist_iso(toeplitz, F2, toeplitz.path(["e"]), QuotientCoeff(f))
        assert cert.passed

    def test_cycle3_quotient(self, cycle3):
        f = parse_poly("t^2-2", QQ)
        cert = verify_twist_iso(cycle3, QQ, cycle3.path(["a", "b", "c"]), QuotientCoeff(f))
        assert cert.passed


class TestCertificateMemo:
    """check_module_iso evaluates phi and psi once per basis element, and a
    map that is wrong anywhere still fails."""

    @staticmethod
    def _quotient_modules(cycle3):
        # K[t]/(f) induced at the tail of a.b.c, and the scalar extension
        f = parse_poly("t^2+t+1", F2)
        c = cycle3.path(["a", "b", "c"])
        modA = build_module(cycle3, F2, InducedSpec(cycle_tail(cycle3, c), QuotientCoeff(f)))
        modB = build_module(cycle3, F2, ChenExtSpec(c, f))
        return modA, modB

    @staticmethod
    def _check(modA, modB, phi, psi):
        return check_module_iso("control", modA, modB, (phi, psi), 3, 2)

    @pytest.mark.parametrize("case", ["triv", "twist", "nvc"])
    def test_maps_evaluated_once_per_basis_element(self, a2, cycle3, r1, case):
        if case == "triv":
            x = sink_path(a2, a2.path(["f"]))
            modA = build_module(a2, QQ, InducedSpec(x, TrivialCoeff(0)))
            modB = build_module(a2, QQ, ChenSpec(x, TwistVector.make(a2, QQ, {"f": 3})))
            phi, psi = boundary_iso_maps(modA, modB)
        elif case == "twist":
            modA, modB = self._quotient_modules(cycle3)
            phi, psi = boundary_iso_maps(modA, modB)
        else:
            x = lasso(r1, r1.vertex_path("v"), ["e"])
            modA = build_module(r1, QQ, InducedSpec(x, LaurentCoeff(0)))
            modB = build_module(r1, QQ, NvcSpec(r1.path(["e"])))
            phi, psi = nvc_iso_maps(modA, modB)
        calls = {"phi": [], "psi": []}

        def counted(name, f):
            return lambda b: calls[name].append(b) or f(b)

        cert = self._check(modA, modB, counted("phi", phi), counted("psi", psi))
        assert cert.passed
        for name, args in calls.items():
            assert args and len(args) == len(set(args)), name

    def test_phi_wrong_on_one_basis_element_fails(self, cycle3):
        modA, modB = self._quotient_modules(cycle3)
        phi, psi = boundary_iso_maps(modA, modB)
        elemsA = modA.enumerate_basis(3).elements
        assert len(elemsA) > 2 and self._check(modA, modB, phi, psi).passed
        for wrong in elemsA:
            def phi_bad(b, wrong=wrong):
                return phi(b).scale(F2.zero()) if b == wrong else phi(b)
            assert not self._check(modA, modB, phi_bad, psi).passed, wrong

    def test_negative_controls_still_fail(self, a2, cycle3):
        a = TwistVector.make(a2, QQ, {"f": 3})
        assert not verify_triv_iso(a2, QQ, sink_path(a2, a2.path(["f"])), twist=a, corrupt=True).passed
        modA, modB = self._quotient_modules(cycle3)
        assert self._check(modA, modB, *boundary_iso_maps(modA, modB)).passed
        assert not self._check(modA, modB, *boundary_iso_maps(modA, modB, drop_nu_inverse=True)).passed

    # The quotient twist-iso certificate on a binary tree of depth 3 whose
    # root carries a loop l, with verify_twist_iso's defaults: bound 4 (the
    # window is exact) and mono_len 3.
    TREE_COEFF = QuotientCoeff(parse_poly("t^2+t+1", F2))

    @staticmethod
    def _count_actions(monkeypatch, run):
        """run() and the number of actions it makes: Module.act_monomial
        calls (the B side, on f(b)) and InducedModule.act_monomial_basis
        calls (the A side, on b).  B is a scalar extension or a no-exit-cycle
        monomial module, so every InducedModule call comes from the A side
        directly."""
        calls = []
        real = Module.act_monomial
        monkeypatch.setattr(Module, "act_monomial", lambda self, m, terms: calls.append(1) or real(self, m, terms))
        real_basis = InducedModule.act_monomial_basis
        monkeypatch.setattr(InducedModule, "act_monomial_basis", lambda self, m, b: calls.append(1) or real_basis(self, m, b))
        result = run()
        monkeypatch.undo()
        return result, len(calls)

    def test_generator_check_acts_only_through_the_support(self, monkeypatch):
        # Each of the 45 generators on each of the 30 elements, both sides,
        # would make 2,700 calls.  Through the supports of b and of f(b), 2
        # generators act on each leaf, 4 on each inner vertex and 5 on the
        # loop, so the certificate makes 2 * 2 * (8 * 2 + 6 * 4 + 5) = 180.
        g = Graph(*tree_into_loop(3))
        cert, calls = self._count_actions(monkeypatch, lambda: verify_twist_iso(g, F2, g.path(["l"]), self.TREE_COEFF))
        assert cert.passed and cert.window["exact"]
        assert 0 < calls <= 180, calls

    def test_closure_check_acts_only_through_the_support(self, monkeypatch):
        # nvc-iso at the loop of the same graph with verify_nvc_iso's
        # defaults: a window of 105 elements (bound 3, not exact) and
        # mono_len 2.  The generator check on the window's closure makes 804
        # calls.
        g = Graph(*tree_into_loop(3))
        cert, calls = self._count_actions(monkeypatch, lambda: verify_nvc_iso(g, F2, g.path(["l"])))
        assert cert.passed and cert.window == {"basis": 105, "mono_len": 2, "exact": False}
        assert 0 < calls <= 804, calls

    def test_only_equivariance_catches_phi_doubled_and_psi_halved_on_one_element(self):
        """phi times 2 on one basis element b0, and psi times 1/2 on the basis
        element phi(b0) is a multiple of, are still mutually inverse; the
        generator check and the certificate's equivariance check fail."""
        g = Graph(*tree_into_loop(2))
        l = g.path(["l"])
        modA = build_module(g, QQ, InducedSpec(cycle_tail(g, l), ScalarAction(3)))
        modB = build_module(g, QQ, ChenSpec(cycle_tail(g, l), TwistVector.make(g, QQ, {"l": 3})))
        phi, psi = boundary_iso_maps(modA, modB)
        elems = modA.enumerate_basis(0).elements
        assert len(elems) == 7 and _generators_equivariant(modA, modB, phi, elems, 0) is None
        for b0 in elems:
            (b1,) = phi(b0).terms

            def phi_bad(b, b0=b0):
                return phi(b).scale(2) if b == b0 else phi(b)

            def psi_bad(b, b1=b1):
                return psi(b).scale(QQ.inv(QQ.coerce(2))) if b == b1 else psi(b)

            assert _generators_equivariant(modA, modB, phi_bad, elems, 0) is not None, b0
            cert = check_module_iso("control", modA, modB, (phi_bad, psi_bad), 2, 2)
            assert [c["name"] for c in cert.checks if not c["passed"]] == ["equivariance"], b0


def _all_pairs_counterexample(modA, modB, f, elems, mono_len):
    """The oracle for the equivariance check: every monomial with both path
    lengths at most mono_len on every element, as a one-term algebra element
    acting on a one-term vector."""
    F = modA.field
    algebra = modA.algebra()
    for m in all_monomials(modA.graph, mono_len):
        eta = monomial_element(algebra, m)
        for b in elems:
            image = modA.act(eta, ModuleVector(F, {b: F.one()}))
            lhs = ModuleVector(F, linear_extend(F, lambda b2: f(b2).terms, image.terms))
            rhs = modB.act(eta, f(b))
            if lhs != rhs:
                return m, b, lhs, rhs
    return None


def _assert_counterexample(modA, modB, f, bad):
    """Re-check a failure (g, d, f(g.d), g.f(d)) that the equivariance check
    names, through ``Module.act`` on the algebra element g: both sides are
    as named, and they differ."""
    g, d, lhs, rhs = bad
    F = modA.field
    eta = modA.algebra().element({g: F.one()})
    image = modA.act(eta, ModuleVector(F, {d: F.one()}))
    assert ModuleVector(F, linear_extend(F, lambda b: f(b).terms, image.terms)) == lhs
    assert modB.act(eta, f(d)) == rhs
    assert lhs != rhs


ORACLE_FIELDS = {"F2": (F2, "t^2+t+1"), "F3": (PrimeField(3), "t^2+1"), "Q": (QQ, "t^2-2")}
ORACLE_MONO_LEN = 2  # what the builders below are given


def _builder_scans(monkeypatch, g, F, modulus):
    """(modA, modB, phi, elems) of every equivariance check that the
    certificate builders and the Laurent probe make on g over F, and of the
    drop_nu_inverse maps."""
    scans = []
    real = verify._generators_equivariant
    monkeypatch.setattr(verify, "_generators_equivariant", lambda *args: scans.append(args[:4]) or real(*args))
    a = F.coerce(2) if not F.is_zero(F.coerce(2)) else F.one()
    f = parse_poly(modulus, F)
    n = ORACLE_MONO_LEN
    for v in g.sinks:
        twist = TwistVector.make(g, F, {e.name: a for e in g.in_edges(v)})
        for p in enumerate_paths_ending_at(g, v, bound=1).paths:
            for corrupt in (False, True):
                verify_triv_iso(g, F, sink_path(g, p), twist=twist, bound=2, mono_len=n, corrupt=corrupt)
    for c in elementary_cycles(g):
        verify_twist_iso(g, F, c, ScalarAction(a), bound=2, mono_len=n)
        verify_twist_iso(g, F, c, QuotientCoeff(f), bound=2, mono_len=n)
        simplicity_probe(g, F, InducedSpec(cycle_tail(g, c), LaurentCoeff(0)), bound=2, mono_len=n)
        try:
            verify_nvc_iso(g, F, c, bound=2, mono_len=n)
        except ModuleSpecError:
            pass  # the cycle has an exit
    monkeypatch.undo()
    for c in elementary_cycles(g):
        modA = build_module(g, F, InducedSpec(cycle_tail(g, c), QuotientCoeff(f)))
        modB = build_module(g, F, ChenExtSpec(c, f))
        phi, _ = boundary_iso_maps(modA, modB, drop_nu_inverse=True)
        scans.append((modA, modB, phi, modA.enumerate_basis(2).elements))
    return scans


def _wrong_maps(modA, modB, phi, elems, mono_len):
    """(map, must_fail) for phi made wrong on one basis element b0: scaled,
    sent to another element's image, or, for a ghost part r(nu).nu* that
    kills b0 in A, sent to a vector that it does not kill in B."""
    F = modA.field

    def changed(b0, value):
        return lambda b: value if b == b0 else phi(b)

    out = []
    for k in sorted({0, len(elems) - 1}):
        b0 = elems[k]
        out.append((changed(b0, phi(b0).scale(F.zero())), False))
        if F.coerce(2) not in (F.zero(), F.one()):
            out.append((changed(b0, phi(b0).scale(2)), False))
        if len(elems) > 1:
            out.append((changed(b0, phi(elems[k - 1])), False))
    graph, algebra = modA.graph, modA.algebra()
    for nu in dict.fromkeys(m.nu for m in all_monomials(graph, mono_len)):
        ghost = monomial_element(algebra, monomial(graph.vertex_path(nu.rng), nu))
        killed = [b for b in elems if modA.act(ghost, ModuleVector(F, {b: F.one()})).is_zero]
        alive = [b for b in elems if not modB.act(ghost, phi(b)).is_zero]
        if killed and alive:
            out.append((changed(killed[-1], phi(alive[0])), True))
            if sum(must_fail for _, must_fail in out) == 2:
                break
    return out


def _inverse_map(modA, modB):
    """psi of the certificate whose phi an oracle entry checks; None for
    the Laurent probe's surjection, which has no inverse."""
    if isinstance(modB, NvcModule):
        return nvc_iso_maps(modA, modB)[1]
    if isinstance(modA.spec.coeff, LaurentCoeff):
        return None
    return boundary_iso_maps(modA, modB)[1]


def test_builders_reach_the_equivariance_check(monkeypatch):
    # One entry per triv-iso certificate, plain and corrupted; per
    # elementary cycle, one per twist-iso certificate (scalar and quotient
    # field), one for the Laurent probe, one for nvc-iso when the cycle has
    # no exit and one for the drop_nu_inverse maps.  A new way around the
    # check that the patch missed would shrink the corpus with every test
    # still passing.
    count = 0
    for graph_name in sorted(FIXTURE_GRAPHS):
        for F, modulus in ORACLE_FIELDS.values():
            count += len(_builder_scans(monkeypatch, Graph(*FIXTURE_GRAPHS[graph_name]), F, modulus))
    assert count == 282


class TestEquivarianceScanAgainstAllPairs:
    """The equivariance check fails exactly when the all-pairs scan finds a
    counterexample, on exact and inexact windows, for the builders' maps and
    for maps made wrong on one element; every failure it names is re-checked
    through ``Module.act``, and the certificate records its verdict."""

    @pytest.mark.parametrize("field_name", sorted(ORACLE_FIELDS))
    @pytest.mark.parametrize("graph_name", sorted(FIXTURE_GRAPHS))
    def test_builder_and_wrong_maps(self, monkeypatch, graph_name, field_name):
        g = Graph(*FIXTURE_GRAPHS[graph_name])
        F, modulus = ORACLE_FIELDS[field_name]
        n = ORACLE_MONO_LEN
        for modA, modB, phi, elems in _builder_scans(monkeypatch, g, F, modulus):
            enum = modA.enumerate_basis(2)
            assert enum.elements == elems
            psi = _inverse_map(modA, modB)
            for f, must_fail in [(phi, False), *_wrong_maps(modA, modB, phi, elems, n)]:
                f = functools.cache(f)
                expected = _all_pairs_counterexample(modA, modB, f, elems, n)
                assert expected is not None or not must_fail
                bad = _generators_equivariant(modA, modB, f, elems, 0 if enum.exact else n)
                assert (bad is None) == (expected is None)
                if bad is not None:
                    _assert_counterexample(modA, modB, f, bad)
                if psi is not None:
                    cert = check_module_iso("oracle", modA, modB, (f, psi), 2, n)
                    (check,) = [c for c in cert.checks if c["name"] == "equivariance"]
                    assert check["passed"] == (bad is None)


def _closure_by_words(g, module, elems, mono_len: int) -> dict:
    """The terms of h.b, for b in elems and h a proper suffix of the
    generator word of a monomial with path lengths at most mono_len, and the
    terms of one generator acting on each of them: the generator check's
    closure and its one-step images, found from the words rather than
    breadth-first."""
    F = module.field
    closure = dict.fromkeys(elems)
    for m in all_monomials(g, mono_len):
        word = _generator_word(g, m)
        for b in elems:
            vec = {b: F.one()}
            for h in reversed(word[1:]):
                vec = module.act_monomial(h, vec)
                closure.update(vec)
    steps = [t for d in closure for h in generators(g) for t in module.act_monomial_basis(h, d)]
    return {**closure, **dict.fromkeys(steps)}


def _no_exit_cycles(g) -> list:
    out = []
    for c in elementary_cycles(g):
        try:
            build_module(g, QQ, NvcSpec(c))
        except ModuleSpecError:
            continue  # the cycle has an exit
        out.append(c)
    return out


NO_EXIT_FIXTURES = [name for name in sorted(FIXTURE_GRAPHS) if _no_exit_cycles(Graph(*FIXTURE_GRAPHS[name]))]


@pytest.mark.parametrize("graph_name", NO_EXIT_FIXTURES)
def test_closure_check_passes_only_when_the_all_pairs_scan_does(graph_name):
    """nvc-iso's phi doubled on one element at a time, for every element of
    the closure (bound 2, mono_len 2) and its one-step images: whenever the
    generator check on the closure passes, the all-pairs scan finds
    nothing.  A closure cut short (edge steps to mono_len - 2, ghost steps
    to mono_len - 1, or the window alone) misses an element that a
    monomial reaches, and fails this."""
    g = Graph(*FIXTURE_GRAPHS[graph_name])
    for c in _no_exit_cycles(g):
        modB = build_module(g, QQ, NvcSpec(c))
        modA = build_module(g, QQ, InducedSpec(modB.tail, LaurentCoeff(0)))
        phi = nvc_iso_maps(modA, modB)[0]
        elems = modA.enumerate_basis(2).elements
        assert _generators_equivariant(modA, modB, phi, elems, 2) is None
        for b0 in _closure_by_words(g, modA, elems, 2):
            f = functools.cache(lambda b, b0=b0: phi(b).scale(2) if b == b0 else phi(b))
            if _generators_equivariant(modA, modB, f, elems, 2) is None:
                assert _all_pairs_counterexample(modA, modB, f, elems, 2) is None, (c, b0)


def test_closure_mutation_outside_the_window_names_its_counterexample(r1):
    """nvc-iso's phi doubled on (e)^inf@-5, outside the window (bound 2) but
    one ghost step from the closure (mono_len 2): no monomial of the window
    claim sees it, yet f is not a module map, and the certificate names the
    ghost e* on (e)^inf@-4, an element of the closure."""
    modB = build_module(r1, QQ, NvcSpec(r1.path(["e"])))
    modA = build_module(r1, QQ, InducedSpec(modB.tail, LaurentCoeff(0)))
    phi, psi = nvc_iso_maps(modA, modB)
    b0 = CosetBasis(modB.tail, -5)
    elems = modA.enumerate_basis(2).elements
    assert b0 not in elems
    f = functools.cache(lambda b: phi(b).scale(2) if b == b0 else phi(b))
    assert _all_pairs_counterexample(modA, modB, f, elems, 2) is None
    _assert_counterexample(modA, modB, f, _generators_equivariant(modA, modB, f, elems, 2))
    cert = check_module_iso("closure mutation", modA, modB, (f, psi), 2, 2)
    assert [c["name"] for c in cert.checks if not c["passed"]] == ["equivariance"]
    detail = "eta=v e^ on (e)^inf@-4: 2 v e.e.e.e.e^ != v e.e.e.e.e^"
    assert cert.counterexample == {"check": "equivariance", "detail": detail}


PROOF_FIELDS = [(QQ, "t^2-2"), (PrimeField(3), "t^2+1")]


def _modules_of_every_kind(g):
    """Modules on g over Q and F3, twisted by a different scalar on each edge
    over Q (by 2 = -1 over F3): at each sink, the twisted boundary-path module
    and the module induced from trivial coefficients; at the tail of each of
    at most two elementary cycles, the twisted and the scalar-extended
    boundary-path modules and the modules induced from a scalar, a quotient
    field and Laurent coefficients, and the no-exit-cycle monomial module
    when the cycle has no exit."""
    out = []
    for F, modulus in PROOF_FIELDS:
        f = parse_poly(modulus, F)
        values = {e.name: F.coerce(i + 2 if F == QQ else 2) for i, e in enumerate(g.edges)}
        twist = TwistVector.make(g, F, values)
        for v in g.sinks:
            x = sink_path(g, g.vertex_path(v))
            out += [build_module(g, F, ChenSpec(x, twist)), build_module(g, F, InducedSpec(x, TrivialCoeff(0)))]
        for c in elementary_cycles(g)[:2]:
            x = cycle_tail(g, c)
            specs = [ChenSpec(x, twist), ChenExtSpec(c, f)]
            specs += [InducedSpec(x, coeff) for coeff in (ScalarAction(2), QuotientCoeff(f), LaurentCoeff(0))]
            out += [build_module(g, F, spec) for spec in specs]
            try:
                out.append(build_module(g, F, NvcSpec(c)))
            except ModuleSpecError:
                pass  # the cycle has an exit
    return out


def _generator_word(g, m: Monomial) -> list[Monomial]:
    """mu.nu* as the product e_1...e_k f_l*...f_1* of generators, the
    leftmost factor first; the idempotent when mu and nu are vertices."""
    if not (m.mu.edges or m.nu.edges):
        return [m]
    edges = [Monomial(g.path([e]), g.vertex_path(g.edge(e).rng)) for e in m.mu.edges]
    return edges + [Monomial(g.vertex_path(g.edge(e).rng), g.path([e])) for e in reversed(m.nu.edges)]


def _check_generator_proof(g, bound: int, pairs: int, seed: int):
    """What the generator check's proof assumes, on every module of
    ``_modules_of_every_kind``:
    - each monomial acts on a basis element as the product of its generator
      actions, for ``pairs`` (monomial, element) pairs drawn with ``seed``
      from the monomials with both path lengths at most 2 and the window of
      ``bound`` (all of them when there are fewer);
    - the support of each window element lists exactly the generators that
      act on it nonzero; for a no-exit-cycle monomial module, at least
      those (a larger support costs only time);
    - on an exact window, the generator matrices satisfy the relations that
      ``verify_relations`` checks in the algebra, and ``Window.actions``
      holds exactly the nonzero columns of the spin generators' matrices."""
    rng = random.Random(seed)
    monos, gens, support = all_monomials(g, 2), generators(g), generator_support(g)
    for M in _modules_of_every_kind(g):
        F = M.field
        enum = M.enumerate_basis(bound)
        n = len(enum.elements)
        for k in rng.sample(range(len(monos) * n), min(pairs, len(monos) * n)):
            m, b = monos[k // n], enum.elements[k % n]
            vec = {b: F.one()}
            for h in reversed(_generator_word(g, m)):
                vec = M.act_monomial(h, vec)
            assert M.act_monomial_basis(m, b) == vec, (M.spec, m, b)
        for b in enum.elements:
            acting = {h for h in gens if M.act_monomial_basis(h, b)}
            if isinstance(M, NvcModule):
                assert set(support(b)) >= acting, (M.spec, b)
            else:
                assert set(support(b)) == acting, (M.spec, b)
        if enum.exact:
            window = Window(M, enum.elements)
            _check_window_relations(g, window)
            mats = [window.matrix_of(h) for h in spin_generators(g)]
            assert window.actions == [{k: m[j] for k, m in enumerate(mats) if m[j]} for j in range(n)], M.spec


def _check_window_relations(g, window: Window):
    """The four relation checks of ``verify_relations`` on the generator
    matrices of a module's whole basis."""
    F, spec, n = window.module.field, window.module.spec, window.dim

    def prod(P, Q):
        return [linear_extend(F, P.__getitem__, col) for col in Q]

    mat = window.matrix_of
    vertex = {v: mat(monomial(g.vertex_path(v), g.vertex_path(v))) for v in g.vertices}
    edge = {e.name: mat(Monomial(g.path([e.name]), g.vertex_path(e.rng))) for e in g.edges}
    ghost = {e.name: mat(Monomial(g.vertex_path(e.rng), g.path([e.name]))) for e in g.edges}
    zero = [{} for _ in range(n)]
    for v in g.vertices:
        for w in g.vertices:
            assert prod(vertex[v], vertex[w]) == (vertex[v] if v == w else zero), (spec, v, w)
    for e in g.edges:
        el, gh = edge[e.name], ghost[e.name]
        assert prod(vertex[e.src], el) == el == prod(el, vertex[e.rng]), (spec, e)
        assert prod(vertex[e.rng], gh) == gh == prod(gh, vertex[e.src]), (spec, e)
        for f in g.edges:
            assert prod(gh, edge[f.name]) == (vertex[e.rng] if e == f else zero), (spec, e, f)
    for v in g.vertices:
        if g.is_regular(v):
            total = [{} for _ in range(n)]
            for e in g.out_edges(v):
                for acc, col in zip(total, prod(edge[e.name], ghost[e.name])):
                    add_scaled(F, acc, F.one(), col)
            assert total == vertex[v], (spec, v)


class TestGeneratorProof:
    """The generator check proves equivariance, on an exact window and on
    the closure of an inexact one, because each module acts by a monomial
    as by the product of its generators, and because no generator acting
    nonzero is left out of the support."""

    @pytest.mark.parametrize("graph_name", sorted(FIXTURE_GRAPHS))
    def test_fixtures(self, graph_name):
        _check_generator_proof(Graph(*FIXTURE_GRAPHS[graph_name]), 3, 10**6, 0)

    @given(small_graphs(), st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_small_graphs(self, g, seed):
        _check_generator_proof(g, 2, 120, seed)


def _spins_and_ends(g) -> list:
    """Per finite module of ``_modules_of_every_kind``: the spin dimension
    of every seed, the seeds of the spin of the whole basis, End, and Hom
    to the previous module when both are finite."""
    out, previous = [], None
    for M in _modules_of_every_kind(g):
        if not M.enumerate_basis(0).exact:
            continue
        window = Window.full(M)
        dims = [len(verify._spin(window, [seed]).steps) for seed in range(window.dim)]
        seeds = [j for k, j in verify._spin(window, range(window.dim)).steps if k is None]
        homs = [intertwiner_space(M, M)]
        if previous is not None and previous.field == M.field:
            homs += [intertwiner_space(previous, M), intertwiner_space(M, previous)]
        out.append((M.spec, dims, seeds, homs))
        previous = M
    return out


def _assert_spin_generators_suffice(monkeypatch, g):
    kept = spin_generators(g)
    assert [h for h in generators(g) if h not in kept] == [
        monomial(g.vertex_path(v), g.vertex_path(v)) for v in g.vertices if g.out_edges(v) or g.in_edges(v)
    ]
    got = _spins_and_ends(g)
    monkeypatch.setattr(verify, "spin_generators", generators)
    assert _spins_and_ends(g) == got
    monkeypatch.undo()


class TestSpinGenerators:
    """Spins and Hom act without the idempotents of vertices that have an
    edge (``spin_generators``): with every generator, each seed spins to the
    same dimension, the spin of the whole basis takes the same seeds, and
    End and Hom have the same bases."""

    @pytest.mark.parametrize("graph_name", sorted(FIXTURE_GRAPHS))
    def test_fixtures(self, monkeypatch, graph_name):
        _assert_spin_generators_suffice(monkeypatch, Graph(*FIXTURE_GRAPHS[graph_name]))

    @given(small_graphs())
    @settings(max_examples=30, deadline=None)
    def test_small_graphs(self, g):
        with pytest.MonkeyPatch.context() as monkeypatch:
            _assert_spin_generators_suffice(monkeypatch, g)

    def test_isolated_vertices_keep_their_idempotents(self):
        """Over two isolated vertices u and w, the modules at u and at w
        differ only in which idempotent acts as one, so without those
        idempotents Hom between them would not be 0."""
        g = Graph(["u", "w"], [])
        Mu, Mw = (build_module(g, QQ, ChenSpec(sink_path(g, g.vertex_path(v)))) for v in "uw")
        assert spin_generators(g) == generators(g)
        assert intertwiner_space(Mu, Mw) == [] == intertwiner_space(Mw, Mu)
        assert intertwiner_space(Mu, Mu) == [[[QQ.one()]]]


class TestNvcIso:
    def test_r1(self, r1):
        cert = verify_nvc_iso(r1, QQ, r1.path(["e"]))
        assert cert.passed

    def test_lasso_graph_shifted_degrees(self, lasso_graph):
        cert = verify_nvc_iso(lasso_graph, QQ, lasso_graph.path(["e"]))
        assert cert.passed

    def test_cycle3(self, cycle3):
        cert = verify_nvc_iso(cycle3, QQ, cycle3.path(["a", "b", "c"]))
        assert cert.passed

    def test_exit_rejected(self, rose2):
        with pytest.raises(ModuleSpecError, match="exit"):
            verify_nvc_iso(rose2, QQ, rose2.path(["e"]))

    def test_maps_are_mutually_inverse_on_larger_window(self, lasso_graph):
        x = lasso(lasso_graph, lasso_graph.vertex_path("v"), ["e"])
        modA = build_module(lasso_graph, QQ, InducedSpec(x, LaurentCoeff(0)))
        modB = build_module(lasso_graph, QQ, NvcSpec(lasso_graph.path(["e"])))
        phi, psi = nvc_iso_maps(modA, modB)
        for b in modA.enumerate_basis(5).elements:
            img = phi(b)
            (m, c), = img.terms.items()
            assert c == QQ.one()
            back = psi(m)
            assert back == modA.vector({b: 1})


class TestResInd:
    def test_a2_trivial(self, a2):
        cert = verify_res_ind(a2, QQ, InducedSpec(sink_path(a2, a2.vertex_path("v")), TrivialCoeff(0)))
        assert cert.passed
        assert cert.window["steps"] <= 3

    def test_r1_scalar(self, r1):
        x = lasso(r1, r1.vertex_path("v"), ["e"])
        cert = verify_res_ind(r1, QQ, InducedSpec(x, ScalarAction(QQ.coerce(5))))
        assert cert.passed
        assert cert.window["steps"] <= 3

    def test_toeplitz_quotient(self, toeplitz):
        x = lasso(toeplitz, toeplitz.vertex_path("u"), ["e"])
        f = parse_poly("t^2+t+1", F2)
        cert = verify_res_ind(toeplitz, F2, InducedSpec(x, QuotientCoeff(f), 0))
        assert cert.passed
        assert cert.window["steps"] <= 3

    def test_shifted_trivial_degrees(self, a2):
        cert = verify_res_ind(a2, QQ, InducedSpec(sink_path(a2, a2.vertex_path("v")), TrivialCoeff(2)))
        assert cert.passed


def _kernel_dimension(F, f, G: list[list]) -> int:
    """dim ker f(G): f(G) by Horner's rule, R <- R.G + c.I over the
    coefficients c of f from the top, and its rank by ``rref``."""
    n = len(G)
    R = zeros(F, n, n)
    for c in reversed(f.coeffs):
        R = mat_mul(F, R, G)
        for i in range(n):
            R[i][i] = F.add(R[i][i], c)
    return n - len(rref(F, R)[0])


@pytest.mark.parametrize("field", [F2, PrimeField(3)], ids=str)
@pytest.mark.parametrize("gname", sorted(FIXTURE_GRAPHS))
def test_induction_restriction_adjunction(gname, field):
    """dim Hom(Ind_x K[t]/(f), M) = dim Hom_{K[t,1/t]}(K[t]/(f), Res_x M)
    = dim ker f(G), with G the isotropy generator on ``restrict(M, x)``, for
    x the tail of each maximal cycle, each modulus f of the classification
    and each entry M.  Swapping ``generator`` and ``_generator_inverse`` in
    InducedModule fails it (on r1 over F3, at t^2+t+2)."""
    g = Graph(*FIXTURE_GRAPHS[gname])
    res = classify_simple(g, field, 2)
    entries = [build_module(g, field, e.module_spec(g) if isinstance(e, SinkSimple) else e.module_spec()) for e in res.entries]
    moduli = dict.fromkeys(e.modulus for e in res.entries if isinstance(e, CycleSimple))
    for c in maximal_cycles(g):
        x = cycle_tail(g, c)
        for f in moduli:
            induced = build_module(g, field, InducedSpec(x, QuotientCoeff(f)))
            for M in entries:
                want = _kernel_dimension(field, f, restrict(M, x).generator_matrix)
                assert len(intertwiner_space(induced, M)) == want, (c, f, M.spec)


class TestGradedIsoCheck:
    def test_a2_shift_matching_rule(self, a2):
        v = sink_path(a2, a2.vertex_path("v"))
        f = sink_path(a2, a2.path(["f"]))
        # Ind_v(K(n)) matches Ind_f(K(m)) exactly when n = m + 1
        yes = graded_iso_check(a2, QQ, InducedSpec(v, TrivialCoeff(1)), InducedSpec(f, TrivialCoeff(0)))
        assert yes.isomorphic and yes.witness["alpha"] == 1
        no = graded_iso_check(a2, QQ, InducedSpec(v, TrivialCoeff(0)), InducedSpec(f, TrivialCoeff(0)))
        assert not no.isomorphic

    def test_r1_all_shifts_identified(self, r1):
        x = lasso(r1, r1.vertex_path("v"), ["e"])
        d = graded_iso_check(
            r1, QQ, InducedSpec(x, LaurentCoeff(0)), InducedSpec(x, LaurentCoeff(1))
        )
        assert d.isomorphic

    def test_cycle3_shifts_mod_3(self, cycle3):
        x = lasso(cycle3, cycle3.vertex_path("v1"), ["a", "b", "c"])
        pairs = {}
        for m in range(3):
            for mp in range(3):
                d = graded_iso_check(
                    cycle3,
                    QQ,
                    InducedSpec(x, LaurentCoeff(0), shift=m),
                    InducedSpec(x, LaurentCoeff(0), shift=mp),
                )
                pairs[(m, mp)] = d.isomorphic
        for m in range(3):
            for mp in range(3):
                assert pairs[(m, mp)] == ((m - mp) % 3 == 0)

    def test_distinct_orbits(self, two_loops):
        xe = lasso(two_loops, two_loops.vertex_path("u"), ["e"])
        xg = lasso(two_loops, two_loops.vertex_path("v"), ["g"])
        d = graded_iso_check(
            two_loops, QQ, InducedSpec(xe, LaurentCoeff(0)), InducedSpec(xg, LaurentCoeff(0))
        )
        assert not d.isomorphic

    def test_chen_spec_accepted(self, a2):
        v = sink_path(a2, a2.vertex_path("v"))
        f = sink_path(a2, a2.path(["f"]))
        d = graded_iso_check(a2, QQ, ChenSpec(v, shift=1), ChenSpec(f, shift=0))
        assert d.isomorphic

    def test_rotated_nvc_cycles_are_one_module(self, cycle2):
        # a.b and b.a build the same module, so they are isomorphic with no shift
        d = graded_iso_check(cycle2, QQ, NvcSpec(cycle2.path(["a", "b"])), NvcSpec(cycle2.path(["b", "a"])))
        assert d.isomorphic and d.witness["alpha"] == 0

    def test_nongraded_coeffs_rejected(self, r1):
        x = lasso(r1, r1.vertex_path("v"), ["e"])
        with pytest.raises(ModuleSpecError):
            graded_iso_check(
                r1, QQ, InducedSpec(x, ScalarAction(QQ.coerce(2))), InducedSpec(x, LaurentCoeff(0))
            )


class TestSimplicityProbe:
    def test_a2_simple(self, a2):
        res = simplicity_probe(a2, QQ, ChenSpec(sink_path(a2, a2.vertex_path("v"))))
        assert res.verdict == "simple"

    def test_toeplitz_ext_simple(self, toeplitz):
        res = simplicity_probe(toeplitz, F2, ChenExtSpec(toeplitz.path(["e"]), parse_poly("t+1", F2)))
        assert res.verdict == "simple"

    def test_r1_laurent_graded_simple_not_simple(self, r1):
        x = lasso(r1, r1.vertex_path("v"), ["e"])
        res = simplicity_probe(r1, QQ, InducedSpec(x, LaurentCoeff(0)))
        assert res.verdict == "graded-simple-not-simple"
        assert "(e)^inf@1" in res.witness["kernel_vector"]

    @pytest.mark.parametrize("bound,mono_len", [(-1, 2), (4, -1)])
    def test_negative_sizes_rejected(self, r1, bound, mono_len):
        # As in check_module_iso; the Laurent probe once read bound -1 as an
        # empty window and mono_len -1 as a closure that checks nothing.
        x = lasso(r1, r1.vertex_path("v"), ["e"])
        with pytest.raises(ModuleSpecError, match="nonnegative"):
            simplicity_probe(r1, QQ, InducedSpec(x, LaurentCoeff(0)), bound=bound, mono_len=mono_len)

    def test_infinite_chen_inconclusive(self, toeplitz):
        res = simplicity_probe(toeplitz, QQ, ChenSpec(sink_path(toeplitz, toeplitz.vertex_path("v"))))
        assert res.verdict == "inconclusive"


class TestCertificateShape:
    def test_json_schema(self, a2):
        cert = verify_triv_iso(a2, QQ, sink_path(a2, a2.vertex_path("v")))
        data = cert.to_json_dict()
        assert set(data) == {"claim", "window", "checks", "pass", "counterexample"}
        assert all(set(c) == {"name", "passed", "detail"} for c in data["checks"])

    @pytest.mark.parametrize("bound,mono_len", [(-2, 2), (2, -2)])
    def test_negative_sizes_rejected(self, a2, r1, bound, mono_len):
        with pytest.raises(ModuleSpecError):
            verify_triv_iso(a2, QQ, sink_path(a2, a2.vertex_path("v")), bound=bound, mono_len=mono_len)
        with pytest.raises(ModuleSpecError):
            verify_twist_iso(r1, QQ, r1.path(["e"]), ScalarAction(QQ.coerce(2)), bound=bound, mono_len=mono_len)
        with pytest.raises(ModuleSpecError):
            verify_nvc_iso(r1, QQ, r1.path(["e"]), bound=bound, mono_len=mono_len)


@pytest.mark.parametrize("field_text", EXTENSION_FIELDS)
class TestExtensionFieldAsGroundField:
    """K[t]/(f) given as the ground field is a field like any other: no module
    extends its scalars unless its own spec asks for it."""

    def test_trivial_induced_module_is_schur_simple(self, a2, field_text):
        K = parse_field(field_text)
        M = build_module(a2, K, InducedSpec(sink_path(a2, a2.vertex_path("v")), TrivialCoeff(0)))
        assert len(M.enumerate_basis().elements) == 2  # the orbit {v, f}
        assert len(intertwiner_space(M, M)) == 1

    def test_triv_iso_with_twist(self, a2, field_text):
        K = parse_field(field_text)
        twist = TwistVector.make(a2, K, {"f": K.parse("(t)")})
        assert verify_triv_iso(a2, K, sink_path(a2, a2.vertex_path("v")), twist=twist).passed

    def test_twist_iso_with_scalar(self, r1, field_text):
        K = parse_field(field_text)
        cert = verify_twist_iso(r1, K, r1.path(["e"]), ScalarAction(K.parse("(t)")))
        assert cert.passed and cert.window["basis"] == 1

    def test_res_ind_with_scalar_action(self, r1, field_text):
        K = parse_field(field_text)
        x = lasso(r1, r1.vertex_path("v"), ["e"])
        assert verify_res_ind(r1, K, InducedSpec(x, ScalarAction(K.parse("(t)")))).passed


def test_relations_builds_the_monomial_list_once():
    graph = Graph(*FIXTURE_GRAPHS["rose2"])
    assert verify.verify_relations(graph, PrimeField(5), seed=0, triples=50).passed
    build = all_monomials.__wrapped__
    assert [key for key in graph._derived if key[0] is build] == [(build, 2)]


class TestPiConsistency:
    def test_wrong_product_is_reported_at_its_pair(self, monkeypatch, rose2):
        monos = all_monomials(rose2, 2)
        i, j = 17, 40
        m1, m2 = monos[i], monos[j]
        real = LeavittAlgebra.mono_mul

        def wrong(self, a, b):
            prod = real(self, a, b)
            if (a, b) != (m1, m2):
                return prod
            return a if prod is None else None

        monkeypatch.setattr(LeavittAlgebra, "mono_mul", wrong)
        cert = verify_pi_consistency(rose2, QQ, max_len=2)
        assert not cert.passed
        assert cert.checks == [{"name": "exhaustive-pairs", "passed": False, "detail": f"{m1} times {m2}"}]
        assert cert.window["pairs"] == i * len(monos) + j + 1

    @given(g=small_graphs(), max_len=st.integers(0, 2))
    @settings(max_examples=60, deadline=None)
    def test_small_graphs_pass_on_every_pair(self, g, max_len):
        # mu.nu* needs r(mu) = r(nu): count the paths of length <= max_len by range
        ending = {v: 1 for v in g.vertices}
        by_range = dict(ending)
        for _ in range(max_len):
            ending = {v: sum(ending[e.src] for e in g.in_edges(v)) for v in g.vertices}
            by_range = {v: by_range[v] + ending[v] for v in g.vertices}
        monos = sum(n * n for n in by_range.values())
        assume(monos <= 400)
        cert = verify_pi_consistency(g, QQ, max_len=max_len)
        assert cert.passed
        assert cert.window == {"max_len": max_len, "monomials": monos, "pairs": monos**2}
