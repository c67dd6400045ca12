import random
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fixture_graphs import FIXTURE_GRAPHS
from leavitt.algebra import LeavittAlgebra, random_element
from leavitt.fields import QQ, ExtensionField, FieldError, PrimeField, RationalField, parse_field, parse_poly
from leavitt.graphs import Graph, cycle_tail, elementary_cycles, enumerate_paths_ending_at, lasso, sink_path, tail_lags
from leavitt.reps import (
    ChenExtSpec,
    ChenSpec,
    InducedModule,
    InducedSpec,
    LaurentCoeff,
    ModuleSpecError,
    NvcSpec,
    QuotientCoeff,
    ScalarAction,
    TrivialCoeff,
    build_module,
)
from leavitt.textform import (
    ParseError,
    _terms,
    parse_boundary_path,
    parse_element,
    parse_module_spec,
    parse_nspec,
    parse_twist,
    parse_vector,
)
from strategies import path_element, small_graphs

F2 = PrimeField(2)


class TestBoundaryPaths:
    def test_finite(self, a2):
        assert str(parse_boundary_path(a2, "v")) == "v"
        assert str(parse_boundary_path(a2, "f")) == "f"

    def test_lasso_forms(self, toeplitz):
        assert str(parse_boundary_path(toeplitz, "(e)^inf")) == "(e)^inf"
        x = parse_boundary_path(toeplitz, "e.e.(e)^inf")
        assert str(x) == "(e)^inf"  # prefix absorbed

    def test_lasso_with_prefix(self, lasso_graph):
        x = parse_boundary_path(lasso_graph, "f.(e)^inf")
        assert str(x) == "f.(e)^inf"

    def test_rotation_roundtrip(self, cycle3):
        for text in ("(a.b.c)^inf", "(b.c.a)^inf", "(c.a.b)^inf"):
            assert str(parse_boundary_path(cycle3, text)) == text

    def test_non_sink_finite_rejected(self, toeplitz):
        with pytest.raises(ParseError, match="not a boundary path"):
            parse_boundary_path(toeplitz, "e")


class TestElements:
    def test_vertex(self, a2):
        A = LeavittAlgebra(a2, QQ)
        assert parse_element(A, "v") == A.vertex("v")

    def test_double_edge(self, r1):
        A = LeavittAlgebra(r1, QQ)
        assert parse_element(A, "2 e.e") == path_element(A, r1.path(["e", "e"])).scale(2)

    def test_ghost_monomial(self, a2):
        A = LeavittAlgebra(a2, QQ)
        x = parse_element(A, "1/3 f v^")
        assert x == A.edge("f").scale(QQ.parse("1/3"))  # f.v* = f

    def test_ghost_only(self, a2):
        A = LeavittAlgebra(a2, QQ)
        assert parse_element(A, "f^*") == A.ghost("f")
        assert parse_element(A, "f^") == A.ghost("f")

    def test_star_separator(self, a2):
        A = LeavittAlgebra(a2, QQ)
        assert parse_element(A, "2 f*v^") == parse_element(A, "2 f v^")

    def test_sums_and_differences(self, r1):
        A = LeavittAlgebra(r1, QQ)
        x = parse_element(A, "e + e^ - 2 v")
        assert x == A.edge("e") + A.ghost("e") - A.vertex("v").scale(2)

    def test_extension_coefficients(self, r1):
        K = ExtensionField(F2, parse_poly("t^2+t+1", F2))
        A = LeavittAlgebra(r1, K)
        x = parse_element(A, "(t+1) e")
        assert x == A.edge("e").scale(K.parse("(t+1)"))

    def test_extension_coefficient_with_spaces(self, r1):
        K = ExtensionField(F2, parse_poly("t^2+t+1", F2))
        A = LeavittAlgebra(r1, K)
        assert parse_element(A, "(t + 1) e") == parse_element(A, "(t+1) e")
        assert parse_element(A, "e - ( t ) e^") == A.edge("e") - A.ghost("e").scale(K.parse("(t)"))

    def test_unknown_name(self, a2):
        A = LeavittAlgebra(a2, QQ)
        with pytest.raises(ParseError):
            parse_element(A, "q")

    def test_parse_time_does_not_grow_with_the_edge_count(self):
        """Each term's scalar test looks its token up, not every edge name."""
        n = 20_000
        graph = Graph([f"v{i}" for i in range(n)], [(f"e{i}", f"v{i}", f"v{(i + 1) % n}") for i in range(n)])
        A = LeavittAlgebra(graph, QQ)
        text = " + ".join(f"2 e{i}" for i in range(200))
        start = time.perf_counter()
        x = parse_element(A, text)
        assert time.perf_counter() - start < 0.1
        assert len(x.terms) == 200

    def test_range_mismatch(self, a2):
        A = LeavittAlgebra(a2, QQ)
        with pytest.raises(ParseError, match="ranges differ"):
            parse_element(A, "f u^")

    @pytest.mark.parametrize("gname", ["a2", "r1", "toeplitz", "rose2"])
    @pytest.mark.parametrize("field", [QQ, F2], ids=["Q", "F2"])
    def test_print_parse_roundtrip(self, gname, field, request):
        graph = request.getfixturevalue(gname)
        A = LeavittAlgebra(graph, field)
        rng = random.Random(42)
        for _ in range(40):
            x = random_element(A, rng, max_len=3, max_terms=3)
            if x.is_zero:
                continue
            assert parse_element(A, str(x)).terms == x.terms


class TestVectors:
    def test_chen_vector(self, a2):
        M = build_module(a2, QQ, ChenSpec(sink_path(a2, a2.vertex_path("v"))))
        v = parse_vector(M, "2 v + f")
        assert str(v) == "2 v + f"

    def test_chen_ext_tensor_index(self, toeplitz):
        M = build_module(toeplitz, F2, ChenExtSpec(toeplitz.path(["e"]), parse_poly("t^2+t+1", F2)))
        v = parse_vector(M, "(e)^inf + (e)^inf#1")
        assert len(v.terms) == 2
        assert str(v) == "(e)^inf + (e)^inf#1"

    @pytest.mark.parametrize("field_text", ["Q[t]/(t^2-2)", "F2[t]/(t^2+t+1)"])
    def test_extension_ground_field_has_no_tensor_index(self, r1, field_text):
        K = parse_field(field_text)
        M = build_module(r1, K, parse_module_spec(r1, K, "chen:(e)^inf"))
        with pytest.raises(ParseError):
            parse_vector(M, "(e)^inf#1")

    def test_nvc_vector(self, r1):
        M = build_module(r1, QQ, NvcSpec(r1.path(["e"])))
        v = parse_vector(M, "e.e + v e.e^ + 3 v")
        assert str(v) == "3 v + v e.e^ + e.e"
        # e.e e^ = e in L(r1): not a normal monomial, so not a basis literal
        with pytest.raises(ParseError, match=r"e\.e e\^ is not in normal form"):
            parse_vector(M, "e.e e^ + 3 v")

    @pytest.mark.parametrize("text", ["e^", "e^ v", "v e^", "v e^*", "v*e^"])
    def test_nvc_vector_reads_a_monomial_as_elements_do(self, r1, text):
        M = build_module(r1, QQ, NvcSpec(r1.path(["e"])))
        assert str(parse_vector(M, text)) == "v e^"

    def test_extension_coefficient_with_spaces(self, r1):
        K = parse_field("F2[t]/(t^2+t+1)")
        M = build_module(r1, K, parse_module_spec(r1, K, "chen:(e)^inf"))
        v = parse_vector(M, "(t + 1) (e)^inf")
        assert v == parse_vector(M, "(t+1) (e)^inf")
        assert str(v) == "(t+1) (e)^inf"

    def test_induced_vector(self, r1):
        x = lasso(r1, r1.vertex_path("v"), ["e"])
        M = build_module(r1, QQ, InducedSpec(x, LaurentCoeff(0)))
        v = parse_vector(M, "(e)^inf@1 - (e)^inf@0")
        assert str(v) == "-1 (e)^inf@0 + (e)^inf@1"

    @pytest.mark.parametrize("coeff", ["Ka(2)", "quot(t-3)"])
    def test_induced_vector_takes_only_the_canonical_lag(self, r1, coeff):
        M = build_module(r1, QQ, parse_module_spec(r1, QQ, f"ind:(e)^inf:{coeff}"))
        # (e)^inf@1 is 2 (e)^inf@0 (resp. 3 (e)^inf@0) in M, not a second basis element
        with pytest.raises(ParseError, match="canonical lag 0$"):
            parse_vector(M, "(e)^inf@1 - 2 (e)^inf@0")
        assert str(parse_vector(M, "(e)^inf@0")) == "(e)^inf@0"

    def test_vector_roundtrip(self, lasso_graph):
        x = lasso(lasso_graph, lasso_graph.vertex_path("v"), ["e"])
        M = build_module(lasso_graph, QQ, InducedSpec(x, ScalarAction(QQ.coerce(2))))
        for text in ("(e)^inf@0", "f.(e)^inf@1", "1/2 (e)^inf@0 + -2 f.(e)^inf@1"):
            v = parse_vector(M, text)
            assert parse_vector(M, str(v)) == v


F3 = PrimeField(3)


def _modules(graph: Graph) -> list:
    """A module of each kind over F3 at the sinks and the first cycles of ``graph``."""
    f = parse_poly("t^2+1", F3)
    specs = []
    for v in graph.sinks:
        for p in enumerate_paths_ending_at(graph, v, bound=1).paths:
            x = sink_path(graph, p)
            specs += [ChenSpec(x), InducedSpec(x, TrivialCoeff(1))]
    for c in elementary_cycles(graph)[:3]:
        x = cycle_tail(graph, c)
        specs += [ChenSpec(x), ChenExtSpec(c, f), NvcSpec(c), InducedSpec(x, LaurentCoeff(1)),
                  InducedSpec(x, ScalarAction(2)), InducedSpec(x, QuotientCoeff(f))]
    out = []
    for spec in specs:
        try:
            out.append(build_module(graph, F3, spec))
        except ModuleSpecError:  # a no-exit-cycle module at a cycle with an exit
            pass
    return out


def check_parser_against_action(graph: Graph) -> None:
    """Each basis literal prints and parses back to itself, and every other
    literal y@k of an induced module is either rejected or parses to a
    vector that the unit fixes: one that names the element it stands for."""
    for M in _modules(graph):
        basis = M.enumerate_basis(2).elements
        for b in basis:
            v = M.vector({b: 1})
            assert parse_vector(M, str(v)) == v, (M.spec, str(v))
        if not isinstance(M, InducedModule):
            continue
        one = M.algebra().one()
        for y in dict.fromkeys(b.path for b in basis):
            lags = tail_lags(y, M.spec.base)
            for k in range(-3, 4):
                if not lags.contains(k):
                    continue
                try:
                    v = parse_vector(M, f"{y}@{k}")
                except ParseError:
                    continue
                assert M.act(one, v) == v, (M.spec, f"{y}@{k}", str(M.act(one, v)))


class TestParserAgainstAction:
    @pytest.mark.parametrize("name", sorted(FIXTURE_GRAPHS))
    def test_fixture_modules(self, name):
        check_parser_against_action(Graph(*FIXTURE_GRAPHS[name]))

    @given(graph=small_graphs())
    @settings(max_examples=40, deadline=None)
    def test_small_graphs(self, graph):
        check_parser_against_action(graph)


class TestSpecs:
    def test_chen(self, a2):
        spec = parse_module_spec(a2, QQ, "chen:v")
        assert isinstance(spec, ChenSpec)

    def test_chenext(self, toeplitz):
        spec = parse_module_spec(toeplitz, F2, "chenext:e:t^2+t+1")
        assert isinstance(spec, ChenExtSpec)
        assert str(spec.modulus) == "t^2+t+1"

    def test_chenext_rejects_t(self, toeplitz):
        with pytest.raises(Exception):
            parse_module_spec(toeplitz, F2, "chenext:e:t")

    def test_nvc(self, r1):
        assert isinstance(parse_module_spec(r1, QQ, "nvc:e"), NvcSpec)

    def test_induced_variants(self, r1):
        assert parse_nspec(QQ, "K") == TrivialCoeff(0)
        assert parse_nspec(QQ, "K(2)") == TrivialCoeff(2)
        assert parse_nspec(QQ, "Ka(3)") == ScalarAction(QQ.coerce(3))
        assert isinstance(parse_nspec(QQ, "quot(t-2)"), QuotientCoeff)
        assert parse_nspec(QQ, "laurent(1)") == LaurentCoeff(1)
        spec = parse_module_spec(r1, QQ, "ind:(e)^inf:laurent(0)")
        assert isinstance(spec, InducedSpec)

    def test_twist(self, rose2):
        tw = parse_twist(rose2, QQ, "e=3, g=1/2")
        assert tw.value("e") == 3
        assert tw.value("g") == QQ.parse("1/2")

    def test_bad_spec(self, a2):
        with pytest.raises(ParseError):
            parse_module_spec(a2, QQ, "wat:v")


def _split_terms(text: str) -> list[tuple[int, str]]:
    """Oracle: the term splitter that ``_terms`` replaced, unchanged."""
    s = text.strip()
    if not s:
        raise ParseError("empty expression")
    terms = []
    depth = 0
    sign = 1
    buf = ""
    i = 0
    while i < len(s):
        ch = s[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if depth == 0 and ch in "+-" and i > 0 and s[i - 1] == " " and i + 1 < len(s) and s[i + 1] == " ":
            terms.append((sign, buf.strip()))
            sign = 1 if ch == "+" else -1
            buf = ""
            i += 2
            continue
        buf += ch
        i += 1
    terms.append((sign, buf.strip()))
    if any(not t for _, t in terms):
        raise ParseError(f"empty term in {text!r}")
    return terms


def _normalize_ghosts(term: str) -> str:
    """Oracle: the ghost-mark rewriter that ``_terms`` replaced, unchanged."""
    out = []
    depth = 0
    i = 0
    while i < len(term):
        ch = term[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "^" and depth == 0 and i + 1 < len(term) and term[i + 1] == "*":
            out.append("^")
            i += 2
            continue
        if ch == "*" and depth == 0:
            out.append(" ")
            i += 1
            continue
        out.append(ch)
        i += 1
    return "".join(out)


def _oracle_terms(text: str) -> list[tuple[int, list[str]]]:
    """(sign, tokens) per term from the three scanners ``_terms`` replaced:
    the term splitter, the ghost rewriter and a whitespace split."""
    out = []
    for sign, raw in _split_terms(text):
        tokens = _normalize_ghosts(raw).split()
        if not tokens:
            raise ParseError(f"empty term in {text!r}")
        out.append((sign, tokens))
    return out


def _space_inside_parentheses(text: str) -> bool:
    depth = 0
    for ch in text:
        depth += (ch == "(") - (ch == ")")
        if depth and ch.isspace():
            return True
    return False


class _NoScalars(RationalField):
    """A field in which no token is a scalar, so ``_terms`` returns the
    scanner's signs and tokens alone."""

    def parse(self, text: str):
        raise FieldError(f"no scalars, got {text!r}")


class TestScanner:
    """The one scanner ``_terms`` against the three scanners it replaced. They
    differ only on whitespace inside parentheses, which now stays in its token."""

    @given(text=st.text(alphabet="ev^*()+- 12@#.\t", max_size=24))
    @settings(max_examples=500, deadline=None)
    def test_matches_the_replaced_scanners(self, text):
        assume(not _space_inside_parentheses(text))
        r1 = Graph(["v"], [("e", "v", "v")])
        try:
            expected = _oracle_terms(text)
        except ParseError:
            with pytest.raises(ParseError):
                _terms(r1, _NoScalars(), text)
            return
        assert [(int(coef), tokens) for coef, tokens, _ in _terms(r1, _NoScalars(), text)] == expected

    @pytest.mark.parametrize(
        "field_text,text,expected",
        [
            ("F2[t]/(t^2+t+1)", "(t + 1) e", [("(t+1)", ["e"], "(t + 1) e")]),
            ("F2[t]/(t^2+t+1)", "e - ( t )*e^", [("1", ["e"], "e"), ("(t)", ["e^"], "( t )*e^")]),
            ("Q", "2 e.e^* - 1/3 e*e^", [("2", ["e.e^"], "2 e.e^*"), ("-1/3", ["e", "e^"], "1/3 e*e^")]),
            ("Q", "e + (1 - 2) e", [("1", ["e"], "e"), ("1", ["(1 - 2)", "e"], "(1 - 2) e")]),
        ],
    )
    def test_parenthesised_token_keeps_its_spaces(self, field_text, text, expected):
        r1 = Graph(["v"], [("e", "v", "v")])
        field = parse_field(field_text)
        assert _terms(r1, field, text) == [(field.parse(c), tokens, raw) for c, tokens, raw in expected]
