"""Text forms for paths, algebra elements, module vectors and module specs.

Grammar summary (documented in the README):

* finite path: a vertex name, or dot-separated edge names ``e.f``;
* boundary path: a finite path into a sink, or ``prefix.(c1.c2)^inf``;
* algebra element: terms joined by `` + `` / `` - ``; a term is
  ``[coef] [mu] [nu^]`` where the ghost part carries a trailing ``^``
  (``^*`` and a ``*`` separator are accepted on input), e.g.
  ``2 e.f v^ + 1/3 u`` or ``f^*``;
* module vectors: ``[coef] BASIS`` terms, where a basis literal is a
  boundary path (``#j`` tensor index), a monomial (no-exit-cycle
  modules), or ``bpath@lag[#j]`` for induced modules, where ``Ka(a)``
  and ``quot(f)`` coefficients take only the canonical lag;
* module specs: ``chen:BPATH``, ``chenext:CYCLE:POLY``, ``nvc:CYCLE``,
  ``ind:BPATH:NSPEC`` with NSPEC one of ``K``, ``K(n)``, ``Ka(a)``,
  ``quot(f)``, ``laurent(m)``.

Printing always emits the canonical form; print-then-parse is exact.
"""

from __future__ import annotations

import re

from .algebra import AlgebraElement, LeavittAlgebra, Monomial, TwistVector, monomial
from .fields import Field, FieldError, parse_poly
from .graphs import BoundaryPath, FinitePath, Graph, GraphError, lasso, sink_path, tail_lags
from .linalg import add_term
from .reps import (
    ChenBasis,
    ChenExtSpec,
    ChenSpec,
    CosetBasis,
    InducedModule,
    InducedSpec,
    LaurentCoeff,
    Module,
    ModuleSpec,
    ModuleVector,
    NvcBasis,
    NvcModule,
    NvcSpec,
    QuotientCoeff,
    ScalarAction,
    TrivialCoeff,
)


class ParseError(ValueError):
    """Malformed textual input."""


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"{what} must be an integer, got {text!r}") from None


# ---------------------------------------------------------------------------
# Paths


def parse_finite_path(graph: Graph, text: str) -> FinitePath:
    text = text.strip()
    if not text:
        raise ParseError("empty path")
    if graph.is_vertex(text):
        return graph.vertex_path(text)
    names = text.split(".")
    try:
        return graph.path(names)
    except GraphError as exc:
        raise ParseError(str(exc)) from exc


_LASSO_RE = re.compile(r"^(?:(?P<prefix>[\w.]+)\.)?\((?P<cycle>[\w.]+)\)\^inf$")


def parse_boundary_path(graph: Graph, text: str) -> BoundaryPath:
    text = text.strip()
    m = _LASSO_RE.match(text)
    if m:
        cycle_names = m.group("cycle").split(".")
        try:
            cycle = graph.path(cycle_names)
            if m.group("prefix"):
                prefix = parse_finite_path(graph, m.group("prefix"))
            else:
                prefix = graph.vertex_path(cycle.src)
            return lasso(graph, prefix, cycle_names)
        except GraphError as exc:
            raise ParseError(str(exc)) from exc
    p = parse_finite_path(graph, text)
    try:
        return sink_path(graph, p)
    except GraphError as exc:
        raise ParseError(
            f"{text!r} is not a boundary path: {exc}; infinite paths use '(c)^inf'"
        ) from exc


# ---------------------------------------------------------------------------
# Term splitting helpers


def _split_terms(text: str) -> list[tuple[int, str]]:
    """Split on top-level ' + ' / ' - ', returning (sign, term) pairs."""
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
    """'^*' -> '^'; a '*' separator between paths becomes a space."""
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


def _is_scalar_token(graph: Graph, field: Field, token: str) -> bool:
    if graph.is_vertex(token) or graph.is_edge(token):
        return False
    try:
        field.parse(token)
        return True
    except FieldError:
        return False


# ---------------------------------------------------------------------------
# Algebra elements


def parse_element(algebra: LeavittAlgebra, text: str) -> AlgebraElement:
    graph, field = algebra.graph, algebra.field
    terms: dict[Monomial, object] = {}
    for sign, raw in _split_terms(text):
        body = _normalize_ghosts(raw)
        tokens = body.split()
        if not tokens:
            raise ParseError(f"empty term in {text!r}")
        coef = field.one()
        if _is_scalar_token(graph, field, tokens[0]):
            coef = field.parse(tokens[0])
            tokens = tokens[1:]
        mu = nu = None
        for tok in tokens:
            if tok.endswith("^"):
                if nu is not None:
                    raise ParseError(f"two ghost parts in term {raw!r}")
                nu = parse_finite_path(graph, tok[:-1])
            else:
                if mu is not None:
                    raise ParseError(f"two path parts in term {raw!r}")
                mu = parse_finite_path(graph, tok)
        if mu is None and nu is None:
            raise ParseError(f"term {raw!r} has no path")
        if mu is None:
            mu = graph.vertex_path(nu.rng)
        if nu is None:
            nu = graph.vertex_path(mu.rng)
        if mu.rng != nu.rng:
            raise ParseError(f"ranges differ in term {raw!r}: {mu.rng} vs {nu.rng}")
        if sign < 0:
            coef = field.neg(coef)
        add_term(field, terms, monomial(mu, nu), coef)
    return algebra.element(terms)


# ---------------------------------------------------------------------------
# Module vectors


def _parse_basis_token(module: Module, token: str, rest: list[str]):
    graph = module.graph
    if isinstance(module, NvcModule):
        mu = parse_finite_path(graph, token)
        nu = graph.vertex_path(mu.rng)
        if rest:
            ghost = rest.pop(0)
            if not ghost.endswith("^"):
                raise ParseError(f"expected a ghost path, got {ghost!r}")
            nu = parse_finite_path(graph, ghost[:-1])
        if nu.src != module.base_vertex:
            raise ParseError(f"{nu}^ does not start at the cycle's base vertex {module.base_vertex}")
        m = monomial(mu, nu)
        if not module.algebra().is_normal(m):
            raise ParseError(f"{m} is not in normal form, so it is not a basis monomial")
        return NvcBasis(m)
    power = 0
    if "#" in token:
        token, ptext = token.rsplit("#", 1)
        power = _parse_int(ptext, "tensor index")
    if not 0 <= power < module.tensor_degree:
        raise ParseError(f"tensor index {power} is outside 0..{module.tensor_degree - 1}")
    if isinstance(module, InducedModule):
        if "@" not in token:
            raise ParseError(f"induced-module basis literals look like 'path@lag', got {token!r}")
        ptext, ltext = token.rsplit("@", 1)
        y, lag = parse_boundary_path(graph, ptext), _parse_int(ltext, "lag")
        if not tail_lags(y, module.spec.base).contains(lag):
            raise ParseError(f"{y} is not tail-equivalent to {module.spec.base} with lag {lag}")
        # without a grading the isotropy powers live in the coefficient, so
        # each coset has one literal: the one the module prints
        if not module.gradable and lag != (k := module.canonical_lag(y)):
            raise ParseError(f"{y}@{lag}: scalar-action and quotient coefficients take only the canonical lag {k}")
        return CosetBasis(y, lag, power)
    return ChenBasis(parse_boundary_path(graph, token), power)


def parse_vector(module: Module, text: str) -> ModuleVector:
    field = module.field
    out: dict = {}
    for sign, raw in _split_terms(text):
        body = _normalize_ghosts(raw)
        tokens = body.split()
        coef = field.one()
        if tokens and _is_scalar_token(module.graph, field, tokens[0].split("@")[0].split("#")[0]):
            coef = field.parse(tokens[0])
            tokens = tokens[1:]
        if not tokens:
            raise ParseError(f"term {raw!r} has no basis element")
        rest = tokens[1:]
        b = _parse_basis_token(module, tokens[0], rest)
        if rest:
            raise ParseError(f"unexpected tokens in term {raw!r}")
        if sign < 0:
            coef = field.neg(coef)
        add_term(field, out, b, coef)
    return module.vector(out)


# ---------------------------------------------------------------------------
# Twists and module specs


def parse_twist(graph: Graph, field: Field, text: str) -> TwistVector:
    values = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ParseError(f"twist entries look like 'edge=value', got {part!r}")
        name, value = part.split("=", 1)
        values[name.strip()] = field.parse(value.strip())
    return TwistVector.make(graph, field, values)


_NSPEC_RE = re.compile(r"^(?P<head>K|Ka|quot|laurent)(?:\((?P<arg>.*)\))?$")


def parse_nspec(field: Field, text: str):
    m = _NSPEC_RE.match(text.strip())
    if not m:
        raise ParseError(f"bad coefficient spec {text!r}")
    head, arg = m.group("head"), m.group("arg")
    if head == "K":
        return TrivialCoeff(_parse_int(arg, "shift") if arg else 0)
    if arg is None:
        raise ParseError(f"coefficient spec {text!r} needs an argument")
    if head == "Ka":
        return ScalarAction(field.parse(arg))
    if head == "quot":
        return QuotientCoeff(parse_poly(arg, field))
    return LaurentCoeff(_parse_int(arg, "shift"))


def parse_module_spec(graph: Graph, field: Field, text: str, twist: TwistVector | None = None, shift: int = 0) -> ModuleSpec:
    parts = text.strip().split(":")
    kind = parts[0]
    if twist is not None and kind != "chen":
        raise ParseError(f"a twist applies to chen modules only, not to {kind!r}")
    if kind == "chen":
        if len(parts) != 2:
            raise ParseError("chen specs look like 'chen:BPATH'")
        return ChenSpec(parse_boundary_path(graph, parts[1]), twist, shift)
    if kind == "chenext":
        if len(parts) != 3:
            raise ParseError("scalar-extension specs look like 'chenext:CYCLE:POLY'")
        cycle = parse_finite_path(graph, parts[1])
        return ChenExtSpec(cycle, parse_poly(parts[2], field), shift)
    if kind == "nvc":
        if len(parts) != 2:
            raise ParseError("no-exit-cycle specs look like 'nvc:CYCLE'")
        return NvcSpec(parse_finite_path(graph, parts[1]), shift)
    if kind == "ind":
        if len(parts) != 3:
            raise ParseError("induced specs look like 'ind:BPATH:NSPEC'")
        return InducedSpec(parse_boundary_path(graph, parts[1]), parse_nspec(field, parts[2]), shift)
    raise ParseError(f"unknown module kind {kind!r} (chen, chenext, nvc, ind)")
