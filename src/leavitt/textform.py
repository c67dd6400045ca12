"""Text forms for paths, algebra elements, module vectors and module specs.

Grammar summary (documented in the README):

* finite path: a vertex name, or dot-separated edge names ``e.f``;
* boundary path: a finite path into a sink, or ``prefix.(c1.c2)^inf``;
* algebra element: terms joined by `` + `` / `` - ``; a term is
  ``[coef] [mu] [nu^]`` where the ghost part carries a trailing ``^``
  (``^*`` and a ``*`` separator are accepted on input), e.g.
  ``2 e.f v^ + 1/3 u`` or ``f^*``; a parenthesised coefficient such as
  ``(t + 1)`` may contain spaces;
* module vectors: ``[coef] BASIS`` terms, where a basis literal is a
  boundary path (``#j`` tensor index), a monomial ``[mu] [nu^]`` read as
  in elements (no-exit-cycle modules), or ``bpath@lag[#j]`` for induced
  modules, where ``Ka(a)`` and ``quot(f)`` coefficients take only the
  canonical lag;
* twists: ``edge=value`` entries joined by commas, each edge named at
  most once;
* module specs: ``chen:BPATH``, ``chenext:CYCLE:POLY``, ``nvc:CYCLE``,
  ``ind:BPATH:NSPEC`` with NSPEC one of ``K``, ``K(n)``, ``Ka(a)``,
  ``quot(f)``, ``laurent(m)``; an integer past the interpreter's digit
  limit is an error quoting its first 20 digits.

One scanner, ``_terms``, reads the characters of element and vector
literals; ``_monomial`` reads the ``[mu] [nu^]`` of an element term and of
a no-exit-cycle basis literal.  Printing always emits the canonical form;
print-then-parse is exact.
"""

from __future__ import annotations

import re

from .algebra import AlgebraElement, LeavittAlgebra, Monomial, TwistVector, monomial
from .fields import Field, FieldError, parse_poly
from .graphs import BoundaryPath, FinitePath, Graph, GraphError, _quote, lasso, sink_path, tail_lags
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
        if re.fullmatch(r"\s*[+-]?\d+\s*", text):  # past the interpreter's string-to-integer digit limit
            raise ParseError(f"{what} {text.strip()[:20]}... is too long") from None
        raise ParseError(f"{what} must be an integer, got {_quote(text)}") from None


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
# Terms of element and vector literals

# A term break ' + ' / ' - ', a ghost mark '^*', a token break (whitespace or
# a '*' separator), a parenthesis, or a run of other characters.
_PIECE_RE = re.compile(r"(?P<sep>(?<= )[+-](?= ))|(?P<ghost>\^\*)|(?P<gap>[\s*])|(?P<open>\()|(?P<close>\))|[^()\s*^]+|\^")


def _terms(graph: Graph, field: Field, text: str) -> list[tuple[object, list[str], str]]:
    """(signed coefficient, tokens, raw text) per term of an element or vector
    literal.  Outside parentheses ' + ' and ' - ' end a term, whitespace and a
    '*' separator end a token, and '^*' reads as '^'; inside them every
    character belongs to its token.  A leading token that is a scalar and no
    vertex or edge name is the term's coefficient, read once."""
    s = text.strip()
    split, tokens, token, sign, depth, start = [], [], "", 1, 0, 0
    for m in _PIECE_RE.finditer(s):
        kind = m.lastgroup
        depth += (kind == "open") - (kind == "close")
        if depth or kind not in ("sep", "ghost", "gap"):
            token += m.group()
            continue
        if kind == "ghost":
            token += "^"
            continue
        if token:
            tokens.append(token)
            token = ""
        if kind == "sep":
            split.append((sign, tokens, s[start : m.start()]))
            tokens, sign, start = [], 1 if m.group() == "+" else -1, m.end()
    split.append((sign, tokens + [token] if token else tokens, s[start:]))
    out = []
    for sign, tokens, raw in split:
        if not tokens:
            raise ParseError(f"empty term in {_quote(text)}")
        coef, lead = field.one(), tokens[0]
        if not (graph.is_vertex(lead) or graph.is_edge(lead)):
            try:
                coef, tokens = field.parse(lead), tokens[1:]
            except FieldError:  # no scalar: the term has no coefficient
                pass
        out.append((coef if sign > 0 else field.neg(coef), tokens, raw.strip()))
    return out


def _monomial(graph: Graph, tokens: list[str], raw: str) -> Monomial:
    """The monomial ``[mu] [nu^]`` that a term's path tokens name."""
    mu = nu = None
    for tok in tokens:
        if tok.endswith("^"):
            if nu is not None:
                raise ParseError(f"two ghost parts in term {_quote(raw)}")
            nu = parse_finite_path(graph, tok[:-1])
        else:
            if mu is not None:
                raise ParseError(f"two path parts in term {_quote(raw)}")
            mu = parse_finite_path(graph, tok)
    if mu is None and nu is None:
        raise ParseError(f"term {_quote(raw)} has no path")
    if mu is None:
        mu = graph.vertex_path(nu.rng)
    if nu is None:
        nu = graph.vertex_path(mu.rng)
    if mu.rng != nu.rng:
        raise ParseError(f"ranges differ in term {_quote(raw)}: {mu.rng} vs {nu.rng}")
    return monomial(mu, nu)


# ---------------------------------------------------------------------------
# Algebra elements and module vectors


def parse_element(algebra: LeavittAlgebra, text: str) -> AlgebraElement:
    graph, field = algebra.graph, algebra.field
    terms: dict[Monomial, object] = {}
    for coef, tokens, raw in _terms(graph, field, text):
        add_term(field, terms, _monomial(graph, tokens, raw), coef)
    return algebra.element(terms)


def _parse_basis(module: Module, tokens: list[str], raw: str):
    graph = module.graph
    if isinstance(module, NvcModule):
        m = _monomial(graph, tokens, raw)
        if m.nu.src != module.base_vertex:
            raise ParseError(f"{m.nu}^ does not start at the cycle's base vertex {module.base_vertex}")
        if not module.algebra().is_normal(m):
            raise ParseError(f"{m} is not in normal form, so it is not a basis monomial")
        return NvcBasis(m)
    if not tokens:
        raise ParseError(f"term {_quote(raw)} has no basis element")
    if len(tokens) > 1:
        raise ParseError(f"unexpected tokens in term {_quote(raw)}")
    token, power = tokens[0], 0
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
    out: dict = {}
    for coef, tokens, raw in _terms(module.graph, module.field, text):
        add_term(module.field, out, _parse_basis(module, tokens, raw), coef)
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
        name, value = (x.strip() for x in part.split("=", 1))
        if name in values:
            raise ParseError(f"twist names edge {_quote(name)} twice")
        values[name] = field.parse(value)
    return TwistVector.make(graph, field, values)


_NSPEC_RE = re.compile(r"^(?P<head>K|Ka|quot|laurent)(?:\((?P<arg>.*)\))?$")


def parse_nspec(field: Field, text: str):
    m = _NSPEC_RE.match(text.strip())
    if not m:
        raise ParseError(f"bad coefficient spec {text!r}")
    head, arg = m.group("head"), m.group("arg")
    if head == "K":
        return TrivialCoeff(0 if arg is None else _parse_int(arg, "shift"))
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
