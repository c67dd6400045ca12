"""Command-line front end.

Subcommands: validate, classify, act, verify, dims.  Every command builds
a JSON-serializable result; ``--json`` prints it verbatim, otherwise a
plain table is rendered from the same data.  Output is deterministic:
canonical ordering everywhere and a fixed ``--seed`` for sampled suites.
Exit codes: 0 success, 1 verification failure, 2 input error (usage
errors included), reported as one ``error:`` line on stderr, and 141 when
the reader of stdout closes it early (128 + SIGPIPE, as a shell reports a
process that SIGPIPE ended), with no message.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .algebra import AlgebraError
from .classify import ClassificationError, classify_graded, classify_simple, dimension_oracle
from .fields import FieldError, parse_field, parse_poly
from .graphs import Graph, GraphError, validate
from .groupoid import GroupoidError
from .reps import InducedSpec, ModuleSpecError, NotGradableError, QuotientCoeff, ScalarAction, build_module
from .textform import (
    ParseError,
    parse_boundary_path,
    parse_element,
    parse_finite_path,
    parse_module_spec,
    parse_nspec,
    parse_twist,
    parse_vector,
)
from .verify import (
    RESTRICTION_CAP,
    OutOfWindowError,
    verify_nvc_iso,
    verify_pi_consistency,
    verify_relations,
    verify_res_ind,
    verify_triv_iso,
    verify_twist_iso,
)

SUITES = ("relations", "pi-consistency", "triv-iso", "twist-iso", "nvc-iso", "res-ind")


class InputError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ``InputError``, so ``main`` reports them like any other."""

    def error(self, message):
        raise InputError(message)


def _count(text: str) -> int:
    """The argparse type of the size flags: a non-negative integer."""
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return n


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``lpa`` parser, built once per process: building it costs far more
    than a parse, and each ``parse_args`` fills a fresh namespace."""
    parser = _Parser(
        prog="lpa",
        description="Exact computations with Leavitt path algebras of finite graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, handler, field=True):
        p.set_defaults(handler=handler)
        p.add_argument("graph", help="graph JSON file")
        if field:
            p.add_argument("--field", default="Q", help="Q, Fp, or K[t]/(f), default Q")
        p.add_argument("--json", action="store_true", help="emit JSON instead of a table")
        return p

    common(sub.add_parser("validate", help="check a graph file and classify its vertices"), _cmd_validate, field=False)

    p = common(sub.add_parser("classify", help="spectral simple / graded simple families"), _cmd_classify)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--graded", action="store_true")
    group.add_argument("--simple", action="store_true")
    # Each mode ignores the other's flags: rejecting them here would need
    # subcommands, which would change the `classify --graded|--simple` syntax.
    p.add_argument("--cycles-up-to", type=int, default=6, metavar="N", help="with --graded: longest closed path enumerated")
    p.add_argument("--poly-deg", type=_count, default=3, metavar="N", help="with --simple: highest modulus degree")
    p.add_argument(
        "--rational-samples",
        default="1,2,-1",
        help="with --simple: comma-separated a-values for the sampled moduli t-a over Q",
    )

    p = common(sub.add_parser("act", help="apply an algebra element to a module vector"), _cmd_act)
    p.add_argument("--module", required=True, help="chen:BPATH | chenext:CYCLE:POLY | nvc:CYCLE | ind:BPATH:NSPEC")
    p.add_argument("--elt", required=True, help="algebra element, e.g. '2 e.f v^ + 1/3 u'")
    p.add_argument("--vec", required=True, help="module vector, e.g. 'f' or '(e)^inf@0'")
    p.add_argument("--twist", default=None, help="edge=value,... (chen modules)")
    p.add_argument("--shift", type=int, default=0)

    # One parser per suite, declaring only the flags that suite reads.
    suites = sub.add_parser("verify", help="run a verification suite, emit a certificate").add_subparsers(
        dest="suite", required=True
    )
    s = {name: common(suites.add_parser(name), _cmd_verify) for name in SUITES}
    s["relations"].add_argument("--seed", type=int, default=0)
    s["relations"].add_argument("--triples", type=_count, default=200)
    for name in ("pi-consistency", "triv-iso", "twist-iso", "nvc-iso"):
        s[name].add_argument("--window", type=_count, default=4)
    for name in ("triv-iso", "twist-iso", "nvc-iso"):
        s[name].add_argument("--mono-len", type=_count, default=3)
    for name in ("triv-iso", "res-ind"):
        s[name].add_argument("--at", required=True, help="base boundary path")
    s["triv-iso"].add_argument("--twist", default=None, help="edge=value,...")
    for name in ("twist-iso", "nvc-iso"):
        s[name].add_argument("--cycle", required=True, help="cycle path")
    group = s["twist-iso"].add_mutually_exclusive_group(required=True)
    group.add_argument("--scalar", help="scalar action value")
    group.add_argument("--modulus", help="monic irreducible polynomial")
    s["res-ind"].add_argument("--coeff", required=True, help="coefficient spec, e.g. K, Ka(2), quot(t-2)")
    s["res-ind"].add_argument("--cap", type=_count, default=RESTRICTION_CAP)

    p = common(sub.add_parser("dims", help="finite-dimensional simple modules with dimensions"), _cmd_dims)
    p.add_argument("--poly-deg", type=_count, default=3, metavar="N")
    p.add_argument(
        "--rational-samples", default="1,2,-1", help="a-values for t-a moduli over Q"
    )
    return parser


# ---------------------------------------------------------------------------
# Rendering


def _emit(result: dict, as_json: bool, render) -> None:
    if as_json:
        print(json.dumps(result, indent=2, sort_keys=True))
    else:
        for line in render(result):
            print(line)


def _render_validate(result: dict):
    yield "ok" if result["ok"] else "INVALID"
    for err in result["errors"]:
        yield f"  error: {err}"
    yield "sinks:   " + (", ".join(result["sinks"]) or "(none)")
    yield "regular: " + (", ".join(result["regular"]) or "(none)")


def _render_table(rows: list[dict], columns: list[str]):
    widths = {c: max(len(c), *(len(str(r.get(c, ""))) for r in rows)) if rows else len(c) for c in columns}
    yield "  ".join(c.ljust(widths[c]) for c in columns)
    for r in rows:
        yield "  ".join(str(r.get(c, "")).ljust(widths[c]) for c in columns)


def _render_classify(result: dict):
    rows = []
    for fam in result["families"]:
        if fam["kind"] == "sink":
            dim = "infinite" if fam["dimension"] is None else fam["dimension"]
            rows.append({"family": "sink", "base": fam["vertex"], "detail": "shifts Z", "dimension": dim})
        elif fam["kind"] == "laurent":
            shifts = ",".join(str(s) for s in fam["shifts"])
            rows.append({"family": "laurent", "base": fam["cycle"], "detail": f"shifts {{{shifts}}}", "dimension": "infinite"})
        elif fam["kind"] == "irrational-classes":
            if fam["present"]:
                rows.append({"family": "irrational", "base": " & ".join(fam["witness"]), "detail": "family present", "dimension": "infinite"})
        elif fam["kind"] == "sink-simple":
            rows.append({"family": "sink-simple", "base": fam["vertex"], "detail": "", "dimension": fam["dimension"]})
        elif fam["kind"] == "cycle-simple":
            rows.append({"family": "cycle-simple", "base": fam["cycle"], "detail": fam["modulus"], "dimension": fam["dimension"]})
    yield from _render_table(rows, ["family", "base", "detail", "dimension"])
    for flag in result.get("flagged", []):
        yield f"flagged infinite-dimensional: {flag['family']} {flag['base']} ({flag['reason']})"
    yield f"complete: {result['complete']}  bounds: {json.dumps(result['bounds'], sort_keys=True)}"


def _render_act(result: dict):
    yield result["output"]


def _render_certificate(result: dict):
    yield f"claim: {result['claim']}"
    for chk in result["checks"]:
        status = "pass" if chk["passed"] else "FAIL"
        detail = f"  ({chk['detail']})" if chk["detail"] else ""
        yield f"  [{status}] {chk['name']}{detail}"
    yield ("PASS" if result["pass"] else "FAIL") + f"  window: {json.dumps(result['window'], sort_keys=True)}"
    if result["counterexample"]:
        yield "counterexample: " + json.dumps(result["counterexample"], sort_keys=True)


def _render_dims(result: dict):
    rows = [
        {
            "module": e["kind"],
            "base": e.get("vertex") or e.get("cycle"),
            "modulus": e.get("modulus", ""),
            "dimension": e["dimension"],
            "oracle": e["oracle"],
        }
        for e in result["entries"]
    ]
    yield from _render_table(rows, ["module", "base", "modulus", "dimension", "oracle"])
    yield f"all dimensions cross-checked: {result['all_match']}"


# ---------------------------------------------------------------------------
# Command implementations


def _read_graph(path: str) -> Graph:
    """A file that cannot be read or parsed is an input error; ``Graph.from_json_dict`` checks the rest."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise InputError(f"no such file: {path}")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}")
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, an integer past the digit limit, deep nesting
        raise InputError(f"bad JSON in {path}: {exc}")
    return Graph.from_json_dict(data)


def _load(args) -> tuple[Graph, object]:
    return _read_graph(args.graph), parse_field(args.field)


def _rational_samples(args) -> tuple[int, ...]:
    try:
        return tuple(int(a) for a in args.rational_samples.split(",") if a.strip())
    except ValueError:
        raise InputError(f"bad --rational-samples {args.rational_samples!r}: integers expected") from None


def _cmd_validate(args) -> int:
    try:
        graph = _read_graph(args.graph)
    except GraphError as exc:
        result = {"ok": False, "errors": [str(exc)], "sinks": [], "regular": []}
        _emit(result, args.json, _render_validate)
        return 2
    _emit(validate(graph).to_json_dict(), args.json, _render_validate)
    return 0


def _cmd_classify(args) -> int:
    graph, field = _load(args)
    if args.graded:
        result = classify_graded(graph, args.cycles_up_to).to_json_dict()
    else:
        result = classify_simple(graph, field, args.poly_deg, _rational_samples(args)).to_json_dict()
    _emit(result, args.json, _render_classify)
    return 0


def _cmd_act(args) -> int:
    graph, field = _load(args)
    twist = parse_twist(graph, field, args.twist) if args.twist else None
    spec = parse_module_spec(graph, field, args.module, twist, args.shift)
    module = build_module(graph, field, spec)
    elt = parse_element(module.algebra(), args.elt)
    vec = parse_vector(module, args.vec)
    out = module.act(elt, vec)
    result = {
        "module": args.module,
        "element": str(elt),
        "input": str(vec),
        "output": str(out),
    }
    _emit(result, args.json, _render_act)
    return 0


def _cmd_verify(args) -> int:
    graph, field = _load(args)
    suite = args.suite
    if suite == "relations":
        cert = verify_relations(graph, field, seed=args.seed, triples=args.triples)
    elif suite == "pi-consistency":
        cert = verify_pi_consistency(graph, field, max_len=args.window)
    elif suite == "triv-iso":
        x = parse_boundary_path(graph, args.at)
        twist = parse_twist(graph, field, args.twist) if args.twist else None
        cert = verify_triv_iso(graph, field, x, twist, bound=args.window, mono_len=args.mono_len)
    elif suite == "twist-iso":
        cycle = parse_finite_path(graph, args.cycle)
        if args.scalar is not None:
            coeff = ScalarAction(field.parse(args.scalar))
        else:
            coeff = QuotientCoeff(parse_poly(args.modulus, field))
        cert = verify_twist_iso(graph, field, cycle, coeff, bound=args.window, mono_len=args.mono_len)
    elif suite == "nvc-iso":
        cert = verify_nvc_iso(graph, field, parse_finite_path(graph, args.cycle), bound=args.window, mono_len=args.mono_len)
    else:  # res-ind
        x = parse_boundary_path(graph, args.at)
        coeff = parse_nspec(field, args.coeff)
        cert = verify_res_ind(graph, field, InducedSpec(x, coeff), cap=args.cap)
    result = cert.to_json_dict()
    _emit(result, args.json, _render_certificate)
    return 0 if cert.passed else 1


def _cmd_dims(args) -> int:
    graph, field = _load(args)
    res = classify_simple(graph, field, args.poly_deg, _rational_samples(args))
    entries = []
    all_match = True
    for e in res.entries:
        oracle = dimension_oracle(graph, e)
        data = e.to_json_dict()
        data["oracle"] = oracle
        all_match = all_match and oracle == e.dimension
        entries.append(data)
    result = {
        "field": field.name,
        "entries": entries,
        "all_match": all_match,
        "bounds": {"poly_degree": args.poly_deg},
    }
    _emit(result, args.json, _render_dims)
    return 0 if all_match else 1


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.handler(args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # Point stdout at devnull, so the interpreter's own flush at exit
        # does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (
        InputError, ParseError, GraphError, FieldError, ModuleSpecError, NotGradableError,
        OutOfWindowError, ClassificationError, AlgebraError, GroupoidError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
