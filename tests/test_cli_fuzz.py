"""Fuzz the command line in-process: whatever the arguments, ``cli.main``
returns 0, 1 or 2 and no exception escapes, so the ``lpa`` script never
prints a traceback.  An exit 2 prints one ``error:`` line and nothing on
stdout, and a ``verify`` flag that the suite does not read always exits 2.
Whatever a graph file holds, ``validate`` and ``classify --graded`` exit 0
or 2.

Each case picks a fixture graph, then draws the fragments of every text
grammar (module, element, vector, twist, cycle, coefficient) mostly from
that graph's own vertices, edges and cycles, so that many commands run to
the end, mixed with malformed ones.  Ground fields include two extension
fields.  Sizes stay small: windows at most 3, ``--mono-len`` at most 2,
``--triples`` at most 5.
"""

import contextlib
import io
import json
import traceback

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fixture_graphs import FIXTURE_GRAPHS, MALFORMED_GRAPH_FILES
from leavitt.cli import SUITES, main
from leavitt.graphs import Graph, elementary_cycles

FIELDS = ["Q", "F2", "F3", "Q[t]/(t^2-2)", "F2[t]/(t^2+t+1)"]
BASE_SCALARS = ["2", "-1", "1/3"]
EXT_SCALARS = ["(t)", "(t+1)", "2", "(t + 1)"]
MODULI = ["t^2+t+1", "t^2+1", "t-2", "t^2-2"]
# The flags each verify suite reads; the parser rejects every other one.
READS = {
    "relations": {"--seed", "--triples"},
    "pi-consistency": {"--window"},
    "triv-iso": {"--at", "--twist", "--window", "--mono-len"},
    "twist-iso": {"--cycle", "--scalar", "--modulus", "--window", "--mono-len"},
    "nvc-iso": {"--cycle", "--window", "--mono-len"},
    "res-ind": {"--at", "--coeff", "--cap"},
}
MALFORMED = ["", "zz", "x", "0", "t", "t^2", "1/0 e", "e^^", "(e)^inf@x", "v#x", "chen:", "ind:v", "ind:v:Ka(",
             "K(x)", "laurent(x)", "(", "e..f", "@", "#", "f=", "e"]


def _words(graph: Graph) -> dict:
    """Well-formed fragments over one graph: sink points, cycles with their
    tail points, paths and monomials."""
    edges = [e.name for e in graph.edges]
    paths = edges + [f"{a.name}.{b.name}" for a in graph.edges for b in graph.out_edges(a.rng)]
    sinks = list(graph.sinks) + [e.name for e in graph.edges if graph.is_sink(e.rng)]
    cycles, tails = [], []
    for c in elementary_cycles(graph):
        for i in range(len(c.edges)):
            rot = c.edges[i:] + c.edges[:i]
            cycles.append(".".join(rot))
            tails.append(f"({cycles[-1]})^inf")
            tails += [f"{e.name}.{tails[-1]}" for e in graph.in_edges(graph.edge(rot[0]).src) if e.name != rot[-1]]
    ghosts = [f"{e}^" for e in edges] + [f"{p} {e}^" for p in paths[:4] for e in edges[:2]]
    return {
        "edges": edges,
        "atoms": list(graph.vertices) + paths + ghosts,
        "sinks": sinks,
        "cycles": cycles,
        "tails": tails,
    }


@st.composite
def cli_cases(draw):
    """(fixture graph name, argv without the graph file).

    Half of the cases use only fragments that fit the graph, the field and
    the module, so they mostly run to the end; the rest mix in malformed
    fragments and flags a command does not need.
    """
    name = draw(st.sampled_from(sorted(FIXTURE_GRAPHS)))
    graph = Graph(*FIXTURE_GRAPHS[name])
    w = _words(graph)
    valid = draw(st.booleans())
    field = draw(st.sampled_from(FIELDS))

    def pick(values):
        values = values if valid else values + MALFORMED
        return draw(st.sampled_from(values or MALFORMED))

    def maybe(flag, values):
        return [flag, pick(values)] if draw(st.booleans()) else []

    def small(flag, hi):
        return [flag, str(draw(st.integers(0, hi)))]

    scalars = EXT_SCALARS if "[" in field else BASE_SCALARS
    points = w["sinks"] + w["tails"]

    def combination(atoms):
        terms = [f"{pick(scalars)} {pick(atoms)}" if draw(st.booleans()) else pick(atoms)
                 for _ in range(draw(st.integers(1, 2)))]
        return pick([" + ".join(terms), " - ".join(terms)])

    def twist():
        return ",".join(f"{e}={pick(scalars)}" for e in w["edges"][: draw(st.integers(1, 2))])

    def module():
        """A module spec and a basis literal of it."""
        kind = draw(st.sampled_from(["chen", "chenext", "nvc", "ind"]))
        if kind == "chen":
            p = pick(points)
            return f"chen:{p}", p
        if kind in ("chenext", "nvc"):
            c = pick(w["cycles"])
            if kind == "nvc":
                base = graph.edge(c.split(".")[0]).src if c in w["cycles"] else "v"
                return f"nvc:{c}", pick([base])
            return f"chenext:{c}:{pick(MODULI)}", pick([f"({c})^inf", f"({c})^inf#1"])
        if w["tails"] and draw(st.booleans()):
            p = pick(w["tails"])
            return f"ind:{p}:{pick(['Ka(2)', 'Ka((t))', 'quot(t^2+1)', 'laurent(0)', 'laurent(1)'])}", f"{p}@0"
        p = pick(w["sinks"])
        return f"ind:{p}:{pick(['K', 'K(1)'])}", f"{p}@0"

    command = draw(st.sampled_from(["validate", "classify", "act", "verify", "dims"]))
    if command == "validate":
        argv = ["validate"]
    elif command == "classify":
        if draw(st.booleans()):
            argv = ["classify", "--graded"] + small("--cycles-up-to", 3)
        else:
            argv = ["classify", "--simple"] + small("--poly-deg", 2) + maybe("--rational-samples", ["1,2", "-1"])
    elif command == "dims":
        argv = ["dims"] + small("--poly-deg", 2)
    elif command == "act":
        spec, literal = module()
        argv = ["act", "--module", spec, "--elt", combination(w["atoms"]), "--vec", pick([literal])]
        if spec.startswith("chen:"):
            argv += maybe("--twist", [twist()])
        argv += maybe("--shift", ["1", "-1"])
    else:
        suite = draw(st.sampled_from(SUITES))
        reads = READS[suite]
        argv = ["verify", suite]
        if "--window" in reads:
            argv += small("--window", 3)
        if "--mono-len" in reads:
            argv += small("--mono-len", 2)
        if suite == "relations":
            argv += small("--triples", 5) + maybe("--seed", ["0", "7"])
        elif suite == "triv-iso":
            argv += ["--at", pick(w["sinks"])] + maybe("--twist", [twist()])
        elif suite == "twist-iso":
            argv += ["--cycle", pick(w["cycles"])]
            argv += ["--scalar", pick(scalars)] if draw(st.booleans()) else ["--modulus", pick(MODULI)]
        elif suite == "nvc-iso":
            argv += ["--cycle", pick(w["cycles"])]
        elif suite == "res-ind":
            _, literal = module()
            at = literal.split("@")[0].split("#")[0]
            coeff = pick(["Ka(2)", "Ka((t))", "quot(t^2+1)"] if ")^inf" in at else ["K", "K(1)"])
            argv += ["--at", at, "--coeff", coeff] + maybe("--cap", ["1", "6"])
        if not valid:  # flags the suite misses, or does not read
            argv = argv[: draw(st.sampled_from([4, len(argv)]))]
            argv += maybe("--at", points) + maybe("--cycle", w["cycles"]) + maybe("--coeff", ["K", "Ka(2)"])
            argv += maybe("--window", ["2"]) + maybe("--cap", ["1"])
    if command != "validate":
        argv += ["--field", field]
    return name, argv + (["--json"] if draw(st.booleans()) else [])


def _unread_flags(argv: list[str]) -> set[str]:
    """The flags of a ``verify`` command that its suite does not read."""
    if argv[0] != "verify":
        return set()
    return {a for a in argv[2:] if a.startswith("--")} - READS[argv[1]] - {"--field", "--json"}


@pytest.fixture(scope="module")
def graph_paths(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzz")
    paths = {}
    for name, (vertices, edges) in FIXTURE_GRAPHS.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(Graph(vertices, edges).to_json_dict()))
        paths[name] = str(path)
    return paths


@settings(max_examples=200, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=cli_cases())
@example(case=("rose2", ["verify", "twist-iso", "--field", "Q[t]/(t^2-2)", "--cycle", "g", "--scalar", "2"]))
@example(case=("lasso_graph", ["verify", "twist-iso", "--field", "F3[t]/(t^2+1)", "--cycle", "e", "--scalar", "(t)"]))
def test_cli_exits_0_1_or_2_without_a_traceback(graph_paths, case):
    name, argv = case
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv + [graph_paths[name]])
        except (Exception, SystemExit):  # usage errors return 2 too, so nothing may escape
            code = traceback.format_exc()
    assert code in (0, 1, 2), f"{name} {argv}: {code}"
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    if _unread_flags(argv):
        assert code == 2, f"{name} {argv}: a flag the suite does not read was accepted"


# Graph files drawn from arbitrary JSON values: names come mostly from a few
# that fit together, so some files build a graph and run to the end.
_NAMES = st.sampled_from(["u", "v", "e", "f", "", "a.b"])
_KEYS = st.sampled_from(["vertices", "edges", "name", "src", "rng"]) | st.text(max_size=3)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=3) | _NAMES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_KEYS, inner, max_size=3),
    max_leaves=8,
)
_EDGES = st.fixed_dictionaries(
    {"name": _NAMES | _JSON, "src": _NAMES | _JSON, "rng": _NAMES | _JSON}, optional={"extra": _JSON}
)
_GRAPHS = st.fixed_dictionaries(
    {"vertices": st.lists(_NAMES, max_size=3) | _JSON, "edges": st.lists(_EDGES | _JSON, max_size=3) | _JSON},
    optional={"extra": _JSON},
)
_GRAPH_FILES = (_GRAPHS | _JSON).map(lambda data: json.dumps(data).encode())


def _with_malformed_examples(test):
    for content in MALFORMED_GRAPH_FILES.values():
        test = example(content=content)(test)
    return test


@settings(max_examples=100, derandomize=True, deadline=None)
@given(content=_GRAPH_FILES)
@_with_malformed_examples
def test_any_graph_file_exits_0_or_2_without_a_traceback(tmp_path_factory, content):
    path = tmp_path_factory.getbasetemp() / "fuzz_graph.json"
    path.write_bytes(content)
    for argv in (["validate"], ["classify", "--graded"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv + [str(path)])
            except (Exception, SystemExit):
                code = traceback.format_exc()
        assert code in (0, 2), f"{argv} {content[:200]!r}: {code}"
        assert "Traceback" not in err.getvalue()
