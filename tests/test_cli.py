import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from fixture_graphs import MALFORMED_GRAPH_FILES
from leavitt import cli, verify
from leavitt.cli import SUITES, main
from leavitt.graphs import Graph
from leavitt.verify import Certificate


@pytest.fixture
def graph_file(tmp_path):
    def write(graph):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(graph.to_json_dict()))
        return str(path)

    return write


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_ok(self, a2, graph_file, capsys):
        code, out, _ = run(capsys, ["validate", graph_file(a2)])
        assert code == 0
        assert "ok" in out and "sinks:   v" in out

    def test_malformed(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"vertices": ["u"], "edges": [{"name": "f", "src": "u", "rng": "v"}]}))
        code, out, _ = run(capsys, ["validate", str(path)])
        assert code == 2
        assert "dangling endpoint" in out

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["validate", "nope.json"])
        assert code == 2 and "no such file" in err


class TestClassify:
    def test_a2_graded_table(self, a2, graph_file, capsys):
        code, out, _ = run(capsys, ["classify", "--graded", "--cycles-up-to", "4", graph_file(a2)])
        assert code == 0
        assert "sink" in out and "2" in out
        assert "complete: True" in out

    def test_toeplitz_simple_json(self, toeplitz, graph_file, capsys):
        code, out, _ = run(
            capsys,
            ["classify", "--simple", "--field", "F2", "--poly-deg", "3", "--json", graph_file(toeplitz)],
        )
        assert code == 0
        data = json.loads(out)
        dims = sorted(f["dimension"] for f in data["families"] if f["kind"] == "cycle-simple")
        assert dims == [1, 2, 3, 3]
        assert any(f["family"] == "sink" for f in data["flagged"])

    def test_long_chain_graded(self, graph_file, capsys):
        n = 600
        edges = [(f"f{i}", f"c{i}", f"c{i + 1}") for i in range(n - 1)]
        chain = Graph([f"c{i}" for i in range(n)], edges)
        code, out, _ = run(capsys, ["classify", "--graded", "--json", graph_file(chain)])
        assert code == 0
        assert json.loads(out)["families"][0]["dimension"] == n

    def test_long_cycle_simple(self, graph_file, capsys):
        n = 1050
        edges = [(f"f{i}", f"c{i}", f"c{(i + 1) % n}") for i in range(n)]
        cycle = Graph([f"c{i}" for i in range(n)], edges)
        code, out, _ = run(capsys, ["classify", "--simple", "--json", graph_file(cycle)])
        assert code == 0
        families = json.loads(out)["families"]
        assert {f["cycle"] for f in families} == {".".join(e[0] for e in edges)}


class TestAct:
    def test_prefix_rule(self, a2, graph_file, capsys):
        code, out, _ = run(
            capsys,
            ["act", "--module", "chen:v", "--elt", "f^*", "--vec", "f", graph_file(a2)],
        )
        assert code == 0
        assert out.strip() == "v"

    def test_twisted(self, r1, graph_file, capsys):
        code, out, _ = run(
            capsys,
            [
                "act", "--module", "chen:(e)^inf", "--twist", "e=3",
                "--elt", "e", "--vec", "(e)^inf", graph_file(r1),
            ],
        )
        assert code == 0
        assert out.strip() == "3 (e)^inf"

    def test_induced_laurent(self, r1, graph_file, capsys):
        code, out, _ = run(
            capsys,
            ["act", "--module", "ind:(e)^inf:laurent(0)", "--elt", "e", "--vec", "(e)^inf@0", graph_file(r1)],
        )
        assert code == 0
        assert out.strip() == "(e)^inf@1"

    def test_unknown_edge_is_input_error(self, a2, graph_file, capsys):
        code, _, err = run(
            capsys, ["act", "--module", "chen:v", "--elt", "zz", "--vec", "f", graph_file(a2)]
        )
        assert code == 2 and "error:" in err


class TestVerify:
    def test_relations(self, rose2, graph_file, capsys):
        code, out, _ = run(capsys, ["verify", "relations", "--field", "F2", graph_file(rose2)])
        assert code == 0
        assert "PASS" in out

    def test_pi_consistency(self, r1, graph_file, capsys):
        code, out, _ = run(capsys, ["verify", "pi-consistency", "--window", "3", graph_file(r1)])
        assert code == 0

    def test_triv_iso_pass(self, a2, graph_file, capsys):
        code, out, _ = run(
            capsys,
            ["verify", "triv-iso", "--at", "v", "--twist", "f=3", graph_file(a2)],
        )
        assert code == 0
        assert "PASS" in out and "[pass] equivariance" in out

    def test_twist_iso(self, toeplitz, graph_file, capsys):
        code, out, _ = run(
            capsys,
            ["verify", "twist-iso", "--cycle", "e", "--modulus", "t^2+t+1", "--field", "F2", graph_file(toeplitz)],
        )
        assert code == 0

    def test_nvc_iso(self, r1, graph_file, capsys):
        code, out, _ = run(capsys, ["verify", "nvc-iso", "--cycle", "e", graph_file(r1)])
        assert code == 0

    def test_res_ind(self, toeplitz, graph_file, capsys):
        code, out, _ = run(
            capsys,
            ["verify", "res-ind", "--at", "(e)^inf", "--coeff", "quot(t^2+t+1)", "--field", "F2", graph_file(toeplitz)],
        )
        assert code == 0

    def test_precondition_violation_exits_2(self, rose2, graph_file, capsys):
        # nvc-iso on a cycle with exits is an input error (precondition)
        code, _, err = run(capsys, ["verify", "nvc-iso", "--cycle", "e", graph_file(rose2)])
        assert code == 2 and "exit" in err

    def test_failed_certificate_exits_1(self, a2, graph_file, capsys, monkeypatch):
        def failing(*args, **kwargs):
            cert = Certificate(claim="forced failure", window={})
            cert.record("equivariance", False, "forced")
            return cert

        monkeypatch.setattr(verify, "verify_triv_iso", failing)  # the CLI looks it up on its home module
        code, out, _ = run(capsys, ["verify", "triv-iso", "--at", "v", "--json", graph_file(a2)])
        assert code == 1
        assert json.loads(out)["counterexample"] == {"check": "equivariance", "detail": "forced"}

    def test_missing_flag(self, a2, graph_file, capsys):
        code, _, err = run(capsys, ["verify", "triv-iso", graph_file(a2)])
        assert code == 2 and "--at" in err


# Every flag each verify suite reads, with values on a graph where it passes.
# twist-iso reads --modulus in place of --scalar.
SUITE_FLAGS = {
    "relations": ("rose2", {"--seed": "3", "--triples": "5"}),
    "pi-consistency": ("r1", {"--window": "2"}),
    "triv-iso": ("toeplitz", {"--at": "v", "--twist": "e=3", "--window": "2", "--mono-len": "1"}),
    "twist-iso": ("toeplitz", {"--cycle": "e", "--scalar": "2", "--window": "2", "--mono-len": "1"}),
    "nvc-iso": ("r1", {"--cycle": "e", "--window": "2", "--mono-len": "1"}),
    "res-ind": ("toeplitz", {"--at": "(e)^inf", "--coeff": "Ka(2)"}),
}


@pytest.mark.parametrize("suite", SUITES)
def test_suite_accepts_exactly_its_own_flags(request, graph_file, capsys, suite):
    graph, flags = SUITE_FLAGS[suite]
    path = graph_file(request.getfixturevalue(graph))
    argv = ["verify", suite] + [a for item in flags.items() for a in item]
    code, out, err = run(capsys, argv + [path])
    assert (code, err) == (0, "") and "PASS" in out
    foreign = {f: v for _, other in SUITE_FLAGS.values() for f, v in other.items() if f not in flags}
    if suite != "twist-iso":
        foreign["--modulus"] = "t^2+t+1"
    for flag, value in foreign.items():
        code, out, err = run(capsys, argv + [flag, value, path])
        assert (code, out) == (2, ""), flag
        assert err.startswith("error: ") and err.count("\n") == 1, flag


def test_readme_commands_parse():
    """Every ``lpa`` line of the README's CLI block is a valid command line."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("lpa ")]
    assert len(commands) >= len(SUITES) + 4
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv)


class TestDims:
    def test_toeplitz(self, toeplitz, graph_file, capsys):
        code, out, _ = run(
            capsys, ["dims", "--field", "F2", "--poly-deg", "2", graph_file(toeplitz)]
        )
        assert code == 0
        assert "all dimensions cross-checked: True" in out


class TestDeterminism:
    def test_same_seed_same_bytes(self, rose2, graph_file, capsys):
        path = graph_file(rose2)
        argv = ["verify", "relations", "--seed", "7", "--json", path]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2

    def test_one_parser_and_no_flag_leaks_between_calls(self, a2, graph_file, capsys, monkeypatch):
        """``main`` builds its parser once; a flag given in one call is not a
        default in the next."""
        built = []
        init = cli._Parser.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counted)
        cli.build_parser.cache_clear()
        argv = ["verify", "triv-iso", "--at", "v", "--json", graph_file(a2)]
        code, out, _ = run(capsys, argv[:2] + ["--mono-len", "1"] + argv[2:])
        assert code == 0 and json.loads(out)["window"]["mono_len"] == 1
        parsers = len(built)
        code, out, _ = run(capsys, argv)
        assert code == 0 and json.loads(out)["window"]["mono_len"] == 3
        assert parsers > 0 and len(built) == parsers

    def test_classify_json_deterministic(self, toeplitz, graph_file, capsys):
        path = graph_file(toeplitz)
        argv = ["classify", "--simple", "--field", "F2", "--json", path]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2


class TestClosedStdout:
    def test_reader_that_stops_early_gets_exit_141_and_no_traceback(self, rose2, graph_file):
        """``lpa ... --json | head -c 100``: the JSON is far longer than a pipe
        holds, so the write fails once the reader has closed its end."""
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        argv = ["classify", graph_file(rose2), "--graded", "--cycles-up-to", "14", "--json"]
        with subprocess.Popen(
            [sys.executable, "-m", "leavitt.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
        ) as proc:
            head = proc.stdout.read(100)
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        assert head.startswith(b"{") and len(head) == 100
        assert (code, err) == (141, b"")


HUGE = "9" * 5000
LONG_E = ".".join(["e"] * 15_000)  # e^15000 in L(r1): on (e)^inf@0 it takes the generator to its 15000th power


class TestInputErrors:
    """Every input error exits 2 with a one-line message, never a traceback."""

    @pytest.mark.parametrize(
        "graph,argv",
        [
            ("toeplitz", ["classify", "--simple", "--rational-samples", "0"]),
            ("toeplitz", ["classify", "--simple", "--rational-samples", "x"]),
            ("toeplitz", ["dims", "--rational-samples", "x"]),
            ("toeplitz", ["dims", "--field", "F2[t]/(t^2+t+1)"]),
            ("toeplitz", ["act", "--module", "chen:v", "--elt", "f", "--vec", "v#x"]),
            ("toeplitz", ["act", "--module", "chen:v", "--elt", "e", "--vec", "f#3"]),
            ("r1", ["act", "--module", "chenext:e:t^2+1", "--field", "F3", "--elt", "e", "--vec", "(e)^inf#2"]),
            ("r1", ["act", "--module", "ind:(e)^inf:laurent(0)", "--elt", "e", "--vec", "(e)^inf@x"]),
            ("r1", ["act", "--module", "ind:(e)^inf:laurent(x)", "--elt", "e", "--vec", "(e)^inf@0"]),
            ("toeplitz", ["verify", "res-ind", "--at", "v", "--coeff", "K(x)"]),
            ("toeplitz", ["act", "--module", "chen:v", "--twist", "e=0", "--elt", "f", "--vec", "v"]),
            ("cycle2", ["act", "--module", "ind:(a.b)^inf:Ka(2)", "--elt", "v1", "--vec", "(a.b)^inf@1"]),
            # coefficients too long to print over Q
            ("r1", ["act", "--module", "ind:(e)^inf:Ka(2)", "--elt", LONG_E, "--vec", "(e)^inf@0"]),
            ("r1", ["act", "--module", "ind:(e)^inf:quot(t-3)", "--elt", LONG_E, "--vec", "(e)^inf@0"]),
            # an nvc cycle that is not closed, and a basis literal off the cycle's base vertex
            ("loop_feeds_loop", ["act", "--module", "nvc:t", "--elt", "e", "--vec", "t"]),
            ("a2", ["act", "--module", "nvc:f", "--elt", "f", "--vec", "u"]),
            ("cycle2", ["act", "--module", "nvc:b.a", "--elt", "a", "--vec", "v2"]),
            # an nvc basis literal that is not in normal form (e e* = v in L(r1))
            ("r1", ["act", "--module", "nvc:e", "--elt", "v", "--vec", "v + e e^"]),
            # a modulus over Q of degree above 3, whose irreducibility is not decided
            ("r1", ["act", "--field", "Q[t]/(t^4+1)", "--module", "chen:(e)^inf", "--elt", "e", "--vec", "(e)^inf"]),
            # negative window, monomial length, triple count and degree bounds
            ("r1", ["verify", "nvc-iso", "--cycle", "e", "--window", "-2"]),
            ("r1", ["verify", "nvc-iso", "--cycle", "e", "--mono-len", "-2"]),
            ("r1", ["verify", "relations", "--triples", "-5"]),
            ("r1", ["verify", "pi-consistency", "--window", "-1"]),
            ("r1", ["classify", "--simple", "--poly-deg", "-3"]),
            # flags the command would otherwise ignore
            ("r1", ["verify", "twist-iso", "--cycle", "e", "--scalar", "2", "--modulus", "t+1"]),
            ("r1", ["act", "--module", "chenext:e:t^2+t+1", "--field", "F2", "--twist", "e=1", "--elt", "e", "--vec", "(e)^inf"]),
            ("r1", ["verify", "twist-iso", "--cycle", "e", "--scalar", "2", "--twist", "e=3"]),
            ("r1", ["verify", "nvc-iso", "--cycle", "e", "--at", "v", "--coeff", "K"]),
            ("r1", ["verify", "relations", "--window", "7", "--cap", "3", "--mono-len", "1"]),
            # usage errors: a missing flag, a bad int and an unknown suite
            ("r1", ["act", "--elt", "e", "--vec", "v"]),
            ("r1", ["act", "--module", "chen:v", "--elt", "e", "--vec", "v", "--shift", "x"]),
            ("r1", ["verify", "bogus"]),
            # a rational with an exponent, which the grammar does not have
            ("r1", ["act", "--module", "chen:(e)^inf", "--elt", "e", "--vec", "(e)^inf", "--twist", "e=1e400"]),
            ("r1", ["validate", "--field", "F2"]),
            # integers past the interpreter's string-to-integer digit limit
            ("r1", ["act", "--field", f"F2[t]/(t^{HUGE}+t+1)", "--module", "chen:(e)^inf", "--elt", "e", "--vec", "(e)^inf"]),
            ("r1", ["verify", "twist-iso", "--cycle", "e", "--modulus", f"t^{HUGE}+1"]),
            ("r1", ["act", "--field", "F2[t]/(t^2+t+1)", "--module", "chen:(e)^inf", "--elt", "e", "--vec", "(e)^inf",
                    "--twist", f"e=(t^{HUGE})"]),
            ("r1", ["act", "--field", f"F{HUGE}", "--module", "chen:(e)^inf", "--elt", "e", "--vec", "(e)^inf"]),
            # moduli past the cost bound on Rabin's test
            ("r1", ["act", "--field", "F2[t]/(t^1000+t+1)", "--module", "chen:(e)^inf", "--elt", "e", "--vec", "(e)^inf"]),
            ("r1", ["verify", "twist-iso", "--cycle", "e", "--modulus", "t^3000+t+1", "--field", "F2"]),
            # a lag other than the canonical one, where the coefficient absorbs the isotropy
            ("r1", ["act", "--module", "ind:(e)^inf:Ka(2)", "--elt", "v", "--vec", "(e)^inf@1 - 2 (e)^inf@0"]),
            ("r1", ["act", "--module", "ind:(e)^inf:quot(t-3)", "--elt", "v", "--vec", "(e)^inf@-1"]),
            # a lag, a Laurent shift and a tensor index past the digit limit, quoted to their first digits
            ("r1", ["act", "--module", "ind:(e)^inf:laurent(0)", "--elt", "e", "--vec", f"(e)^inf@{HUGE}"]),
            ("r1", ["act", "--module", f"ind:(e)^inf:laurent({HUGE})", "--elt", "e", "--vec", "(e)^inf@0"]),
            ("r1", ["act", "--module", "chenext:e:t^2+1", "--field", "F3", "--elt", "e", "--vec", f"(e)^inf#{HUGE}"]),
            # an edge twisted twice, and a trivial coefficient with an empty shift
            ("r1", ["act", "--module", "chen:(e)^inf", "--twist", "e=2,e=3", "--elt", "e", "--vec", "(e)^inf"]),
            ("toeplitz", ["act", "--module", "ind:v:K()", "--elt", "v", "--vec", "v@0"]),
            # a bad edge name and bad scalars of 5,000 characters, quoted to their first characters
            ("r1", ["act", "--module", "chen:(e)^inf", "--elt", f"{HUGE} e", "--vec", "(e)^inf"]),
            *(("r1", ["act", "--field", f, "--module", "chen:(e)^inf", "--elt", "e", "--vec", "(e)^inf", "--twist", f"e={HUGE}"])
              for f in ("F2", "Q", "F2[t]/(t^2+t+1)")),
            # a flag that no suite reads
            ("toeplitz", ["verify", "res-ind", "--at", "v", "--coeff", "K", "--cap", "3"]),
        ],
    )
    def test_exits_2_with_one_line(self, request, graph_file, capsys, graph, argv):
        code, out, err = run(capsys, argv + [graph_file(request.getfixturevalue(graph))])
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert len(err) < 200

    @pytest.mark.parametrize("mode", ["--graded", "--simple"])
    @pytest.mark.parametrize("bound", ["0", "-3"])
    def test_a_cycle_bound_below_one_names_the_flag(self, r1, graph_file, capsys, mode, bound):
        # the parser checks the flag in either mode, as it checks --poly-deg
        code, out, err = run(capsys, ["classify", mode, "--cycles-up-to", bound, graph_file(r1)])
        assert (code, out) == (2, "")
        assert err == f"error: argument --cycles-up-to: expected an integer of at least 1, got '{bound}'\n"

    @pytest.mark.parametrize("command", [["validate"], ["classify", "--graded"]], ids=["validate", "classify"])
    @pytest.mark.parametrize("name", [*MALFORMED_GRAPH_FILES, "directory"])
    def test_malformed_graph_file_exits_2(self, tmp_path, capsys, name, command):
        path = tmp_path / "g.json"
        if name == "directory":
            path.mkdir()
        else:
            path.write_bytes(MALFORMED_GRAPH_FILES[name])
        code, out, err = run(capsys, command + [str(path)])
        assert code == 2
        assert "Traceback" not in err
        if out:  # validate reports a file it parsed but could not build as INVALID
            assert command == ["validate"] and out.startswith("INVALID\n") and err == ""
        else:
            assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", [["validate"], ["classify", "--graded"]], ids=["validate", "classify"])
    @pytest.mark.parametrize(
        "vertices",
        ["[" + ", ".join(f'"bad-{i}"' for i in range(20_000)) + "]", "[" * 986 + "]" * 986],
        ids=["20000-bad-names", "nested-985-deep"],
    )
    def test_graph_file_errors_are_one_short_line(self, tmp_path, capsys, command, vertices):
        path = tmp_path / "g.json"
        path.write_text('{"vertices": ' + vertices + ', "edges": []}')
        code, out, err = run(capsys, command + [str(path)])
        assert code == 2 and "Traceback" not in err
        # validate reports the error in its INVALID report, classify on stderr
        errors = [line for line in (out + err).splitlines() if "error: " in line]
        assert len(errors) == 1 and len(errors[0]) < 1000

    def test_large_lag_over_a_prime_field_exits_0(self, r1, graph_file, capsys):
        argv = ["act", "--module", "ind:(e)^inf:Ka(2)", "--field", "F3", "--elt", LONG_E + ".e",
                "--vec", "(e)^inf@0", graph_file(r1)]
        code, out, err = run(capsys, argv)
        assert (code, out, err) == (0, "2 (e)^inf@0\n", "")  # 2^15001 = 2 in F3

    @pytest.mark.parametrize(
        "argv,out",
        [
            (["act", "--field", "F2", "--module", "ind:(e)^inf:quot(t^41+t^3+1)", "--elt", "e", "--vec", "(e)^inf@0"],
             "(e)^inf@0#1\n"),
            (["act", "--field", "F1000000000000000003", "--module", "chen:(e)^inf", "--elt", "e", "--vec", "(e)^inf"],
             "(e)^inf\n"),
            (["act", "--field", "Q[t]/(t^3-100000000000000000003)", "--module", "chen:(e)^inf", "--elt", "e",
              "--vec", "(e)^inf"], "(e)^inf\n"),
        ],
    )
    def test_high_degree_modulus_and_large_prime_exit_0_fast(self, r1, graph_file, capsys, argv, out):
        start = time.perf_counter()
        assert run(capsys, argv + [graph_file(r1)]) == (0, out, "")
        assert time.perf_counter() - start < 1.0


class TestModulusTestedOnce:
    """A quotient-field modulus is tested for irreducibility once per spec:
    the module uses the field its parsed spec validated."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["act", "--field", "F3", "--module", "ind:(e)^inf:quot(t^2+1)", "--elt", "e", "--vec", "(e)^inf@0#0"],
            ["act", "--field", "F3", "--module", "chenext:e:t^2+1", "--elt", "e", "--vec", "(e)^inf#1"],
            ["verify", "twist-iso", "--cycle", "e", "--modulus", "t^2+t+1", "--field", "F2"],
        ],
    )
    def test_one_irreducibility_test(self, r1, graph_file, capsys, monkeypatch, argv):
        from leavitt import fields

        calls = []
        original = fields.is_irreducible
        monkeypatch.setattr(fields, "is_irreducible", lambda *a, **k: calls.append(a) or original(*a, **k))
        code, _, err = run(capsys, argv + [graph_file(r1)])
        assert (code, err) == (0, "")
        assert len(calls) == 1

    @pytest.mark.parametrize("module", ["ind:(e)^inf:quot(t^2+2)", "chenext:e:t^2+2"])
    def test_reducible_modulus_exits_2(self, r1, graph_file, capsys, module):
        argv = ["act", "--field", "F3", "--module", module, "--elt", "e", "--vec", "(e)^inf", graph_file(r1)]
        assert run(capsys, argv) == (2, "", "error: t^2+2 is reducible over F3\n")
