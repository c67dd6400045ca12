"""The four benchmark workloads: inputs, task rounds and correctness checks.

A workload is set up once from the seed; its ``round()`` lists builders of
``Task`` objects, and a run repeats rounds.  The mix, sizes and order are
the same in every round and for every seed; the seed picks scalars,
moduli, base points, element terms and random graphs.
A task's ``call`` is one top-level public call into the library, or one
``lpa`` command in ``cli``.  ``check`` compares the result with an answer
from ``oracles.py`` or from the theory and returns a reason when they
differ, or None.

Tasks look library functions up on their modules at call time
(``V.verify_twist_iso``), so the wrappers ``trace.py`` installs for the
traced run are the ones called.  Building inputs (graphs, fields, modules,
elements) happens in the builder, outside the timed call.

A traced run repeats exactly ``TRACE_ROUNDS`` rounds, so its per-layer
counts are those of a fixed amount of work, whatever the speed of the host
or of the library.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from leavitt import algebra as AL
from leavitt import classify as C
from leavitt import cli as CLI
from leavitt import fields as FL
from leavitt import graphs as GR
from leavitt import reps as R
from leavitt import verify as V

from . import gen, oracles

CLI_TIMEOUT_S = 20.0  # a hung lpa is killed and its task fails


@dataclass
class Task:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], str | None]


def _graph(data: gen.GraphData) -> GR.Graph:
    return GR.Graph(data[0], data[1])


def _nodes(depth: int) -> int:
    return 2 ** (depth + 1) - 1


def _tree_path(graph: GR.Graph, bits: str) -> GR.FinitePath:
    """The path from tree node ``n<bits>`` down to the root ``r``."""
    if not bits:
        return graph.vertex_path("r")
    return graph.path([f"t{bits[:k]}" for k in range(len(bits), 0, -1)])


def _bits(rng: random.Random, length: int) -> str:
    return "".join(rng.choice("01") for _ in range(length))


def _cert_check(passed: bool, basis: int | None = None):
    def check(cert) -> str | None:
        if cert.passed != passed:
            return f"certificate pass={cert.passed}, expected {passed}: {cert.counterexample}"
        if basis is not None and cert.window.get("basis") != basis:
            return f"window basis {cert.window.get('basis')}, expected {basis}"
        return None

    return check


# ---------------------------------------------------------------------------
# certify
#
# Why: module certificates and window linear algebra are where the library
# spends its time on scaled inputs: ExtensionField arithmetic for quotient
# coefficients, module actions, window matrices and exact elimination.  The
# graphs and fields come from a small pool, so (graph, field) pairs repeat
# and a per-object cache would show its gain here.


class Certify:
    TAIL_PERCENTILE = 90  # at least ten samples beyond it in a run at this commit
    TRACE_ROUNDS = 3  # rounds of a traced run: about 7 s untraced at this commit
    PRIMES = (2, 3, 5, None)  # None is Q

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.fields = {p: (FL.QQ if p is None else FL.PrimeField(p)) for p in self.PRIMES}
        self.graphs: dict[tuple, GR.Graph] = {}
        for d in (1, 2, 3):
            self.graphs[("sink", d)] = _graph(gen.tree_into_sink(d))
            self.graphs[("loop", d)] = _graph(gen.tree_into_loop(d))
        for n in (2, 3, 4, 5):
            self.graphs[("cycle", n)] = _graph(gen.cycle(n))
            self.graphs[("cycle_exit", n)] = _graph(gen.cycle(n, exit_to_sink=True))

    # -- inputs ---------------------------------------------------------------

    def _scalar(self, p, avoid_one=False):
        return self.fields[p].coerce(gen.nonzero_scalar(self.rng, p, avoid_one))

    def _poly(self, p, degree):
        return FL.Poly.make(self.fields[p], gen.modulus(self.rng, p, degree))

    def _cycle(self, target):
        """(graph, cycle path, orbit size) for ("loop", depth) or ("cycle"/"cycle_exit", n)."""
        g = self.graphs[target]
        if target[0] == "loop":
            return g, g.path(["l"]), _nodes(target[1])
        return g, g.path([f"a{i}" for i in range(target[1])]), target[1]

    def _lasso(self, g, cyc):
        return GR.lasso(g, g.vertex_path(cyc.src), cyc.edges)

    def _sink_base(self, depth: int, min_len: int = 0):
        g = self.graphs[("sink", depth)]
        bits = _bits(self.rng, self.rng.randint(min_len, depth))
        return g, bits, GR.sink_path(g, _tree_path(g, bits))

    # -- task kinds -------------------------------------------------------------

    def triv(self, depth: int, p) -> Task:
        F = self.fields[p]
        g, _, x = self._sink_base(depth)
        values = {e.name: gen.nonzero_scalar(self.rng, p) for e in g.edges if self.rng.random() < 0.5}
        twist = AL.TwistVector.make(g, F, values)
        return Task("triv_iso", lambda: V.verify_triv_iso(g, F, x, twist), _cert_check(True, _nodes(depth)))

    def triv_corrupt(self, depth: int, p) -> Task:
        # The twist is not 1 on the base path, so the corrupted map is wrong.
        F = self.fields[p]
        g, bits, x = self._sink_base(depth, min_len=1)
        values = {e.name: gen.nonzero_scalar(self.rng, p) for e in g.edges if e.name not in x.path.edges}
        values[f"t{bits}"] = gen.nonzero_scalar(self.rng, p, avoid_one=True)
        twist = AL.TwistVector.make(g, F, values)
        return Task(
            "triv_iso_corrupt",
            lambda: V.verify_triv_iso(g, F, x, twist, corrupt=True),
            _cert_check(False),
        )

    def twist_scalar(self, target, p) -> Task:
        F = self.fields[p]
        g, cyc, orbit = self._cycle(target)
        coeff = R.ScalarAction(self._scalar(p))
        return Task("twist_iso_scalar", lambda: V.verify_twist_iso(g, F, cyc, coeff), _cert_check(True, orbit))

    def twist_quot(self, target, p, degree: int, mono_len: int = 3) -> Task:
        F = self.fields[p]
        g, cyc, orbit = self._cycle(target)
        coeff = R.QuotientCoeff(self._poly(p, degree))
        return Task(
            "twist_iso_quot",
            lambda: V.verify_twist_iso(g, F, cyc, coeff, mono_len=mono_len),
            _cert_check(True, orbit * degree),
        )

    def nvc(self, target, p) -> Task:
        F = self.fields[p]
        g, cyc, _ = self._cycle(target)
        return Task("nvc_iso", lambda: V.verify_nvc_iso(g, F, cyc), _cert_check(True))

    def res_ind(self, target, p, degree: int = 0) -> Task:
        """Trivial coefficients at a sink tree base; else a scalar (degree 0) or quotient coefficient."""
        F = self.fields[p]
        if target[0] == "sink":
            g, _, x = self._sink_base(target[1])
            spec = R.InducedSpec(x, R.TrivialCoeff(0))
        else:
            g, cyc, _ = self._cycle(target)
            coeff = R.QuotientCoeff(self._poly(p, degree)) if degree else R.ScalarAction(self._scalar(p))
            spec = R.InducedSpec(self._lasso(g, cyc), coeff)
        return Task("res_ind", lambda: V.verify_res_ind(g, F, spec), _cert_check(True))

    def end(self, target, p, degree: int = 0) -> Task:
        # Schur's lemma: End(M) is K for a sink simple and K[t]/(f) for a cycle simple.
        F = self.fields[p]
        g = self.graphs[target]
        if target[0] == "sink":
            M = R.build_module(g, F, R.ChenSpec(GR.sink_path(g, g.vertex_path("r"))))
            want = 1
        else:
            _, cyc, _ = self._cycle(target)
            M = R.build_module(g, F, R.ChenExtSpec(cyc, self._poly(p, degree)))
            want = degree

        def check(homs) -> str | None:
            return None if len(homs) == want else f"dim End(M) = {len(homs)}, Schur's lemma gives {want}"

        return Task("end_schur", lambda: V.intertwiner_space(M, M), check)

    def simplicity(self, target, p, degree: int = 0) -> Task:
        """A sink tree's simple module; a scalar extension at a cycle (degree > 0); else Laurent."""
        F = self.fields[p]
        g = self.graphs[target]
        if target[0] == "sink":
            spec, want = R.ChenSpec(GR.sink_path(g, g.vertex_path("r"))), "simple"
        elif degree:
            _, cyc, _ = self._cycle(target)
            spec, want = R.ChenExtSpec(cyc, self._poly(p, degree)), "simple"
        else:
            _, cyc, _ = self._cycle(target)
            spec, want = R.InducedSpec(self._lasso(g, cyc), R.LaurentCoeff(0)), "graded-simple-not-simple"

        def check(probe) -> str | None:
            return None if probe.verdict == want else f"verdict {probe.verdict!r}, expected {want!r}"

        return Task("simplicity_probe", lambda: V.simplicity_probe(g, F, spec), check)

    def round(self) -> list[Callable[[], Task]]:
        """One round: every task kind, each over a fixed (graph, field, size), heavy and light interleaved."""
        Q = None
        return [
            lambda: self.twist_quot(("loop", 2), 2, 2, mono_len=2),
            lambda: self.triv(1, 3),
            lambda: self.res_ind(("sink", 1), 5),
            lambda: self.twist_scalar(("loop", 3), Q),
            lambda: self.triv_corrupt(2, 3),
            lambda: self.end(("sink", 1), 2),
            lambda: self.twist_quot(("cycle", 2), 3, 3),
            lambda: self.nvc(("cycle", 3), 5),
            lambda: self.res_ind(("loop", 1), Q),
            lambda: self.simplicity(("sink", 2), 2),
            lambda: self.twist_quot(("loop", 1), 5, 2),
            lambda: self.triv(2, Q),
            lambda: self.twist_scalar(("cycle_exit", 4), 2),
            lambda: self.nvc(("loop", 2), 3),
            lambda: self.end(("cycle", 4), 5, 2),
            lambda: self.twist_quot(("cycle", 4), Q, 2),
            lambda: self.res_ind(("cycle", 5), Q, 3),
            lambda: self.twist_quot(("cycle_exit", 3), Q, 1),
            lambda: self.triv_corrupt(3, 5),
            lambda: self.simplicity(("cycle", 2), 3, 2),
            lambda: self.twist_scalar(("loop", 1), 5),
            lambda: self.triv(3, 2),
            lambda: self.simplicity(("loop", 1), Q),
            lambda: self.end(("loop", 1), 3, 3),
            lambda: self.twist_scalar(("cycle", 5), 3),
        ]


# ---------------------------------------------------------------------------
# algebra
#
# Why: it loads the algebra's normal forms and the groupoid's bisections
# over base-field scalars only.  It touches no extension field, window or
# elimination, so it is the no-change control for certify's layers.


class Algebra:
    TAIL_PERCENTILE = 99  # at least ten samples beyond it in a run at this commit
    TRACE_ROUNDS = 4  # rounds of a traced run: about 7 s untraced at this commit
    GRAPHS = {
        "rose2": gen.rose(2),
        "rose3": gen.rose(3),
        "K3": gen.complete(3),
        "chain3": gen.lasso_chain(3),
        "chain4": gen.lasso_chain(4),
    }
    PI_SIZES = (("rose2", 3), ("rose3", 2), ("K3", 2), ("chain3", 3), ("chain4", 2))
    PRIMES = (3, 5, 7, None)
    PRODUCTS_PER_TASK = 15  # products after each relations or pi-consistency task
    MAX_LEN = 3

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.fields = {p: (FL.QQ if p is None else FL.PrimeField(p)) for p in self.PRIMES}
        self.graphs = {name: _graph(data) for name, data in self.GRAPHS.items()}
        self.algebras = {
            (name, p): AL.LeavittAlgebra(g, self.fields[p])
            for name, g in self.graphs.items()
            for p in self.PRIMES
        }
        self.special = {name: oracles.special_edges(data) for name, data in self.GRAPHS.items()}
        self.edge_src = {name: {e: s for e, s, _ in data[1]} for name, data in self.GRAPHS.items()}
        # Paths as (source, edges), keyed by (range, length), for random monomials.
        self.paths: dict[str, dict[tuple, list[tuple]]] = {}
        for name, (vertices, edges) in self.GRAPHS.items():
            table: dict[tuple, list[tuple]] = {(v, 0): [(v, ())] for v in vertices}
            for length in range(1, self.MAX_LEN + 1):
                for (v, k), ps in list(table.items()):
                    if k == length - 1:
                        for e, s, r in edges:
                            if s == v:
                                table.setdefault((r, length), []).extend((src, q + (e,)) for src, q in ps)
            self.paths[name] = table

    def _path(self, g: GR.Graph, start: str, edges: tuple) -> GR.FinitePath:
        return g.path(edges) if edges else g.vertex_path(start)

    def _element(self, name: str, A, degree: int):
        """A random element, homogeneous of the given degree, with 2-5 terms."""
        g, F, table = A.graph, A.field, self.paths[name]
        terms = {}
        while not terms:
            for _ in range(self.rng.randint(2, 5)):
                keys = [(v, k) for (v, k) in table if (v, k - degree) in table and 0 <= k - degree]
                v, k = self.rng.choice(keys)
                mu = self.rng.choice(table[(v, k)])
                nu = self.rng.choice(table[(v, k - degree)])
                m = AL.monomial(self._path(g, *mu), self._path(g, *nu))
                terms[m] = F.coerce(gen.nonzero_scalar(self.rng, None if F is FL.QQ else F.p))
        return A.element(terms)

    def product(self, name: str, p, dx: int, dy: int) -> Task:
        A = self.algebras[(name, p)]
        x, y = self._element(name, A, dx), self._element(name, A, dy)
        special, edge_src = self.special[name], self.edge_src[name]

        def check(z) -> str | None:
            for m, c in z.terms.items():
                if c == 0:
                    return f"zero coefficient stored for {m}"
                if len(m.mu.edges) - len(m.nu.edges) != dx + dy:
                    return f"term {m} has degree {m.degree}, expected {dx + dy}"
                if not oracles.is_normal(special, edge_src, m.mu.edges, m.nu.edges):
                    return f"term {m} is not in normal form"
            return None

        return Task("product", lambda: A.mul(x, y), check)

    def relations(self, name: str, p) -> Task:
        g, F = self.graphs[name], self.fields[p]
        seed = self.rng.randrange(10**6)
        return Task("relations", lambda: V.verify_relations(g, F, seed=seed, triples=100), _cert_check(True))

    def pi(self, name: str, max_len: int, p) -> Task:
        g, F = self.graphs[name], self.fields[p]
        monos = oracles.monomial_count(self.GRAPHS[name], max_len)

        def check(cert) -> str | None:
            if not cert.passed:
                return f"pi-consistency failed: {cert.counterexample}"
            if cert.window["monomials"] != monos or cert.window["pairs"] != monos * monos:
                return f"window {cert.window}, expected {monos} monomials"
            return None

        return Task("pi_consistency", lambda: V.verify_pi_consistency(g, F, max_len=max_len), check)

    def round(self) -> list[Callable[[], Task]]:
        """Each pi-consistency size and each relations graph once, with products in between."""
        names = tuple(self.GRAPHS)
        big = [
            lambda k=k: self.pi(*self.PI_SIZES[k], self.PRIMES[k % 4]) for k in range(len(self.PI_SIZES))
        ] + [
            lambda k=k: self.relations(names[k], self.PRIMES[(k + 1) % 4]) for k in range(len(names))
        ]
        out = []
        for k, task in enumerate(big[0::2] + big[1::2]):
            out.append(task)
            for i in range(k * self.PRODUCTS_PER_TASK, (k + 1) * self.PRODUCTS_PER_TASK):
                out.append(lambda i=i: self.product(
                    names[i % 5], self.PRIMES[(i // 5) % 4], (i // 5) % 5 - 2, (i // 25) % 5 - 2
                ))
        return out


# ---------------------------------------------------------------------------
# classify
#
# Why: its time goes to cycle and path enumeration in graphs and to fields
# used differently from certify: many small polynomial divisions in
# irreducibility tests, not products in one fixed quotient.  Every graph is
# fresh (random, or a relabelled family member), so caches gain nothing.


class Classify:
    TAIL_PERCENTILE = 90  # at least ten samples beyond it in a run at this commit
    TRACE_ROUNDS = 6  # rounds of a traced run: about 7 s untraced at this commit
    PRIMES = (2, 3, 5, 7)

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.fields = {p: FL.PrimeField(p) for p in self.PRIMES}

    def _graded(self, data: gen.GraphData, bound: int) -> Task:
        g = _graph(data)
        want = oracles.primitive_closed_path_counts(data, bound)
        sinks = oracles.sinks(data)

        def check(res) -> str | None:
            got = Counter(len(f.cycle.edges) for f in res.laurent_families)
            for length, n in want.items():
                if got[length] != n:
                    return f"{got[length]} Laurent families of length {length}, Moebius count gives {n}"
            if sorted(f.vertex for f in res.sink_families) != sinks:
                return "sink families do not match the sinks"
            for f in res.sink_families:
                if f.dimension != oracles.paths_into(data, f.vertex):
                    return f"sink {f.vertex} dimension {f.dimension}"
            return None

        return Task("classify_graded", lambda: C.classify_graded(g, bound), check)

    def graded_complete(self, n: int, bound: int) -> Task:
        return self._graded(gen.relabel(gen.complete(n), self.rng), bound)

    def graded_random(self, bound: int) -> Task:
        return self._graded(gen.random_digraph(self.rng), bound)

    def _simple(self, data: gen.GraphData, p: int, bound: int, dims: bool) -> Task:
        """classify_simple, and with ``dims`` the library's dimension_oracle on every entry.

        dimension_oracle walks every path up to |V| + |c| + 1 edges, which is
        exponential on random digraphs, so it runs only on the families.
        """
        g = _graph(data)
        F = self.fields[p]
        per_cycle = oracles.irreducibles_except_t(p, bound)
        n_cycles = oracles.maximal_cycle_count(data)
        finite_sinks = {v: oracles.paths_into(data, v) for v in oracles.sinks(data)}
        finite_sinks = {v: n for v, n in finite_sinks.items() if n is not None}

        def call():
            res = C.classify_simple(g, F, bound)
            return res, [C.dimension_oracle(g, e) for e in res.entries] if dims else None

        def check(result) -> str | None:
            res, oracle_dims = result
            cycles = Counter(str(e.cycle) for e in res.entries if isinstance(e, C.CycleSimple))
            if len(cycles) != n_cycles:
                return f"{len(cycles)} maximal cycles with entries, expected {n_cycles}"
            if any(k != per_cycle for k in cycles.values()):
                return f"moduli per cycle {sorted(set(cycles.values()))}, Gauss count gives {per_cycle}"
            got_sinks = {e.vertex: e.dimension for e in res.entries if isinstance(e, C.SinkSimple)}
            if got_sinks != finite_sinks:
                return f"sink simples {got_sinks}, expected {finite_sinks}"
            if dims and any(e.dimension != d for e, d in zip(res.entries, oracle_dims)):
                return "an entry disagrees with dimension_oracle"
            return None

        return Task("classify_simple", call, check)

    def simple_random(self, p: int, bound: int) -> Task:
        return self._simple(gen.random_digraph(self.rng), p, bound, dims=False)

    def simple_family(self, family: str, size: int, p: int, bound: int) -> Task:
        make = {
            "loop": gen.tree_into_loop,
            "sink": gen.tree_into_sink,
            "chain": gen.lasso_chain,
            "cycle_exit": lambda n: gen.cycle(n, exit_to_sink=True),
        }[family]
        return self._simple(gen.relabel(make(size), self.rng), p, bound, dims=True)

    def irreducibles(self, p: int, d_max: int) -> Task:
        want = oracles.irreducibles_except_t(p, d_max)

        def check(polys) -> str | None:
            if len(polys) != want:
                return f"{len(polys)} irreducibles over GF({p}) up to degree {d_max}, Gauss count gives {want}"
            if len({f.coeffs for f in polys}) != len(polys):
                return "repeated polynomial"
            return None

        return Task("irreducibles", lambda: FL.enumerate_monic_irreducibles(p, d_max), check)

    def round(self) -> list[Callable[[], Task]]:
        """Every complete graph, irreducible size and family once; random digraphs in between."""
        return [
            lambda: self.graded_complete(5, 6),
            lambda: self.graded_random(3),
            lambda: self.simple_random(2, 6),
            lambda: self.irreducibles(2, 8),
            lambda: self.graded_complete(6, 6),
            lambda: self.graded_random(4),
            lambda: self.simple_random(3, 4),
            lambda: self.simple_family("loop", 3, 5, 3),
            lambda: self.irreducibles(3, 5),
            lambda: self.graded_complete(7, 4),
            lambda: self.graded_random(5),
            lambda: self.simple_random(5, 3),
            lambda: self.irreducibles(5, 4),
            lambda: self.graded_random(6),
            lambda: self.simple_random(7, 2),
            lambda: self.simple_family("chain", 4, 2, 6),
            lambda: self.irreducibles(7, 3),
            lambda: self.simple_family("cycle_exit", 4, 7, 3),
            lambda: self.simple_family("sink", 3, 3, 2),
        ]


# ---------------------------------------------------------------------------
# cli
#
# Why: the only workload where interpreter start, importing the package,
# argument parsing, the text grammars and JSON rendering block the result.
# One client runs ``lpa`` commands one at a time (a closed loop), each a
# fresh process.  Most commands spend little time in the library, so their
# times are interpreter start and import, with a spread of about a quarter
# from one process to the next.  Three graded classifications of K5 with
# cycles up to length 7 per round (about 0.2 s of library work each) are
# the commands where the library's own time counts: they are the p90 tail,
# whose place inside their group keeps it steady from run to run.

LPA = "import sys; from leavitt.cli import main; sys.exit(main())"


@dataclass
class LpaResult:
    code: int
    stdout: str
    stderr: str


def run_lpa(argv: list[str], root: Path, in_process: bool) -> LpaResult:
    """One ``lpa`` command: a fresh interpreter, or ``cli.main`` with captured output."""
    if in_process:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = CLI.main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code if isinstance(exc.code, int) else 2
        return LpaResult(code, out.getvalue(), err.getvalue())
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-c", LPA] + argv,
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=CLI_TIMEOUT_S,
    )
    return LpaResult(proc.returncode, proc.stdout, proc.stderr)


def _lpa_check(code: int, keys: set[str] | None, extra: Callable[[dict], str | None] | None = None):
    def check(res: LpaResult) -> str | None:
        if res.code != code:
            return f"exit {res.code}, expected {code}: {res.stderr.strip()[-200:]}"
        if "Traceback" in res.stderr:
            return "traceback on stderr"
        if keys is None:
            if code == 2 and not res.stderr.strip():
                return "input error without a message"
            return None
        try:
            data = json.loads(res.stdout)
        except json.JSONDecodeError:
            return "stdout is not JSON"
        if set(data) != keys:
            return f"JSON keys {sorted(data)}, expected {sorted(keys)}"
        return extra(data) if extra else None

    return check


CERT_KEYS = {"claim", "window", "checks", "pass", "counterexample"}


class Cli:
    TAIL_PERCENTILE = 90  # at least ten samples beyond it in a run at this commit
    TRACE_ROUNDS = 10  # rounds of a traced run: about 7 s untraced at this commit
    LARGE_BOUND = 7  # cycle length bound of the K5 classifications

    def __init__(self, seed: int, root: Path, out_dir: Path, in_process: bool = False):
        self.rng = random.Random(seed)
        self.root = root
        self.in_process = in_process
        self.dir = out_dir / f"cli-{seed}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.files: dict[str, tuple[str, gen.GraphData]] = {}
        for name, data in (
            ("cycle2", gen.cycle(2)),
            ("cycle3", gen.cycle(3)),
            ("cycle2x", gen.cycle(2, exit_to_sink=True)),
            ("loop1", gen.tree_into_loop(1)),
            ("loop2", gen.tree_into_loop(2)),
            ("sink1", gen.tree_into_sink(1)),
            ("sink2", gen.tree_into_sink(2)),
            ("rose2", gen.rose(2)),
            ("chain2", gen.lasso_chain(2)),
            ("chain3", gen.lasso_chain(3)),
        ):
            self._write(name, data)
        for i in range(6):
            self._write(f"random{i}", gen.random_digraph(self.rng, 2, 5, 0.35))
        self._write("K5", gen.relabel(gen.complete(5), self.rng))
        bad = self.dir / "bad.json"
        bad.write_text('{"vertices": ["u", "v"], "edges": [')
        self.bad_json = str(bad)
        dangling = self.dir / "dangling.json"
        dangling.write_text(json.dumps({"vertices": ["u"], "edges": [{"name": "f", "src": "u", "rng": "v"}]}))
        self.dangling = str(dangling)

    def _write(self, name: str, data: gen.GraphData) -> None:
        path = self.dir / f"{name}.json"
        vertices, edges = data
        path.write_text(json.dumps({
            "vertices": vertices,
            "edges": [{"name": e, "src": s, "rng": r} for e, s, r in edges],
        }))
        self.files[name] = (str(path), data)

    def _task(self, kind: str, argv: list[str], check) -> Task:
        return Task(kind, lambda: run_lpa(argv, self.root, self.in_process), check)

    def _random_graph(self):
        return self.files[f"random{self.rng.randrange(6)}"]

    def validate(self) -> Task:
        path, data = self._random_graph()
        sinks = oracles.sinks(data)

        def extra(d):
            return None if d["ok"] and d["sinks"] == sinks else f"validate gave {d}"

        return self._task("validate", ["validate", path, "--json"], _lpa_check(0, {"ok", "errors", "sinks", "regular"}, extra))

    def act(self) -> Task:
        # An edge into the start of a tree path prepends itself: e . (path) .
        path, _ = self.files["sink2"]
        bits = _bits(self.rng, self.rng.randint(0, 1))
        vec = ".".join(f"t{bits[:k]}" for k in range(len(bits), 0, -1)) or "r"
        child = bits + self.rng.choice("01")
        want = f"t{child}" + (f".{vec}" if bits else "")

        def extra(d):
            return None if d["output"] == want else f"act output {d['output']!r}, expected {want!r}"

        argv = ["act", path, "--json", "--module", "chen:r", "--elt", f"t{child}", "--vec", vec]
        return self._task("act", argv, _lpa_check(0, {"module", "element", "input", "output"}, extra))

    def verify(self, which: str) -> Task:
        if which == "twist":
            name = self.rng.choice(("cycle2", "cycle2x", "loop1"))
            cycle = "l" if name == "loop1" else "a0.a1"
            if self.rng.random() < 0.5:
                extra = ["--modulus", "t^2+t+1", "--field", "F2"]
            else:
                extra = ["--scalar", str(self.rng.choice((2, 3, -1))), "--field", "Q"]
            argv = ["verify", "twist-iso", self.files[name][0], "--cycle", cycle] + extra
        elif which == "triv":
            at = self.rng.choice(("r", "t0", "t1"))
            argv = ["verify", "triv-iso", self.files["sink1"][0], "--at", at, "--twist", f"t0={self.rng.choice((2, 3))}", "--field", "F5"]
        elif which == "nvc":
            name = self.rng.choice(("cycle2", "cycle3"))
            cycle = "a0.a1" if name == "cycle2" else "a1.a2.a0"
            argv = ["verify", "nvc-iso", self.files[name][0], "--cycle", cycle]
        elif which == "res":
            coeff = self.rng.choice(("Ka(2)", "quot(t^2+t+1)"))
            field = "Q" if coeff.startswith("Ka") else "F2"
            argv = ["verify", "res-ind", self.files["loop1"][0], "--at", "(l)^inf", "--coeff", coeff, "--field", field]
        elif which == "relations":
            argv = ["verify", "relations", self.files["rose2"][0], "--triples", "20", "--seed", str(self.rng.randrange(1000))]
        else:
            argv = ["verify", "pi-consistency", self.files["chain2"][0], "--window", "2"]

        def extra(d):
            return None if d["pass"] is True else f"certificate failed: {d['counterexample']}"

        return self._task(f"verify_{which}", argv + ["--json"], _lpa_check(0, CERT_KEYS, extra))

    def _classify_graded(self, kind: str, path: str, data: gen.GraphData, bound: int) -> Task:
        want = sum(oracles.primitive_closed_path_counts(data, bound).values())

        def extra(d):
            got = sum(1 for f in d["families"] if f["kind"] == "laurent")
            return None if got == want else f"{got} Laurent families, expected {want}"

        argv = ["classify", path, "--json", "--graded", "--cycles-up-to", str(bound)]
        return self._task(kind, argv, _lpa_check(0, {"families", "complete", "bounds"}, extra))

    def classify_graded(self) -> Task:
        return self._classify_graded("classify", *self._random_graph(), self.rng.randint(2, 4))

    def classify_large(self) -> Task:
        return self._classify_graded("classify_large", *self.files["K5"], self.LARGE_BOUND)

    def classify_simple(self) -> Task:
        path, _ = self.files[self.rng.choice(("chain2", "chain3", "loop1", "cycle2x"))]
        p = self.rng.choice((2, 3))
        argv = ["classify", path, "--json", "--simple", "--field", f"F{p}", "--poly-deg", "2"]
        return self._task("classify", argv, _lpa_check(0, {"field", "families", "flagged", "complete", "bounds"}))

    def dims(self) -> Task:
        path, _ = self.files[self.rng.choice(("chain2", "loop1", "loop2", "sink2", "cycle2x"))]
        argv = ["dims", path, "--json", "--field", self.rng.choice(("F2", "F3", "Q")), "--poly-deg", "2"]

        def extra(d):
            return None if d["all_match"] is True else "dims: all_match is false"

        return self._task("dims", argv, _lpa_check(0, {"field", "entries", "all_match", "bounds"}, extra))

    def malformed(self, which: str) -> Task:
        good = self.files["cycle2"][0]
        if which == "missing":
            argv = ["validate", str(self.dir / "missing.json")]
        elif which == "bad_json":
            argv = ["classify", self.bad_json, "--graded"]
        elif which == "field":
            argv = ["dims", good, "--field", "F4"]
        elif which == "element":
            argv = ["act", good, "--module", "nvc:a0.a1", "--elt", "a0 + + a1", "--vec", "v0"]
        elif which == "vertex":
            argv = ["verify", "triv-iso", self.files["sink1"][0], "--at", "nowhere"]
        else:
            return self._task("malformed", ["validate", self.dangling, "--json"], _lpa_check(2, {"ok", "errors", "sinks", "regular"}))
        return self._task("malformed", argv, _lpa_check(2, None))

    def round(self) -> list[Callable[[], Task]]:
        """Every command and every malformed input once, and three large classifications."""
        return [
            self.validate,
            lambda: self.verify("twist"),
            self.act,
            lambda: self.malformed("missing"),
            self.classify_large,
            self.classify_graded,
            lambda: self.verify("triv"),
            self.dims,
            lambda: self.malformed("bad_json"),
            self.classify_large,
            lambda: self.verify("nvc"),
            self.classify_simple,
            lambda: self.malformed("field"),
            lambda: self.verify("res"),
            self.classify_large,
            lambda: self.malformed("element"),
            lambda: self.verify("relations"),
            lambda: self.malformed("vertex"),
            lambda: self.verify("pi"),
            lambda: self.malformed("dangling"),
        ]


def setup(name: str, seed: int, root: Path, out_dir: Path, in_process: bool = False):
    """Build a workload's inputs; ``round()`` of the returned object lists its task builders."""
    if name == "certify":
        return Certify(seed)
    if name == "algebra":
        return Algebra(seed)
    if name == "classify":
        return Classify(seed)
    if name == "cli":
        return Cli(seed, root, out_dir, in_process)
    raise ValueError(f"unknown workload {name!r}")
