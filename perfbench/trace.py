"""Per-layer tracing from outside the library.

``Tracer.install()`` replaces the names each library module binds to a
boundary function (``leavitt.verify.rref``, ``leavitt.reps.strip_prefix``,
the function's own module, and the package namespace), and the listed
layer methods on their classes (``ExtensionField.mul``, ``Module.act``,
...), with wrappers.  ``uninstall()`` puts the originals back.  The library
itself is not edited.

A boundary has one of three kinds:

* ``SPAN``: timed, and a span (name, start, end, parent span, task id) is
  kept in memory and written out at the end;
* ``TIMED``: timed for self time and counted, no span kept (hot calls);
* ``COUNT``: counted only; its time stays with the caller (hottest calls).

Self time of a layer is the time inside its timed boundaries minus the
time of timed boundaries entered from there.  Work in library code that
sits behind no listed boundary (base-field arithmetic, ``Graph`` methods)
counts toward the layer that called it.  The benchmark's own time inside a
task (argument passing, the lambda) is the ``bench`` share, so the layer
self times and ``bench`` add up to the traced task time.

Wrappers record nothing outside a task, so building inputs and checking
results do not show up in the counts.
"""

from __future__ import annotations

import functools
import importlib
import json
from pathlib import Path
from time import perf_counter

LAYERS = ("fields", "graphs", "algebra", "groupoid", "reps", "linalg", "verify", "classify", "textform", "cli")
BENCH = len(LAYERS)  # index of the benchmark's own share of task time

SPAN, TIMED, COUNT = "span", "timed", "count"
MAX_SPANS = 300_000


def _paths(result) -> int:
    return len(result.paths) if hasattr(result, "paths") else len(result)


def _add(key: str, amount):
    """An observer adding ``amount(result, args)`` to a counter."""
    def observe(counts, result, args):
        counts[key] = counts.get(key, 0) + amount(result, args)
    return observe


def _rref_shape(counts, result, args):
    rows = args[1]
    for key, n in (
        ("linalg.rref.entries", len(rows) * (len(rows[0]) if rows else 0)),
        ("linalg.rref.rows", len(rows)),
        ("linalg.rref.rank", len(result[0])),
    ):
        counts[key] = counts.get(key, 0) + n


def _window_dim(counts, result, args):
    counts["verify.window_dim_max"] = max(counts.get("verify.window_dim_max", 0), args[0].dim)


_PATHS = _add("graphs.paths_enumerated", lambda r, a: _paths(r))


# (layer, target, kind, counter name or None, observer or None).  A target
# "Class.method" wraps the method on that class; a plain name wraps the
# module-level function wherever a library module binds it.
BOUNDARIES = [
    ("fields", "ExtensionField.mul", TIMED, "fields.ext_mul.calls", None),
    ("fields", "ExtensionField.inv", TIMED, "fields.ext_inv.calls", None),
    ("fields", "Poly.divmod", TIMED, "fields.poly_divmod.calls", None),
    ("fields", "is_irreducible", TIMED, "fields.is_irreducible.calls",
     _add("fields.is_irreducible.hits", lambda r, a: r is True)),
    ("fields", "enumerate_monic_irreducibles", SPAN, None, None),
    ("fields", "parse_field", SPAN, None, None),
    ("fields", "parse_poly", TIMED, None, None),
    ("graphs", "strip_prefix", TIMED, "graphs.strip_prefix.calls", None),
    ("graphs", "prepend", TIMED, "graphs.prepend.calls", None),
    ("graphs", "elementary_cycles", SPAN, "graphs.elementary_cycles.calls", _PATHS),
    ("graphs", "simple_closed_paths", SPAN, None, _PATHS),
    ("graphs", "enumerate_paths_ending_at", TIMED, None, _PATHS),
    ("graphs", "strongly_connected_components", TIMED, None, None),
    ("graphs", "maximal_cycles", SPAN, None, None),
    ("graphs", "maximal_sinks", TIMED, None, None),
    ("graphs", "count_paths_ending_at", TIMED, None, None),
    ("graphs", "cycle_reaches_vertex", TIMED, None, None),
    ("graphs", "validate", SPAN, None, None),
    ("algebra", "LeavittAlgebra.mul", TIMED, "algebra.mul.calls", None),
    ("algebra", "LeavittAlgebra.mono_mul", COUNT, "algebra.mono_mul.calls",
     _add("algebra.mono_mul.nonzero", lambda r, a: r is not None)),
    ("algebra", "LeavittAlgebra.is_normal", COUNT, None,
     _add("algebra.normalize.rewrites", lambda r, a: r is False)),
    ("algebra", "all_monomials", SPAN, "algebra.all_monomials.calls", None),
    ("algebra", "random_element", TIMED, None, None),
    ("groupoid", "bisection", COUNT, "groupoid.bisection.calls", None),
    ("groupoid", "bisection_product", COUNT, None, None),
    ("groupoid", "pi_consistency", TIMED, None, None),
    ("groupoid", "orbit", TIMED, "groupoid.orbit.calls", None),
    ("groupoid", "orbit_size", TIMED, None, None),
    ("groupoid", "canonical_lassos", TIMED, None, None),
    ("reps", "build_module", SPAN, None, None),
    ("reps", "Module.act", TIMED, "reps.act.calls", None),
    ("reps", "ChenModule.act_monomial_basis", COUNT, "reps.act_monomial_basis.calls", None),
    ("reps", "ChenExtModule.act_monomial_basis", COUNT, "reps.act_monomial_basis.calls", None),
    ("reps", "NvcModule.act_monomial_basis", COUNT, "reps.act_monomial_basis.calls", None),
    ("reps", "InducedModule.act_monomial_basis", COUNT, "reps.act_monomial_basis.calls", None),
    ("linalg", "rref", TIMED, "linalg.rref.calls", _rref_shape),
    ("linalg", "nullspace", SPAN, "linalg.nullspace.calls", None),
    ("linalg", "coordinates", TIMED, None, None),
    ("linalg", "mat_mul", TIMED, None, None),
    ("linalg", "mat_vec", TIMED, None, None),
    ("verify", "Window.matrix_of", TIMED, "verify.matrix_of.calls", _window_dim),
    ("verify", "verify_triv_iso", SPAN, None, None),
    ("verify", "verify_twist_iso", SPAN, None, None),
    ("verify", "verify_nvc_iso", SPAN, None, None),
    ("verify", "verify_res_ind", SPAN, None, None),
    ("verify", "verify_relations", SPAN, None, None),
    ("verify", "verify_pi_consistency", SPAN, None, None),
    ("verify", "intertwiner_space", SPAN, None, None),
    ("verify", "simplicity_probe", SPAN, None, None),
    ("verify", "restrict", SPAN, None, None),
    ("verify", "check_module_iso", SPAN, None, None),
    ("classify", "classify_graded", SPAN, None, None),
    ("classify", "classify_simple", SPAN, None, None),
    ("classify", "dimension_oracle", SPAN, None, None),
    ("classify", "moduli_for_field", SPAN, None,
     _add("classify.moduli", lambda r, a: len(r[0]))),
    ("textform", "parse_finite_path", SPAN, None, None),
    ("textform", "parse_boundary_path", SPAN, None, None),
    ("textform", "parse_element", SPAN, None, None),
    ("textform", "parse_vector", SPAN, None, None),
    ("textform", "parse_twist", SPAN, None, None),
    ("textform", "parse_nspec", SPAN, None, None),
    ("textform", "parse_module_spec", SPAN, None, None),
    ("cli", "main", SPAN, None, None),
]

# The per-layer metrics, in BENCHMARK.json order: (name, unit).
PER_LAYER = (
    [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [
        ("fields.ext_mul.calls", "count"),
        ("fields.ext_inv.calls", "count"),
        ("fields.poly_divmod.calls", "count"),
        ("fields.is_irreducible.calls", "count"),
        ("fields.is_irreducible.hit_ratio", "ratio"),
        ("algebra.mul.calls", "count"),
        ("algebra.mono_mul.calls", "count"),
        ("algebra.mono_mul.nonzero_ratio", "ratio"),
        ("algebra.normalize.rewrites", "count"),
        ("algebra.all_monomials.calls", "count"),
        ("groupoid.bisection.calls", "count"),
        ("groupoid.orbit.calls", "count"),
        ("graphs.strip_prefix.calls", "count"),
        ("graphs.prepend.calls", "count"),
        ("graphs.elementary_cycles.calls", "count"),
        ("graphs.paths_enumerated", "count"),
        ("reps.act.calls", "count"),
        ("reps.act_monomial_basis.calls", "count"),
        ("linalg.rref.calls", "count"),
        ("linalg.rref.entries", "count"),
        ("linalg.rref.rank_ratio", "ratio"),
        ("linalg.nullspace.calls", "count"),
        ("verify.matrix_of.calls", "count"),
        ("verify.window_dim_max", "count"),
        ("classify.moduli", "count"),
        ("cli.interpreter_s", "s"),
        ("cli.import_s", "s"),
    ]
    + [(f"{layer}.errors", "count") for layer in LAYERS]
    + [
        ("ref_loop_s", "s"),
        ("trace.untraced_s", "s"),
        ("trace.traced_s", "s"),
        ("trace.overhead_s", "s"),
    ]
)

MARK = "_perfbench_boundary"


def _library_modules():
    pkg = importlib.import_module("leavitt")
    return [pkg] + [importlib.import_module(f"leavitt.{name}") for name in LAYERS]


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # frames: [child time, nearest span id]
        self.self_time = [0.0] * (len(LAYERS) + 1)
        self.errors = [0] * len(LAYERS)
        self.counts: dict[str, int] = {}
        self.spans: list = []
        self.dropped_spans = 0
        self.task_id = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- installing --------------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _library_modules()
        for layer, target, kind, counter, observe in BOUNDARIES:
            home = importlib.import_module(f"leavitt.{layer}")
            if "." in target:
                cls_name, meth = target.split(".")
                owner = getattr(home, cls_name)
                original = owner.__dict__[meth]
                self._patch(owner, meth, self._wrap(layer, target, original, kind, counter, observe))
                continue
            original = getattr(home, target)
            wrapper = self._wrap(layer, target, original, kind, counter, observe)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _wrap(self, layer: str, name: str, original, kind: str, counter, observe):
        li = LAYERS.index(layer)
        stack, self_time, errors, counts, spans = self.stack, self.self_time, self.errors, self.counts, self.spans
        if counter:
            counts.setdefault(counter, 0)
        tracer = self

        if kind == COUNT:
            def wrapper(*args, **kwargs):
                if not stack:
                    return original(*args, **kwargs)
                if counter:
                    counts[counter] += 1
                try:
                    result = original(*args, **kwargs)
                except BaseException:
                    errors[li] += 1
                    raise
                if observe:
                    observe(counts, result, args)
                return result
        else:
            keep_span = kind == SPAN

            def wrapper(*args, **kwargs):
                if not stack:
                    return original(*args, **kwargs)
                if counter:
                    counts[counter] += 1
                parent = stack[-1]
                frame = [0.0, parent[1]]
                sid = -1
                if keep_span:
                    if len(spans) < MAX_SPANS:
                        sid = len(spans)
                        spans.append(None)
                        frame[1] = sid
                    else:
                        tracer.dropped_spans += 1
                stack.append(frame)
                t0 = perf_counter()
                try:
                    result = original(*args, **kwargs)
                except BaseException:
                    errors[li] += 1
                    raise
                finally:
                    t1 = perf_counter()
                    stack.pop()
                    self_time[li] += (t1 - t0) - frame[0]
                    parent[0] += t1 - t0
                    if sid >= 0:
                        spans[sid] = (f"{layer}.{name}", t0, t1, parent[1], tracer.task_id)
                if observe:
                    observe(counts, result, args)
                return result

        functools.update_wrapper(wrapper, original)
        setattr(wrapper, MARK, True)
        return wrapper

    # -- running tasks -------------------------------------------------------------

    def run_task(self, task_id: int, kind: str, call):
        """Run one task as the root span; returns (result or None, error or None, seconds)."""
        self.task_id = task_id
        frame = [0.0, len(self.spans)]
        self.spans.append(None)
        self.stack.append(frame)
        t0 = perf_counter()
        result, error = None, None
        try:
            result = call()
        except Exception as exc:  # a task that raises is a failed task, not a crash
            error = exc
        t1 = perf_counter()
        self.stack.pop()
        self.self_time[BENCH] += (t1 - t0) - frame[0]
        self.spans[frame[1]] = (f"task.{kind}", t0, t1, -1, task_id)
        return result, error, t1 - t0

    # -- results ---------------------------------------------------------------------

    def layer_values(self) -> dict[str, float]:
        c = self.counts
        out = {f"{layer}.self_s": self.self_time[i] for i, layer in enumerate(LAYERS)}
        out.update({f"{layer}.errors": self.errors[i] for i, layer in enumerate(LAYERS)})
        for name, unit in PER_LAYER:
            if unit == "count" and name not in out:
                out[name] = c.get(name, 0)
        out["fields.is_irreducible.hit_ratio"] = _ratio(c.get("fields.is_irreducible.hits", 0), c.get("fields.is_irreducible.calls", 0))
        out["algebra.mono_mul.nonzero_ratio"] = _ratio(c.get("algebra.mono_mul.nonzero", 0), c.get("algebra.mono_mul.calls", 0))
        out["linalg.rref.rank_ratio"] = _ratio(c.get("linalg.rref.rank", 0), c.get("linalg.rref.rows", 0))
        return out

    @property
    def bench_self_s(self) -> float:
        return self.self_time[BENCH]

    def write_spans(self, path: Path) -> int:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for i, (name, t0, t1, parent, task) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0, "end": t1, "parent": parent, "task": task}) + "\n")
        return len(self.spans)


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def assert_untraced() -> None:
    """Raise if any boundary still holds a tracing wrapper."""
    for mod in _library_modules():
        for name, value in vars(mod).items():
            if getattr(value, MARK, False):
                raise RuntimeError(f"tracing wrapper left on leavitt.{mod.__name__}.{name}")
            if isinstance(value, type):
                for meth, fn in vars(value).items():
                    if getattr(fn, MARK, False):
                        raise RuntimeError(f"tracing wrapper left on {value.__name__}.{meth}")
