"""The golden CLI corpus: ``lpa ... --json`` commands with their stored output.

Each line of ``golden/commands.txt`` is a fixture graph name followed by
the ``lpa`` arguments (shell quoting); the graph file is appended as the
last argument.  ``golden/expected.json`` holds each command's stdout and
exit code.  ``tests/test_golden.py`` checks that the CLI still produces
them byte for byte.  After a deliberate change of output, regenerate with

    PYTHONPATH=src python tests/golden_corpus.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shlex
import tempfile
from pathlib import Path

from fixture_graphs import FIXTURE_GRAPHS
from leavitt.cli import main
from leavitt.graphs import Graph

HERE = Path(__file__).resolve().parent / "golden"
COMMANDS = HERE / "commands.txt"
EXPECTED = HERE / "expected.json"


def load_commands() -> list[str]:
    lines = COMMANDS.read_text().splitlines()
    return [line for line in lines if line.strip() and not line.startswith("#")]


def write_graphs(directory: Path) -> dict[str, str]:
    paths = {}
    for name, (vertices, edges) in FIXTURE_GRAPHS.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(Graph(vertices, edges).to_json_dict()))
        paths[name] = str(path)
    return paths


def run_command(line: str, graph_paths: dict[str, str]) -> tuple[int, str]:
    """(exit code, stdout) of one corpus line, run in-process."""
    name, *argv = shlex.split(line)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv + [graph_paths[name]])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue()


def regenerate() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_graphs(Path(tmp))
        results = []
        for line in load_commands():
            code, stdout = run_command(line, paths)
            results.append({"command": line, "exit": code, "stdout": stdout})
    EXPECTED.write_text(json.dumps(results, indent=1) + "\n")
    print(f"wrote {len(results)} results to {EXPECTED}")


if __name__ == "__main__":
    regenerate()
