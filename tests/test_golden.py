"""Byte-identical CLI output over the golden corpus (see golden_corpus.py)."""

import json

import pytest

from golden_corpus import EXPECTED, load_commands, run_command, write_graphs

STORED = {r["command"]: r for r in json.loads(EXPECTED.read_text())}


@pytest.fixture(scope="module")
def graph_paths(tmp_path_factory):
    return write_graphs(tmp_path_factory.mktemp("golden"))


def test_corpus_matches_stored_commands():
    assert load_commands() == list(STORED)


@pytest.mark.parametrize("line", load_commands())
def test_output_is_byte_identical(line, graph_paths):
    code, stdout = run_command(line, graph_paths)
    assert (code, stdout) == (STORED[line]["exit"], STORED[line]["stdout"])
