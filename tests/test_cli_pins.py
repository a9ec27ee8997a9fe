"""Every subcommand's text and ``--json`` output, pinned byte for byte.

``cli_pins.json`` holds, per case, the exit code and the exact stdout of the
text form and of the ``--json`` form, with the value of ``generated_at`` (the
one run-dependent field) replaced by ``"-"``.  The ``{edges}`` argument is a
1-based edge list of E(7), so the echo of the input's numbering is pinned
too.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from treecount.cli import main

PINS = Path(__file__).with_name("cli_pins.json")

#: E(7) numbered from 1: vertex v of ``family_tree("E", 7)`` is v + 1 here.
E7_ONE_BASED = "1 2\n1 3\n1 5\n3 4\n5 6\n6 7\n"

CASES = {
    "color-orange": ["color", "--family", "A", "--n", "6"],
    "color-HhCGOCA": ["color", "--graph6", "HhCGOCA"],
    "color-single-vertex": ["color", "--graph6", "@"],
    "color-edges": ["color", "--edges", "{edges}"],
    "sets-list-edges": [
        "sets", "--edges", "{edges}", "--matchings", "--independent", "--admissible",
    ],
    "sets-count-edges": [
        "sets", "--edges", "{edges}", "--matchings", "--independent", "--admissible",
        "--count-only",
    ],
    "sets-list-Fi_GO": ["sets", "--graph6", "Fi_GO", "--matchings", "--admissible"],
    "sets-count-D6": [
        "sets", "--family", "D", "--n", "6", "--matchings", "--independent", "--admissible",
        "--count-only",
    ],
    "normalize-D6": ["normalize", "--family", "D", "--n", "6"],
    "normalize-edges": ["normalize", "--edges", "{edges}"],
    "count-pretty": ["count", "--family", "D", "--n", "4", "--phi", "generic"],
    "count-factored": [
        "count", "--family", "D", "--n", "4", "--phi", "generic", "--format", "factored",
    ],
    "count-factored-rank-0": [
        "count", "--graph6", "HhCGOCA", "--phi", "versal", "--format", "factored",
    ],
    "count-edges": ["count", "--edges", "{edges}", "--phi", "1=generic"],
    "oracle-count": ["oracle", "--family", "A", "--n", "1", "--phi", "generic", "--q", "1009"],
    "oracle-skip": ["oracle", "--family", "A", "--n", "1", "--phi", "generic", "--q", "2"],
    "oracle-edges": ["oracle", "--edges", "{edges}", "--phi", "1=versal", "--q", "3"],
    "verify-skipped-prime": [
        "verify", "--graph6", "HhI?GGC", "--phi", "generic", "--primes", "3,5",
    ],
    "verify-edges": ["verify", "--edges", "{edges}", "--phi", "1=generic", "--primes", "3,5"],
    "verify-max-n": ["verify", "--max-n", "5"],
    "census-orange": ["census", "--n", "10", "--class", "orange", "--list-collisions"],
    "census-unimodal-generic": [
        "census", "--n", "9", "--class", "unimodal-generic", "--list-collisions",
    ],
}


def _stamp_free(out: str) -> str:
    return re.sub(r'"generated_at": "[^"]*"', '"generated_at": "-"', out)


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS.read_text(encoding="utf-8"))


def test_pins_cover_every_case(pins):
    assert sorted(pins) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("form", ["text", "json"])
def test_output_is_pinned(name, form, pins, capsys, tmp_path):
    edges = tmp_path / "e7.txt"
    edges.write_text(E7_ONE_BASED, encoding="utf-8")
    argv = [str(edges) if a == "{edges}" else a for a in CASES[name]]
    code = main(argv + (["--json"] if form == "json" else []))
    out = capsys.readouterr().out
    assert (code, _stamp_free(out)) == (pins[name]["code"], pins[name][form])
