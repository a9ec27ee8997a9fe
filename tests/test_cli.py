"""The command-line surface: outputs, JSON stability, exit codes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from treecount.cli import main, phi_spec_parse
from treecount.counting import PhiError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_count_family_a2(capsys):
    code, out, _ = run(capsys, "count", "--family", "A", "--n", "2")
    assert code == 0 and out.strip() == "q^2 + 1"


def test_color_single_vertex(capsys):
    code, out, _ = run(capsys, "color", "--graph6", "@")
    assert code == 0
    assert "vertex 0: red" in out
    assert "dimension: 1" in out


def test_color_json_schema(capsys):
    code, out, _ = run(capsys, "color", "--graph6", "A_", "--json")
    payload = json.loads(out)
    assert payload["colors"] == ["orange", "orange"]
    assert payload["dominoes"] == [[0, 1]]
    assert payload["dimension"] == 0
    assert payload["components"] == []


def test_verify_family_d(capsys):
    code, out, _ = run(
        capsys, "verify", "--family", "D", "--n", "4", "--phi", "generic",
        "--primes", "3,5",
    )
    assert code == 0 and out.startswith("PASS")


def test_count_factored_and_json(capsys):
    code, out, _ = run(
        capsys, "count", "--family", "D", "--n", "4", "--phi", "generic",
        "--format", "factored",
    )
    assert code == 0 and out.strip() == "(q - 1)^2 * (q^2 + 2*q + 1)"
    code, out, _ = run(
        capsys, "count", "--family", "A", "--n", "3", "--phi", "generic",
        "--format", "json",
    )
    payload = json.loads(out)
    assert payload == {"coeffs": [-1, 0, 0, 1], "degree": 3, "rank": 1}


def test_count_colors_once(capsys, coloring_calls):
    code, out, _ = run(
        capsys, "count", "--family", "D", "--n", "6", "--phi", "generic", "--json"
    )
    assert code == 0 and json.loads(out)["rank"] == 2
    assert coloring_calls == [6]


def test_json_reports_reproduce_up_to_timestamp(capsys):
    argv = ["census", "--n", "8", "--class", "orange", "--json"]
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    a, b = json.loads(out1), json.loads(out2)
    a.pop("generated_at")
    b.pop("generated_at")
    assert a == b


def test_mixed_phi_spec(capsys, tmp_path):
    # a 3-leaf star and a 4-leaf star joined center to center:
    # components indexed by smallest vertices 0 and 4
    edges = "0 3\n1 3\n2 3\n3 8\n4 8\n5 8\n6 8\n7 8\n"
    path = tmp_path / "twostars.txt"
    path.write_text(edges, encoding="utf-8")
    code, out, _ = run(
        capsys, "count", "--edges", str(path), "--phi", "4=generic,0=versal"
    )
    assert code == 0
    code2, out2, _ = run(
        capsys, "count", "--edges", str(path), "--phi", "0=generic,4=versal"
    )
    assert code2 == 0 and out != out2  # the split matters


def test_one_based_edge_list_echo(capsys, tmp_path):
    for name, text in [
        ("p3.txt", "1 2\n2 3\n"),
        ("commented.txt", "# vertex 0 absent\n1 2\n2 3\n"),
    ]:
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        code, out, _ = run(capsys, "color", "--edges", str(path))
        assert code == 0 and "vertex 1: red" in out and "vertex 3: red" in out
        assert "vertex 0:" not in out
        code, out, _ = run(capsys, "count", "--edges", str(path), "--phi", "1=generic")
        assert code == 0 and out.strip() == "q^3 - 1"


def test_sets_subcommand(capsys):
    code, out, _ = run(
        capsys, "sets", "--family", "A", "--n", "3",
        "--matchings", "--independent", "--admissible", "--count-only",
    )
    assert code == 0
    assert "maximum matchings: 2" in out
    assert "independent sets: 5" in out
    assert "admissible sets: 1" in out


def test_normalize_subcommand(capsys):
    code, out, _ = run(capsys, "normalize", "--family", "A", "--n", "3", "--json")
    payload = json.loads(out)
    assert payload["coefficients"]["0"] == {"0": 1, "2": -1}


def test_oracle_subcommand(capsys):
    code, out, _ = run(
        capsys, "oracle", "--family", "A", "--n", "3", "--phi", "generic",
        "--q", "5", "--json",
    )
    assert code == 0 and json.loads(out)["count"] == 124


def test_exit_code_parse_error(capsys):
    code, _, err = run(capsys, "color", "--graph6", "!!")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "count", "--family", "A", "--n", "3")
    assert code == 2  # phi required
    code, _, err = run(capsys, "count", "--family", "A", "--n", "3", "--phi", "bogus")
    assert code == 2


def test_exit_code_guard(capsys):
    code, _, err = run(capsys, "census", "--n", "21", "--class", "orange")
    assert code == 3 and "guard" in err
    code, _, err = run(
        capsys, "oracle", "--family", "A", "--n", "12", "--q", "7",
        "--phi", "versal",
    )
    assert code == 3


def test_verify_max_n_guard_fails_fast(capsys, monkeypatch):
    """Above the enumeration bound, verify --max-n stops before any sweep."""
    import treecount.cli as cli

    def no_sweep(*args, **kwargs):
        raise AssertionError("verified a tree before checking --max-n")

    monkeypatch.setattr(cli, "_verify_one", no_sweep)
    code, _, err = run(capsys, "verify", "--max-n", "21", "--primes", "2")
    assert code == 3 and "guard" in err


def test_exit_code_mismatch(capsys, monkeypatch):
    import treecount.fqoracle as fq
    import treecount.cli as cli

    monkeypatch.setattr(cli, "count_points", lambda *a, **k: -1)
    monkeypatch.setattr(fq, "count_points", lambda *a, **k: -1)
    code, out, err = run(
        capsys, "verify", "--family", "A", "--n", "2", "--primes", "2"
    )
    assert code == 4 and "verification failure" in err


def test_phi_spec_parse():
    assert phi_spec_parse("generic") == "generic"
    assert phi_spec_parse(None) is None
    assert phi_spec_parse("0=generic,2=versal") == {0: "generic", 2: "versal"}
    with pytest.raises(PhiError):
        phi_spec_parse("0=purple")
    with pytest.raises(PhiError):
        phi_spec_parse("nonsense")


def test_cli_import_does_not_load_numpy():
    """The package is pure Python; importing the CLI must not pull numpy in,
    nor the test-only oracles."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, treecount.cli; "
        "print('numpy' in sys.modules, 'treecount.oracles' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.split() == ["False", "False"]
