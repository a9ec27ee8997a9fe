"""The command-line surface: outputs, JSON stability, exit codes."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from treecount.cli import build_parser, main, phi_spec_parse
from treecount.coloring import _label_components, _parent_roles
from treecount.counting import (
    CensusClass,
    PhiAssignment,
    PhiError,
    PhiKind,
    all_phi_assignments,
    census,
    count_polynomial,
)
from treecount.families import d_tree, e_tree, family_tree, linear_tree, star_tree
from treecount.matchings import (
    count_maximum_independent_sets,
    independent_set_size_counts,
    independent_sets,
)
from treecount.fqoracle import PrimeCheck, VerifyReport
from treecount.trees import Tree, emit_graph6, parse_graph6
from conftest import colored, prufer_decode, trees_up_to


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_count_family_a2(capsys):
    # an empty --phi is no choice, which a tree without components needs
    for phi in ((), ("--phi", "")):
        code, out, _ = run(capsys, "count", "--family", "A", "--n", "2", *phi)
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
        capsys, "count", "--family", "A", "--n", "3", "--phi", "generic", "--json"
    )
    payload = json.loads(out)
    assert {k: payload[k] for k in ("coeffs", "degree", "rank")} == {
        "coeffs": [-1, 0, 0, 1], "degree": 3, "rank": 1
    }
    # --json is the one JSON form; the old --format json is refused
    with pytest.raises(SystemExit) as exc:
        main(["count", "--family", "A", "--n", "3", "--phi", "generic", "--format", "json"])
    assert exc.value.code == 2 and "invalid choice" in capsys.readouterr().err


def test_count_colors_once(capsys, coloring_calls, role_passes):
    """``count`` resolves phi once, a per-component mapping too, off one
    role pass, and builds no :class:`Coloring`."""
    for phi in ("generic", "0=generic"):
        code, out, _ = run(
            capsys, "count", "--family", "D", "--n", "6", "--phi", phi, "--json"
        )
        assert code == 0 and json.loads(out)["rank"] == 2
    assert role_passes == [6, 6]
    assert coloring_calls == []


def test_oracle_and_verify_resolve_phi_once(capsys, coloring_calls, role_passes):
    """``oracle`` and ``verify`` resolve phi once as well, a per-component
    mapping against the input's numbering too, and hand the result on."""
    for command in (["oracle", "--q", "3"], ["verify", "--primes", "3"]):
        for phi in ("generic", "0=generic"):
            code, _, _ = run(capsys, *command, "--family", "D", "--n", "6", "--phi", phi)
            assert code == 0, (command, phi)
    assert role_passes == [6] * 4
    assert coloring_calls == []


def test_json_reports_reproduce_up_to_timestamp(capsys):
    argv = ["census", "--n", "8", "--class", "orange", "--json"]
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    a, b = json.loads(out1), json.loads(out2)
    a.pop("generated_at")
    b.pop("generated_at")
    assert a == b


@pytest.mark.parametrize(
    ("edges", "phi", "message"),
    [
        # a 6-vertex path is orange: no index names a component
        ("1 2\n2 3\n3 4\n4 5\n5 6\n", "1=generic", "indexed by vertex 1"),
        ("0 1\n1 2\n2 3\n3 4\n4 5\n", "0=generic", "indexed by vertex 0"),
        # two stars, components at input vertices 1 and 5 (1-based), 0 and 4
        ("1 4\n2 4\n3 4\n4 9\n5 9\n6 9\n7 9\n8 9\n", "1=generic", "indexed by [5]"),
        ("0 3\n1 3\n2 3\n3 8\n4 8\n5 8\n6 8\n7 8\n", "0=generic", "indexed by [4]"),
    ],
    ids=["path-1-based", "path-0-based", "stars-1-based", "stars-0-based"],
)
def test_phi_errors_name_vertices_as_the_input_numbers_them(
    capsys, tmp_path, edges, phi, message
):
    path = tmp_path / "edges.txt"
    path.write_text(edges, encoding="utf-8")
    for command in (["count"], ["oracle", "--q", "3"], ["verify", "--primes", "3"]):
        code, out, err = run(capsys, *command, "--edges", str(path), "--phi", phi)
        assert code == 2 and message in err and out == "", (command, err)


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


def test_sets_lists_the_admissible_sets(capsys):
    code, out, _ = run(capsys, "sets", "--family", "E", "--n", "7", "--admissible")
    assert code == 0
    assert out.splitlines() == ["admissible sets (1):", "  component 0: 1^+ 4^- 6^+"]


def test_sets_count_only_matches_the_oracles(capsys):
    """``sets --independent --count-only`` reads i(T) and vc(T) off one
    size vector; the folds of :mod:`treecount.matchings` agree."""
    rng = random.Random(200)
    trees = [
        Tree(1, ()),
        star_tree(30),
        linear_tree(40),
        *(d_tree(n) for n in range(4, 13)),
        *(e_tree(n) for n in range(5, 13)),
        prufer_decode([rng.randrange(200) for _ in range(198)], 200),
    ]
    for t in trees:
        argv = ("sets", "--graph6", emit_graph6(t), "--independent", "--count-only")
        code, out, _ = run(capsys, *argv, "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["independent_sets"] == sum(independent_set_size_counts(t))
        assert payload["maximum_independent_sets"] == count_maximum_independent_sets(t)


def test_sets_lists_the_independent_sets(capsys):
    want = [sorted(s) for s in independent_sets(d_tree(6))]
    argv = ("sets", "--family", "D", "--n", "6", "--independent")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines() == [f"independent sets ({len(want)}):"] + [
        "  {" + ",".join(map(str, s)) + "}" for s in want
    ]
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0 and json.loads(out)["independent_sets"] == want


def test_sets_count_only_past_the_enumeration_guard(capsys):
    """Counting independent sets enumerates none of them, so it is not held
    to the n <= 24 guard; listing them still is."""
    argv = ("sets", "--family", "A", "--n", "30", "--independent", "--count-only")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines() == [
        "independent sets: 2178309",
        "maximum independent sets: 16",
    ]
    code, out, _ = run(capsys, *argv, "--json")
    payload = json.loads(out)
    assert (payload["independent_sets"], payload["maximum_independent_sets"]) == (
        2178309,
        16,
    )
    code, _, err = run(capsys, *argv[:-1])
    assert code == 3 and "n <= 24" in err


def test_sets_colors_only_for_admissible(capsys, coloring_calls):
    """Only ``--admissible`` reads the coloring, so the other flags never
    compute it."""
    argv = ("sets", "--family", "A", "--n", "30", "--independent", "--count-only")
    assert run(capsys, *argv)[0] == 0
    assert run(capsys, "sets", "--family", "A", "--n", "8", "--matchings")[0] == 0
    assert coloring_calls == []
    assert run(capsys, *argv, "--admissible")[0] == 0
    assert coloring_calls == [30]


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


def test_oracle_without_generic_parameters(capsys):
    """Over F_2 no parameter of the single vertex passes the genericity
    condition, so the oracle reports the count as skipped."""
    argv = ("oracle", "--family", "A", "--n", "1", "--phi", "generic", "--q", "2")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.strip() == "q=2: no generic parameters"
    code, out, _ = run(capsys, *argv, "--json")
    payload = json.loads(out)
    assert code == 0 and (payload["count"], payload["skipped"]) == (None, True)


def test_family_dispatch():
    assert family_tree("E", 7) == e_tree(7)
    assert family_tree(" d ", 5) == d_tree(5)
    with pytest.raises(ValueError, match="unknown family"):
        family_tree("B", 4)
    for build, arg in ((linear_tree, 0), (star_tree, -1), (d_tree, 3), (e_tree, 4)):
        with pytest.raises(ValueError):
            build(arg)


def test_input_errors_are_not_phi_errors(capsys):
    """--family without --n and ``sets`` with nothing to list are input
    errors, raised as plain ValueError and reported with exit code 2."""
    for argv, message in (
        (["count", "--family", "A", "--phi", "versal"], "--family needs --n"),
        (["sets", "--family", "A", "--n", "3"], "pick at least one of"),
    ):
        args = build_parser().parse_args(argv)
        with pytest.raises(ValueError, match=message) as exc:
            args.run(args)
        assert type(exc.value) is ValueError
        code, out, err = run(capsys, *argv)
        assert code == 2 and message in err and out == ""


def test_exit_code_parse_error(capsys):
    code, _, err = run(capsys, "color", "--graph6", "!!")
    assert code == 2 and "error" in err
    for phi in ((), ("--phi", "")):
        code, _, err = run(capsys, "count", "--family", "A", "--n", "3", *phi)
        assert code == 2 and "a phi choice is required" in err
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
    # a prime far past the budget is settled at once and refused by the guard
    code, _, err = run(
        capsys, "verify", "--family", "A", "--n", "1", "--phi", "generic",
        "--primes", str(10**18 + 3),
    )
    assert code == 3 and err.startswith("guard: ")


def test_guard_on_a_large_prime_is_quick():
    """Deciding that q = 10**18 + 3 is prime takes no time, so the oracle's
    work-budget guard, not the primality test, ends the run."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    argv = ["oracle", "--family", "A", "--n", "1", "--phi", "generic", "--q", str(10**18 + 3)]
    out = subprocess.run(
        [sys.executable, "-m", "treecount.cli", *argv],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=5,
    )
    assert out.returncode == 3 and out.stderr.startswith("guard: ")


def test_verify_max_n_guard_fails_fast(capsys, monkeypatch):
    """Above the enumeration bound, verify --max-n stops before any sweep."""
    import treecount.cli as cli

    def no_sweep(*args, **kwargs):
        raise AssertionError("verified a tree before checking --max-n")

    monkeypatch.setattr(cli, "_verify_one", no_sweep)
    code, _, err = run(capsys, "verify", "--max-n", "21", "--primes", "2")
    assert code == 3 and "guard" in err


def test_verify_max_n_below_one_is_rejected(capsys, monkeypatch):
    """verify --max-n 0 would sweep no tree and pass vacuously."""
    import treecount.cli as cli

    def no_sweep(*args, **kwargs):
        raise AssertionError("verified a tree before checking --max-n")

    monkeypatch.setattr(cli, "_verify_one", no_sweep)
    for max_n in ("0", "-3"):
        code, out, err = run(capsys, "verify", "--max-n", max_n, "--primes", "2")
        assert code == 2 and "at least one vertex" in err and "PASS" not in out


def test_verify_max_n_rejects_phi_and_n(capsys, monkeypatch):
    """verify --max-n sweeps every tree under every choice, so a --phi or
    --n given with it would be ignored."""
    import treecount.cli as cli

    def no_sweep(*args, **kwargs):
        raise AssertionError("verified a tree before checking --phi and --n")

    monkeypatch.setattr(cli, "_verify_one", no_sweep)
    for extra in (["--phi", "nonsense"], ["--phi", "versal"], ["--n", "3"]):
        code, out, err = run(capsys, "verify", "--max-n", "3", *extra, "--primes", "3")
        assert code == 2 and "--max-n" in err and "PASS" not in out


def _pair_count(max_n: int) -> int:
    """(tree, phi) pairs with n <= max_n, as verify --max-n sweeps them."""
    return sum(len(all_phi_assignments(colored(t)[1])) for t in trees_up_to(max_n))


def test_verify_max_n_sweeps_every_pair(capsys):
    """Every (tree, phi) is checked at every prime, and every row's expected
    values are N(q) of its tree under the phi it lists, whose kinds are in
    order of the components' smallest vertex.  The label pass numbers the
    components of 2 trees at n = 8 and 3 at n = 9 out of that order, so an
    assignment mapped in pass order fails here."""
    code, out, _ = run(capsys, "verify", "--max-n", "9", "--primes", "2,3", "--json")
    payload = json.loads(out)
    assert code == 0 and payload["verdict"] == "PASS"
    assert len(payload["results"]) == _pair_count(9) == 221
    kind_of = {k.value[0]: k for k in PhiKind}
    unordered = {}
    for row in payload["results"]:
        assert [c["q"] for c in row["checks"]] == [2, 3]
        assert all(c["status"] != "mismatch" for c in row["checks"])
        t = parse_graph6(row["graph6"])
        kinds = tuple(kind_of[k] for k in row["phi"].split(",") if k != "-")
        poly = count_polynomial(t, PhiAssignment(kinds))
        assert [c["expected"] for c in row["checks"]] == [poly(2), poly(3)], row
        low = _label_components(t.order, t.parent, _parent_roles(t.order, t.parent)[0])[1]
        if low != sorted(low):
            unordered[row["graph6"]] = t.n
    assert sorted(unordered.values()) == [8, 8, 9, 9, 9]


def test_verify_max_n_resolves_each_tree_once(capsys, monkeypatch, coloring_calls, role_passes):
    """The sweep runs one role pass and one label pass per tree, resolves
    every assignment off them and builds no coloring."""
    import treecount.counting as counting

    label_passes: list[int] = []

    def counted(order, parent, role):
        label_passes.append(len(parent))
        return _label_components(order, parent, role)

    monkeypatch.setattr(counting, "_label_components", counted)
    code, _, _ = run(capsys, "verify", "--max-n", "8", "--primes", "2")
    sizes = [t.n for t in trees_up_to(8)]
    assert code == 0 and len(sizes) == 48
    assert role_passes == label_passes == sizes
    assert coloring_calls == []


def test_verify_max_n_reports_each_mismatch(capsys, monkeypatch):
    """A mismatch in the sweep prints one FAIL line per pair and exits 4."""
    import treecount.cli as cli

    def mismatch(t, resolved, primes, force):
        return VerifyReport(tuple(PrimeCheck(q, "mismatch", -1, 0) for q in primes))

    monkeypatch.setattr(cli, "_verify_resolved", mismatch)
    code, out, err = run(capsys, "verify", "--max-n", "2", "--primes", "2")
    fails = [line for line in out.splitlines() if line.startswith("FAIL ") and " phi=" in line]
    assert code == 4 and "verification failure" in err
    assert len(fails) == _pair_count(2) and "q=2:mismatch(-1)" in fails[0]


def test_verify_max_n_json_failures_keep_stdout_json(capsys, monkeypatch):
    """Under --json a failing sweep writes its FAIL lines to stderr, so that
    stdout is the one JSON record, and still exits 4."""
    import treecount.cli as cli

    def mismatch(t, resolved, primes, force):
        return VerifyReport(tuple(PrimeCheck(q, "mismatch", -1, 0) for q in primes))

    monkeypatch.setattr(cli, "_verify_resolved", mismatch)
    code, out, err = run(capsys, "verify", "--max-n", "2", "--primes", "2", "--json")
    record = json.loads(out)
    assert code == 4 and record["verdict"] == f"FAIL ({_pair_count(2)} mismatches)"
    assert all(c["status"] == "mismatch" for row in record["results"] for c in row["checks"])
    fails = [line for line in err.splitlines() if line.startswith("FAIL ")]
    assert len(fails) == _pair_count(2)


def test_census_lists_collisions(capsys):
    rep = census(7, CensusClass.UNIMODAL_GENERIC)
    code, out, _ = run(
        capsys, "census", "--n", "7", "--class", "unimodal-generic", "--list-collisions"
    )
    lines = [line for line in out.splitlines() if line.startswith("collision:")]
    assert code == 0 and len(rep.collisions) == 1
    assert lines == ["collision: " + " ".join(bucket) for bucket in rep.collisions]


def test_input_option_without_its_input_is_rejected(capsys, monkeypatch):
    """--n applies only to --family and --indexing only to --edges; given
    with another input they would be ignored."""
    import treecount.cli as cli

    def no_sweep(*args, **kwargs):
        raise AssertionError("verified a tree before checking --indexing")

    monkeypatch.setattr(cli, "_verify_one", no_sweep)
    code, out, err = run(capsys, "verify", "--max-n", "2", "--indexing", "1", "--primes", "3")
    assert code == 2 and "--indexing" in err and "PASS" not in out
    code, out, err = run(capsys, "count", "--graph6", "@", "--n", "5", "--phi", "versal")
    assert code == 2 and "--n" in err and out == ""


def test_force_is_an_option_of_oracle_and_verify_only(capsys):
    """Only the F_q oracle has a work-budget guard that --force overrides."""
    for argv in (
        ["color", "--graph6", "A_", "--force"],
        ["census", "--n", "21", "--class", "orange", "--force"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2 and "--force" in capsys.readouterr().err
    code, out, _ = run(
        capsys, "oracle", "--family", "A", "--n", "3", "--phi", "generic",
        "--q", "5", "--force",
    )
    assert code == 0 and out.strip() == "q=5: 124 points"


def test_verify_non_integer_prime_is_named(capsys):
    code, out, err = run(
        capsys, "verify", "--family", "A", "--n", "5", "--phi", "versal", "--primes", "2,x"
    )
    assert code == 2 and "'x'" in err and "invalid literal" not in err and out == ""
    code, out, err = run(
        capsys, "verify", "--family", "A", "--n", "5", "--phi", "versal", "--primes", ","
    )
    assert code == 2 and "at least one prime" in err and out == ""


def test_count_repeated_phi_index_is_rejected(capsys):
    code, out, err = run(
        capsys, "count", "--family", "A", "--n", "5", "--phi", "0=versal,0=generic"
    )
    assert code == 2 and "index 0" in err and out == ""


def test_exit_code_mismatch(capsys, monkeypatch):
    import treecount.fqoracle as fq

    # verify_polynomial counts each prime through the private _count_plan
    monkeypatch.setattr(fq, "_count_plan", lambda *a, **k: -1)
    code, out, err = run(
        capsys, "verify", "--family", "A", "--n", "2", "--primes", "2"
    )
    assert code == 4 and "verification failure" in err


def test_phi_spec_parse():
    assert phi_spec_parse("generic") == "generic"
    assert phi_spec_parse(None) is None
    assert phi_spec_parse("0=generic,2=versal") == {0: "generic", 2: "versal"}
    # spaces around a key or a value are dropped alike
    assert phi_spec_parse("0 = generic, 2= versal ") == {0: "generic", 2: "versal"}
    assert phi_spec_parse(" 0 =generic") == {0: "generic"}
    with pytest.raises(PhiError):
        phi_spec_parse("0=purple")
    with pytest.raises(PhiError):
        phi_spec_parse("nonsense")
    with pytest.raises(PhiError, match="'x'"):
        phi_spec_parse("x=versal")
    with pytest.raises(PhiError, match="twice for component index 0"):
        phi_spec_parse("0=versal,0=generic")
    with pytest.raises(PhiError, match="index 2"):
        phi_spec_parse("2=versal,0=generic,2=versal")


def test_cli_import_does_not_load_numpy():
    """The package is pure Python; importing the CLI must not pull numpy in,
    nor the test-side oracles, nor the stdlib modules that one function
    each needs (``fractions`` for the nullity oracle, ``datetime`` for
    ``--json``), nor ``dataclasses`` and the ``inspect`` it loads: the
    records are NamedTuples and plain classes."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, treecount.cli; "
        "print(*(m in sys.modules for m in "
        "('numpy', 'oracles', 'fractions', 'datetime', 'dataclasses', 'inspect')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.split() == ["False"] * 6
