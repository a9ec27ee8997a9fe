"""The independent-set count against the recursion, closed forms and formulas."""

from __future__ import annotations

import hashlib
import importlib.util
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treecount.counting
import treecount.polynomials
from treecount.coloring import _gallai_edmonds, canonical_coloring, dimension
from treecount.counting import (
    CensusClass,
    CensusReport,
    InconsistentModeError,
    Mode,
    PhiAssignment,
    PhiError,
    PhiKind,
    _carried_size_vectors,
    _count_sets_by_size,
    _weigh_by_size,
    all_phi_assignments,
    census,
    closed_form_a,
    closed_form_d,
    closed_form_e,
    count_polynomial,
    reciprocity_report,
    resolve_phi,
    resolve_tree_phi,
    versal_by_independent_sets,
)
from treecount.families import d_tree, e_tree, linear_tree, star_tree
from treecount.groupoid import rank_profile
from treecount.matchings import count_maximum_independent_sets, independent_set_size_counts
from treecount.polynomials import Poly, Q
from treecount.trees import (
    Tree,
    _free_tree_parents,
    _greedy_mates,
    emit_graph6,
    enumerate_free_trees,
    parse_graph6,
)
from conftest import colored, prufer_decode, trees_up_to
from oracles import CountEngine, orange_unimodal_chain
from test_trees import relabel, seeded_prufer_tree


def test_base_cases():
    assert count_polynomial(linear_tree(2)) == Q**2 + 1
    assert count_polynomial(Tree(1, ()), "versal") == Q**2 - Q + 1
    assert count_polynomial(Tree(1, ()), "generic") == Q - 1
    assert count_polynomial(linear_tree(3), "generic") == Q**3 - 1


def test_phi_resolution():
    t = linear_tree(3)
    _, part = colored(t)
    assert resolve_phi(part, "versal").kinds == (PhiKind.VERSAL,)
    assert resolve_phi(colored(linear_tree(4))[1], "generic").kinds == ()
    with pytest.raises(PhiError):
        resolve_phi(part, None)
    with pytest.raises(PhiError, match="assignment length"):
        resolve_phi(part, PhiAssignment(()))
    with pytest.raises(PhiError):
        resolve_phi(part, {5: "generic"})
    with pytest.raises(PhiError):
        resolve_phi(part, {})
    with pytest.raises(PhiError):
        resolve_phi(part, "bogus")
    with pytest.raises(PhiError):
        resolve_phi(part, {0: "bogus"})
    with pytest.raises(PhiError):
        count_polynomial(linear_tree(4), "bogus")
    with pytest.raises(PhiError):
        resolve_phi(part, ("generic",))
    with pytest.raises(PhiError):
        count_polynomial(linear_tree(3), ["versal"])
    twostars = Tree(8, ((0, 3), (1, 3), (2, 3), (3, 7), (4, 7), (5, 7), (6, 7)))
    _, part2 = colored(twostars)
    mixed = resolve_phi(part2, {0: "generic", 4: "versal"})
    assert mixed.kinds == (PhiKind.GENERIC, PhiKind.VERSAL)
    kinds = resolve_tree_phi(twostars, {0: "generic", 4: "versal"}).kinds
    assert kinds[0] is PhiKind.GENERIC and kinds[6] is PhiKind.VERSAL


def test_closed_form_a_examples():
    assert closed_form_a(1, Mode.VERSAL) == Q**2 - Q + 1
    assert closed_form_a(2, Mode.ORANGE) == Q**2 + 1
    assert closed_form_a(7, Mode.GENERIC) == (Q**2 + 1) * (Q**5 - 1)
    with pytest.raises(InconsistentModeError):
        closed_form_a(2, Mode.GENERIC)
    with pytest.raises(InconsistentModeError):
        closed_form_a(3, Mode.ORANGE)
    with pytest.raises(ValueError, match="n >= 1"):
        closed_form_a(0, Mode.ORANGE)


def test_closed_form_d_examples():
    assert closed_form_d(4, Mode.GENERIC) == (Q**2 - 1) ** 2
    assert closed_form_d(5, Mode.GENERIC) == Q**5 - 1
    with pytest.raises(InconsistentModeError):
        closed_form_d(4, Mode.ORANGE)
    with pytest.raises(ValueError):
        closed_form_d(3, Mode.GENERIC)


def test_closed_form_e_examples():
    assert closed_form_e(6, Mode.ORANGE) == (Q**2 - Q + 1) * (
        Q**4 + Q**3 + Q**2 + Q + 1
    )
    assert closed_form_e(7, Mode.VERSAL) == (Q**2 - Q + 1) * (Q**6 + 1)
    with pytest.raises(InconsistentModeError):
        closed_form_e(6, Mode.VERSAL)
    with pytest.raises(InconsistentModeError):
        closed_form_e(7, Mode.ORANGE)
    with pytest.raises(ValueError, match="n >= 5"):
        closed_form_e(4, Mode.ORANGE)


def test_a7_e7_coincidence():
    expected = (Q**2 + 1) * (Q**5 - 1)
    assert closed_form_a(7, Mode.GENERIC) == expected
    assert closed_form_e(7, Mode.GENERIC) == expected
    assert count_polynomial(linear_tree(7), "generic") == expected
    assert count_polynomial(e_tree(7), "generic") == expected


# Names that only the oracles or the tests call; they live in
# tests/oracles.py or next to the tests that use them.
TEST_ONLY_NAMES = (
    "coloring_by_fixpoint",
    "Forest",
    "remove_vertices",
    "maximum_matching_avoiding",
    "maximum_matching_containing",
    "CountEngine",
    "ChainEngine",
    "branch_length",
    "orange_unimodal_chain",
    "relabel",
    "seeded_prufer_tree",
    "automorphism_count",
    "_rooted_aut",
    "_factorial",
    "check_local_description",
    "formal_genericity",
    "grow_admissible",
    "is_admissible",
    "_next_rooted",
    "_second_child",
    "prufer_decode",
    "euler_characteristic",
)


def test_counting_holds_only_the_production_path():
    """The recursion and chain oracles live in tests/oracles.py, apart from
    the count they check and outside the installed package, and no
    production module or the package defines a test-only name."""
    assert importlib.util.find_spec("treecount.oracles") is None
    table = {
        treecount.counting: ("canonical_key",),
        treecount.trees: (),
        treecount.coloring: (),
        treecount.matchings: (),
        treecount.groupoid: (),
        treecount.polynomials: ("ONE",),
        treecount: (),
    }
    for module, names in table.items():
        defined = vars(module)
        for name in (*names, *TEST_ONLY_NAMES):
            assert name not in defined, (module.__name__, name)


def test_cli_import_loads_no_test_only_code():
    """A fresh ``import treecount.cli``, with the tests importable as well,
    loads neither the oracles nor a test module, and none of the modules it
    loads defines a test-only name.  The test-side modules (``oracles``,
    ``conftest``, ``test_*``) are listed like the package's, so loading any
    of them fails the check."""
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(
        filter(None, [str(root / "src"), str(root / "tests"), os.environ.get("PYTHONPATH")])
    )
    code = (
        "import sys, treecount.cli\n"
        "for name, mod in sorted(sys.modules.items()):\n"
        "    if name.split('.')[0] == 'treecount' or name.startswith('test_')"
        " or name in ('conftest', 'oracles'):\n"
        "        print(name, *sorted(set(vars(mod)) & set(sys.argv[1:])))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, *TEST_ONLY_NAMES],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = out.stdout.splitlines()
    assert "treecount.cli" in loaded
    for line in loaded:
        assert line.startswith("treecount") and " " not in line, line


def test_recursion_matches_closed_forms():
    """The leaf/domino recursion; criterion 1 checks count_polynomial."""
    count = CountEngine().count
    for n in range(1, 13):
        t = linear_tree(n)
        if n % 2 == 0:
            assert count(t, None) == closed_form_a(n, Mode.ORANGE)
        else:
            assert count(t, "generic") == closed_form_a(n, Mode.GENERIC)
            assert count(t, "versal") == closed_form_a(n, Mode.VERSAL)
    for n in range(4, 13):
        assert count(d_tree(n), "generic") == closed_form_d(n, Mode.GENERIC)
        assert count(d_tree(n), "versal") == closed_form_d(n, Mode.VERSAL)
    for n in range(5, 13):
        t = e_tree(n)
        if n % 2 == 0:
            assert count(t, None) == closed_form_e(n, Mode.ORANGE)
        else:
            assert count(t, "generic") == closed_form_e(n, Mode.GENERIC)
            assert count(t, "versal") == closed_form_e(n, Mode.VERSAL)


def test_monic_degree_law():
    for t in trees_up_to(9):
        _, part = colored(t)
        for phi in all_phi_assignments(part):
            p = count_polynomial(t, phi)
            versal_rank = sum(
                comp.dimension
                for comp, k in zip(part, phi.kinds)
                if k is PhiKind.VERSAL
            )
            assert p.is_monic and p.degree == t.n + versal_rank


def test_weigh_by_size_requires_one_empty_set():
    """c_0 sets the leading coefficient, so c_0 != 1 is the only way the
    weighted sum can miss being monic of the given degree."""
    assert _weigh_by_size((1, 1), 2) == (Q - 1) ** 2 + Q
    with pytest.raises(AssertionError, match="empty set"):
        _weigh_by_size((2, 1), 2)
    with pytest.raises(AssertionError):
        _weigh_by_size((1, 1), 1)


def _weigh_by_poly(counts, exponent):
    """The weighted sum in plain :class:`Poly` arithmetic."""
    out = Poly()
    for k, c in enumerate(counts):
        out = out + c * (Q - 1) ** (exponent - 2 * k) * Q**k
    return out


@st.composite
def counts_and_exponent(draw):
    counts = [1] + draw(st.lists(st.integers(0, 2**300), max_size=40))
    return counts, 2 * (len(counts) - 1) + draw(st.integers(0, 40))


@given(counts_and_exponent())
@settings(max_examples=60, deadline=None)
def test_weigh_by_size_matches_poly_arithmetic(case):
    """The packed Horner pass reads every signed coefficient off its slot."""
    counts, exponent = case
    assert _weigh_by_size(counts, exponent) == _weigh_by_poly(counts, exponent)


def test_weigh_by_size_fixed_cases():
    """Empty sums, a long trailing (q-1) power, and single large entries.

    c_t = 2**m - 1 with e = 2t < m gives a_t = c_t + (-1)**t * C(2t, t) and
    the width bound c_t + 2**e, which has m + 1 bits.  With m = 8w - 1 and t
    even that is 8w bits and a_t >= 2**(8w - 1), so a slot of 8w bits with
    no spare sign bit overflows.
    """
    assert _weigh_by_size([1], 0) == Poly.const(1)
    assert _weigh_by_size([1], 5) == (Q - 1) ** 5
    star = star_tree(1000)
    resolved = resolve_tree_phi(star, "generic")
    colors = resolved.coloring.colors
    counts = _count_sets_by_size(star.order, star.parent, colors, resolved.kinds)
    assert _weigh_by_size(counts, star.n) == _weigh_by_poly(counts, star.n)
    for m, t in ((8, 1), (16, 2), (16, 7), (7, 2), (15, 4), (23, 6), (63, 30)):
        counts = [1] + [0] * t
        counts[t] = 2**m - 1
        assert _weigh_by_size(counts, 2 * t) == _weigh_by_poly(counts, 2 * t)


def test_choice_independence():
    """Randomizing the recursion's peeled leaf and split domino never changes
    results."""
    for t in trees_up_to(8):
        _, part = colored(t)
        for phi in all_phi_assignments(part):
            base = CountEngine().count(t, phi)
            for seed in range(5):
                assert CountEngine(random.Random(seed)).count(t, phi) == base


def test_count_matches_recursion_everywhere():
    """The independent-set count equals the leaf/domino recursion on every
    (tree, phi) pair with n <= 10."""
    engine = CountEngine()
    pairs = 0
    for t in trees_up_to(10):
        _, part = colored(t)
        for phi in all_phi_assignments(part):
            assert count_polynomial(t, phi) == engine.count(t, phi)
            pairs += 1
    assert pairs == 504


@st.composite
def tree_with_phi(draw, max_n=40):
    n = draw(st.integers(min_value=1, max_value=max_n))
    size = max(n - 2, 0)
    seq = draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size))
    t = prufer_decode(seq, n)
    _, part = colored(t)
    kind = st.sampled_from(["generic", "versal"])
    kinds = draw(st.lists(kind, min_size=len(part), max_size=len(part)))
    return t, {comp.min_vertex: k for comp, k in zip(part, kinds)} or None


@given(tree_with_phi())
@settings(max_examples=100, deadline=None)
def test_count_matches_recursion_random(pair):
    t, phi = pair
    assert count_polynomial(t, phi) == CountEngine().count(t, phi)


def test_count_long_path():
    assert count_polynomial(linear_tree(1201), "versal") == closed_form_a(1201, Mode.VERSAL)


@pytest.mark.parametrize("n", [301, 302])
def test_count_matches_closed_forms_at_large_n(n):
    """The packed size-polynomials at a few hundred vertices."""
    path_modes = (Mode.ORANGE,) if n % 2 == 0 else (Mode.GENERIC, Mode.VERSAL)
    for family, closed_form, modes in (
        (linear_tree, closed_form_a, path_modes),
        (d_tree, closed_form_d, (Mode.GENERIC, Mode.VERSAL)),
        (e_tree, closed_form_e, path_modes),
    ):
        for mode in modes:
            phi = None if mode is Mode.ORANGE else mode.value
            assert count_polynomial(family(n), phi) == closed_form(n, mode), (family, mode)


def test_reciprocity_large_random_tree():
    t = seeded_prufer_tree(400, 2014)
    _, part = colored(t)
    p = count_polynomial(t, "generic")
    rep = reciprocity_report(p, rank_profile(part, [True] * len(part)).rank)
    assert rep.divisible and rep.reciprocal


def _tree_of(parent):
    n = len(parent)
    return Tree(n, tuple(zip(parent[1:], range(1, n))))


def _census_trees(n, dim):
    for parent in _free_tree_parents(n):
        if _greedy_mates(range(n - 1, -1, -1), parent).count(-1) == dim:
            yield _tree_of(parent)


def test_size_vector_is_the_independence_polynomial():
    """On orange and all-versal trees no independent set is excluded, so the
    size vector c is the independence polynomial; that is why bucketing the
    census on c is bucketing on N."""
    cases = [(t, None) for n in range(1, 15) for t in _census_trees(n, 0)]
    cases += [(t, "versal") for n in range(1, 14) for t in _census_trees(n, 1)]
    assert len(cases) == 253 + 419
    # the widest slots: i(star) = 2**600 + 1
    cases += [(star_tree(600), "versal"), (seeded_prufer_tree(400, 2014), "versal")]
    for t, phi in cases:
        resolved = resolve_tree_phi(t, phi)
        c = _count_sets_by_size(t.order, t.parent, resolved.coloring.colors, resolved.kinds)
        assert c == independent_set_size_counts(t), emit_graph6(t)


def test_carried_size_vectors_equal_the_kernel():
    """The census's carried fold gives, for every tree it keeps with n <= 16
    (deficiency 0 or 1), and for every array of the unpruned walk with
    n <= 12, the size vector :func:`_count_sets_by_size` computes afresh on
    the same array."""
    arrays = 0
    for n in range(1, 17):
        walks = [_free_tree_parents(n, 0), _free_tree_parents(n, 1)]
        if n <= 12:
            walks.append(_free_tree_parents(n))
        for walk in walks:
            for parent, c in _carried_size_vectors(n, walk):
                want = _count_sets_by_size(range(n - 1, -1, -1), parent, None, (None,) * n)
                assert c == want, parent
                arrays += 1
    assert arrays == 2734 + 987  # kept, then unpruned


def test_kernel_takes_any_rooting():
    """The size vector of every (tree, phi) pair with n <= 11 is the same
    from the pre-order parent array the census walks, vertices n-1..0, as
    from the tree's own rooting at every root: the tree is relabelled so
    that the root becomes vertex 0, with its colors and kinds."""
    pairs = 0
    for n in range(1, 12):
        for parent in _free_tree_parents(n):
            t = _tree_of(parent)
            _, partition = colored(t)
            for phi in all_phi_assignments(partition):
                resolved = resolve_tree_phi(t, phi)
                colors, kinds = resolved.coloring.colors, resolved.kinds
                c = _count_sets_by_size(range(n - 1, -1, -1), parent, colors, kinds)
                for root in range(n):
                    perm = list(range(n))
                    perm[0], perm[root] = root, 0  # an involution
                    rooted = relabel(t, perm)
                    moved = [colors[perm[v]] for v in range(n)]
                    moved_kinds = [kinds[perm[v]] for v in range(n)]
                    got = _count_sets_by_size(
                        rooted.order, rooted.parent, moved, moved_kinds
                    )
                    assert got == c, (
                        emit_graph6(t),
                        phi,
                        root,
                    )
                pairs += 1
    assert pairs == 1186


def test_census_colors_through_canonical_coloring_in_no_class(
    coloring_calls, monkeypatch
):
    """Every census tree is counted, and a unimodal-generic one colored, off
    its parent array: no class calls :func:`canonical_coloring`, and no
    :class:`Tree` is built, not even for the graph6 of a collision bucket."""
    built = []
    init = Tree.__init__

    def counted_init(self, n, edges):
        built.append(n)
        init(self, n, edges)

    monkeypatch.setattr(Tree, "__init__", counted_init)
    reports = [
        census(12, CensusClass.ORANGE),
        census(11, CensusClass.UNIMODAL_VERSAL),
        census(11, CensusClass.UNIMODAL_GENERIC),
    ]
    assert reports[2].tree_count == 76
    assert coloring_calls == []
    assert sum(len(b) for rep in reports for b in rep.collisions) > 0
    assert built == []


def test_census_colors_equal_canonical_coloring(monkeypatch):
    """The colors the unimodal-generic census reads off each parent array
    are those of :func:`canonical_coloring` on the tree, for every tree it
    keeps with n <= 15."""
    seen = []

    def recorded(nbrs, mate):
        colors = _gallai_edmonds(nbrs, mate)
        edges = tuple((u, v) for u, vs in enumerate(nbrs) for v in vs if u < v)
        seen.append((len(nbrs), edges, colors))
        return colors

    monkeypatch.setattr(treecount.counting, "_gallai_edmonds", recorded)
    for n in range(1, 16):
        seen.clear()
        rep = census(n, CensusClass.UNIMODAL_GENERIC)
        assert len(seen) == rep.tree_count
        for size, edges, colors in seen:
            assert size == n
            assert tuple(colors) == canonical_coloring(Tree(n, edges)).colors


def test_versal_by_independent_sets_examples(figure_tree):
    assert versal_by_independent_sets(Tree(1, ())) == Q**2 - Q + 1
    assert versal_by_independent_sets(linear_tree(2)) == Q**2 + 1
    assert versal_by_independent_sets(linear_tree(3)) == (Q**5 + 1).divexact(Q + 1)
    assert versal_by_independent_sets(figure_tree) == count_polynomial(
        figure_tree, "versal"
    )


def test_versal_by_independent_sets_everywhere():
    for t in trees_up_to(10):
        assert versal_by_independent_sets(t) == count_polynomial(t, "versal")


def test_versal_by_independent_sets_long_path():
    assert versal_by_independent_sets(linear_tree(201)) == closed_form_a(201, Mode.VERSAL)


def euler_characteristic(t: Tree) -> int:
    """Value of the all-versal count at q = 1; checked against vc(T)."""
    value = count_polynomial(t, PhiKind.VERSAL)(1)
    vc = count_maximum_independent_sets(t)
    if value != vc:
        raise AssertionError(
            f"Euler characteristic {value} != maximum-independent-set count {vc}"
        )
    return value


def test_euler_characteristic_examples(figure_tree):
    assert euler_characteristic(linear_tree(3)) == 1
    assert euler_characteristic(Tree(1, ())) == 1
    assert euler_characteristic(figure_tree) == 2


def test_euler_characteristic_everywhere():
    for t in trees_up_to(10):
        assert euler_characteristic(t) == count_maximum_independent_sets(t)


def test_reciprocity_examples():
    rep = reciprocity_report(Q**3 - 1, 1)
    assert rep.divisible and rep.reciprocal and rep.quotient == Q**2 + Q + 1
    rep = reciprocity_report(Q**2 + 1, 0)
    assert rep.divisible and rep.reciprocal
    rep = reciprocity_report((Q**2 - 1) ** 2, 2)
    assert rep.divisible and rep.reciprocal and rep.quotient == (Q + 1) ** 2
    rep = reciprocity_report(Q**2 + 1, 1)
    assert not rep.divisible and not rep.reciprocal


def test_reciprocity_everywhere():
    for t in trees_up_to(9):
        _, part = colored(t)
        for phi in all_phi_assignments(part):
            p = count_polynomial(t, phi)
            rank = rank_profile(
                part, [k is PhiKind.GENERIC for k in phi.kinds]
            ).rank
            rep = reciprocity_report(p, rank)
            assert rep.divisible and rep.reciprocal


def test_chain_examples():
    assert orange_unimodal_chain(linear_tree(4)) == Q**4 + Q**2 + 1
    assert orange_unimodal_chain(linear_tree(3)) == (Q**5 + 1).divexact(Q + 1)
    assert orange_unimodal_chain(e_tree(6)) == closed_form_e(6, Mode.ORANGE)
    assert orange_unimodal_chain(Tree(1, ())) == Q**2 - Q + 1
    with pytest.raises(ValueError):
        orange_unimodal_chain(d_tree(4))  # dimension 2


def test_chain_matches_recursion():
    for t in trees_up_to(11):
        d = dimension(t)
        if d == 0:
            assert orange_unimodal_chain(t) == count_polynomial(t)
        elif d == 1:
            assert orange_unimodal_chain(t) == count_polynomial(t, "versal")


def test_census_spot_checks():
    rep = census(2, CensusClass.ORANGE)
    assert rep.tree_count == 1 and rep.distinct_polynomial_count == 1
    rep = census(10, CensusClass.ORANGE)
    assert rep.tree_count == 15 and rep.distinct_polynomial_count == 13
    assert len(rep.collisions) == 2
    rep = census(9, CensusClass.UNIMODAL_VERSAL)
    assert rep.tree_count == 20 and rep.distinct_polynomial_count == 19
    rep = census(7, CensusClass.UNIMODAL_GENERIC)
    assert rep.tree_count == 6 and rep.distinct_polynomial_count == 5
    # the deficiency n - 2|M| has the parity of n, so the pruned walk must
    # find nothing in these classes
    for rep in (census(12, CensusClass.UNIMODAL_VERSAL), census(13, CensusClass.ORANGE)):
        assert (rep.tree_count, rep.distinct_polynomial_count, rep.collisions) == (0, 0, ())


def test_census_guard():
    from treecount.coloring import SizeGuardError

    with pytest.raises(SizeGuardError):
        census(21, CensusClass.ORANGE)


def reference_census(n, census_class):
    """The census built the slow way: a Tree per free tree, colored to find
    its dimension."""
    target = 0 if census_class is CensusClass.ORANGE else 1
    phi = {
        CensusClass.ORANGE: None,
        CensusClass.UNIMODAL_VERSAL: PhiKind.VERSAL,
        CensusClass.UNIMODAL_GENERIC: PhiKind.GENERIC,
    }[census_class]
    buckets = {}
    for t in enumerate_free_trees(n):
        if dimension(t) == target:
            buckets.setdefault(count_polynomial(t, phi), []).append(emit_graph6(t))
    ordered = sorted(buckets.items(), key=lambda kv: kv[0].coeffs)
    return CensusReport(
        n=n,
        census_class=census_class,
        tree_count=sum(len(g6s) for g6s in buckets.values()),
        distinct_polynomial_count=len(buckets),
        collisions=tuple(tuple(g6s) for _, g6s in ordered if len(g6s) > 1),
        polynomials=tuple(p for p, _ in ordered),
    )


@pytest.mark.parametrize("census_class", list(CensusClass))
def test_census_matches_reference(census_class):
    for n in range(1, 14):
        assert census(n, census_class) == reference_census(n, census_class), n


def test_census_at_the_enumeration_bound():
    orange = census(16, CensusClass.ORANGE)
    assert (orange.tree_count, orange.distinct_polynomial_count) == (701, 472)
    versal = census(15, CensusClass.UNIMODAL_VERSAL)
    assert (versal.tree_count, versal.distinct_polynomial_count) == (1361, 945)


def test_census_past_sixteen():
    """census(18, orange).  These numbers were cross-checked once, outside
    the suite, against building, coloring and counting every one of the
    123,867 trees; this test pins them."""
    orange = census(18, CensusClass.ORANGE)
    assert (orange.tree_count, orange.distinct_polynomial_count) == (2891, 1852)


def test_census_at_the_guard():
    """census(20, orange).  These are the numbers the unpruned walk of all
    823,065 trees gave; this test pins them for the pruned walk."""
    orange = census(20, CensusClass.ORANGE)
    assert (orange.tree_count, orange.distinct_polynomial_count) == (12371, 7530)


def _report_digest(rep: CensusReport) -> str:
    """sha256 of a whole census report: both counts, the coefficients of
    every polynomial and the collision buckets, each in report order."""
    body = repr(
        (
            rep.tree_count,
            rep.distinct_polynomial_count,
            tuple(p.coeffs for p in rep.polynomials),
            rep.collisions,
        )
    )
    return hashlib.sha256(body.encode()).hexdigest()[:16]


# Digests of the reports given by the walk that reads its validity test off
# slices (tests/oracles.py).  Sizes with no tree in the class (odd n for
# orange, even n for unimodal) are left out.
CENSUS_DIGESTS = {
    CensusClass.ORANGE: {
        2: "f04795393672e750",
        4: "2d9137efd18d3578",
        6: "faf530a870d95c4c",
        8: "193de703e9bc68a1",
        10: "748e86f95a02608d",
        12: "6d7a1be4ccea2849",
        14: "9992217c1f184e13",
    },
    CensusClass.UNIMODAL_VERSAL: {
        1: "cf3b3e7438ff94b8",
        3: "8a2127277e20a851",
        5: "730e4ba3d7efd5e2",
        7: "0ac48b4e1fafe7b2",
        9: "3e6f48e0e87ef81e",
        11: "371cf5e9764b1cb2",
        13: "634eff9ac982d4ab",
    },
    CensusClass.UNIMODAL_GENERIC: {
        1: "bad1d6a52ef9cac1",
        3: "dba396841ddabd44",
        5: "51aa33ec6bfdd666",
        7: "0fd3e18e795b8672",
        9: "a0491aef26ff4949",
        11: "416b985c69af129f",
        13: "87f5aed0f708115d",
    },
}


def test_census_reports_are_pinned():
    """Whole reports, collision representatives and their order included,
    hash as pinned: census(n, orange) for n <= 14, both unimodal classes for
    n <= 13."""
    for census_class, digests in CENSUS_DIGESTS.items():
        for n, digest in digests.items():
            assert _report_digest(census(n, census_class)) == digest, (census_class, n)


def test_quoted_collision_pairs_have_equal_polynomials():
    a = parse_graph6("IhGGOC@?G")
    b = parse_graph6("IhC_GCA?G")
    assert count_polynomial(a) == count_polynomial(b)
    c = parse_graph6("IhGGOCA?G")
    d = parse_graph6("IhGH?C@?G")
    assert count_polynomial(c) == count_polynomial(d)
    assert count_polynomial(a) != count_polynomial(c)
    e = parse_graph6("HhCGOCA")
    f = parse_graph6("HhGGGG@")
    assert count_polynomial(e, "versal") == count_polynomial(f, "versal")
