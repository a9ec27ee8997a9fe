"""The independent-set count against the recursion, closed forms and formulas."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treecount.counting
from treecount.coloring import dimension
from treecount.counting import (
    CensusClass,
    CensusReport,
    InconsistentModeError,
    Mode,
    PhiError,
    PhiKind,
    _count_sets_by_size,
    _weigh_by_size,
    all_phi_assignments,
    census,
    closed_form_a,
    closed_form_d,
    closed_form_e,
    count_polynomial,
    euler_characteristic,
    phi_vertex_kinds,
    reciprocity_report,
    resolve_phi,
    resolve_tree_phi,
    versal_by_independent_sets,
)
from treecount.families import d_tree, e_tree, linear_tree, star_tree
from treecount.groupoid import rank_profile
from treecount.matchings import (
    _matching_deficiency,
    _postorder,
    count_maximum_independent_sets,
    independent_set_size_counts,
)
from treecount.oracles import CountEngine, orange_unimodal_chain
from treecount.polynomials import Q
from treecount.trees import (
    Tree,
    _free_tree_parents,
    _tree_from_parents,
    emit_graph6,
    enumerate_free_trees,
    parse_graph6,
    prufer_decode,
)
from conftest import colored, trees_up_to


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
    twostars = Tree(8, ((0, 3), (1, 3), (2, 3), (3, 7), (4, 7), (5, 7), (6, 7)))
    c2, part2 = colored(twostars)
    mixed = resolve_phi(part2, {0: "generic", 4: "versal"})
    assert mixed.kinds == (PhiKind.GENERIC, PhiKind.VERSAL)
    kinds = phi_vertex_kinds(c2, part2, mixed)
    assert kinds[0] is PhiKind.GENERIC and kinds[6] is PhiKind.VERSAL


def test_closed_form_a_examples():
    assert closed_form_a(1, Mode.VERSAL) == Q**2 - Q + 1
    assert closed_form_a(2, Mode.ORANGE) == Q**2 + 1
    assert closed_form_a(7, Mode.GENERIC) == (Q**2 + 1) * (Q**5 - 1)
    with pytest.raises(InconsistentModeError):
        closed_form_a(2, Mode.GENERIC)
    with pytest.raises(InconsistentModeError):
        closed_form_a(3, Mode.ORANGE)


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


def test_a7_e7_coincidence():
    expected = (Q**2 + 1) * (Q**5 - 1)
    assert closed_form_a(7, Mode.GENERIC) == expected
    assert closed_form_e(7, Mode.GENERIC) == expected
    assert count_polynomial(linear_tree(7), "generic") == expected
    assert count_polynomial(e_tree(7), "generic") == expected


def test_counting_holds_only_the_production_path():
    """The recursion and chain oracles live in treecount.oracles, apart from
    the count they check."""
    names = vars(treecount.counting)
    for name in (
        "CountEngine",
        "ChainEngine",
        "orange_unimodal_chain",
        "branch_length",
        "Forest",
        "remove_vertices",
        "canonical_key",
    ):
        assert name not in names


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


def _seeded_prufer_tree(n, seed):
    rng = random.Random(seed)
    return prufer_decode([rng.randrange(n) for _ in range(n - 2)], n)


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
    t = _seeded_prufer_tree(400, 2014)
    _, part = colored(t)
    p = count_polynomial(t, "generic")
    rep = reciprocity_report(p, rank_profile(part, [True] * len(part)).rank)
    assert rep.divisible and rep.reciprocal


def _census_trees(n, dim):
    for parent in _free_tree_parents(n):
        if _matching_deficiency(parent) == dim:
            yield _tree_from_parents(parent)


def test_size_vector_is_the_independence_polynomial():
    """On orange and all-versal trees no independent set is excluded, so the
    size vector c is the independence polynomial; that is why bucketing the
    census on c is bucketing on N."""
    cases = [(t, None) for n in range(1, 15) for t in _census_trees(n, 0)]
    cases += [(t, "versal") for n in range(1, 14) for t in _census_trees(n, 1)]
    assert len(cases) == 253 + 419
    # the widest slots: i(star) = 2**600 + 1
    cases += [(star_tree(600), "versal"), (_seeded_prufer_tree(400, 2014), "versal")]
    for t, phi in cases:
        resolved = resolve_tree_phi(t, phi)
        c = _count_sets_by_size(*_postorder(t), resolved.coloring.colors, resolved.kinds)
        assert c == independent_set_size_counts(t), emit_graph6(t)


def test_kernel_takes_any_rooting():
    """The size vector of every (tree, phi) pair with n <= 11 is the same
    from the pre-order parent array the census walks, vertices n-1..0, as
    from :func:`_postorder` at every root."""
    pairs = 0
    for n in range(1, 12):
        for parent in _free_tree_parents(n):
            t = _tree_from_parents(parent)
            _, partition = colored(t)
            for phi in all_phi_assignments(partition):
                resolved = resolve_tree_phi(t, phi)
                colors, kinds = resolved.coloring.colors, resolved.kinds
                c = _count_sets_by_size(range(n - 1, -1, -1), parent, colors, kinds)
                for root in range(n):
                    order, rooted = _postorder(t, root)
                    assert _count_sets_by_size(order, rooted, colors, kinds) == c, (
                        emit_graph6(t),
                        phi,
                        root,
                    )
                pairs += 1
    assert pairs == 1186


def test_census_colors_only_generic_trees(coloring_calls):
    """Orange and versal unimodal trees are counted off the parent array with
    no coloring; a unimodal-generic tree is colored once."""
    census(12, CensusClass.ORANGE)
    census(11, CensusClass.UNIMODAL_VERSAL)
    assert coloring_calls == []
    generic = census(11, CensusClass.UNIMODAL_GENERIC)
    assert coloring_calls == [11] * generic.tree_count
    assert generic.tree_count == 76


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
