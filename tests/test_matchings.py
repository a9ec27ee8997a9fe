"""Matchings, independent sets and admissible sets against brute force."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from treecount.coloring import (
    Color,
    RedGreenComponent,
    SizeGuardError,
    all_maximum_matchings,
    dimension,
)
from treecount.counting import _count_sets_by_size
from treecount.families import linear_tree
from treecount.matchings import (
    AdmissibleSet,
    admissible_sets,
    count_maximum_independent_sets,
    independent_set_size_counts,
    independent_sets,
    maximum_matching,
    maximum_matching_size,
    uncovered_vertices,
    _blocks_and_signs,
    _green_adjacency,
)
from treecount.trees import Tree, _free_tree_parents, _greedy_mates, enumerate_free_trees
from conftest import colored, trees_up_to
from oracles import (
    coloring_by_fixpoint,
    maximum_matching_avoiding,
    maximum_matching_containing,
)
from test_trees import random_tree, seeded_prufer_tree


def is_admissible(component: RedGreenComponent, s: frozenset[int]) -> bool:
    if not s or not s <= set(component.reds):
        return False
    for ns in _green_adjacency(component).values():
        k = sum(1 for x in ns if x in s)
        if k not in (0, 2):
            return False
    return True


def grow_admissible(component: RedGreenComponent, u: int) -> AdmissibleSet:
    """An admissible set containing ``u``, by repeated completion: while some
    green sees exactly one member, adopt its smallest other red neighbor."""
    if u not in component.reds:
        raise ValueError(f"vertex {u} is not a red vertex of the component")
    greens = _green_adjacency(component)
    s = {u}
    while True:
        grown = False
        for g in sorted(greens):
            inside = [x for x in greens[g] if x in s]
            if len(inside) == 1:
                extra = next(x for x in greens[g] if x not in s)
                s.add(extra)
                grown = True
                break
        if not grown:
            break
    if not is_admissible(component, frozenset(s)):
        raise AssertionError("completion loop ended on a non-admissible set")
    blocks, sign = _blocks_and_signs(greens.values(), frozenset(s))
    vertices = tuple(sorted(s))
    return AdmissibleSet(vertices, tuple(sign[v] for v in vertices), blocks)


def test_maximum_matching_examples(figure_tree):
    assert maximum_matching(linear_tree(4)) == frozenset({(0, 1), (2, 3)})
    assert len(maximum_matching(linear_tree(3))) == 1
    assert maximum_matching_size(figure_tree) == 3


def test_matching_size_law():
    for t in trees_up_to(12):
        assert 2 * maximum_matching_size(t) == t.n - dimension(t)


def test_parent_array_deficiency_is_the_dimension():
    """The unmatched vertices of the greedy matching of a pre-order parent
    array, as the census walks it, number the dimension: r - g of the
    fixpoint coloring, which reads no matching."""
    for n in range(1, 17):
        walk = zip(_free_tree_parents(n), enumerate_free_trees(n), strict=True)
        for (parent, _), t in walk:
            unmatched = _greedy_mates(range(n - 1, -1, -1), parent).count(-1)
            fixpoint = coloring_by_fixpoint(t)
            assert unmatched == dimension(t)
            colors = fixpoint.colors
            assert unmatched == colors.count(Color.RED) - colors.count(Color.GREEN)


def test_avoiding_examples(figure_tree):
    m = maximum_matching_avoiding(linear_tree(3), 0)
    assert m == frozenset({(1, 2)})
    m = maximum_matching_avoiding(figure_tree, 2)
    assert len(m) == 3 and all(2 not in e for e in m)
    assert m in set(all_maximum_matchings(figure_tree))
    m = maximum_matching_avoiding(linear_tree(7), 6)
    assert m == frozenset({(0, 1), (2, 3), (4, 5)})
    with pytest.raises(ValueError):
        maximum_matching_avoiding(linear_tree(3), 1)  # the middle is green


def test_containing_examples(figure_tree):
    assert maximum_matching_containing(linear_tree(3), (0, 1)) == frozenset({(0, 1)})
    m = maximum_matching_containing(figure_tree, (2, 3))
    assert m == frozenset({(0, 1), (2, 3), (5, 6)})
    m = maximum_matching_containing(linear_tree(5), (1, 2))
    assert m == frozenset({(1, 2), (3, 4)})
    with pytest.raises(ValueError):
        maximum_matching_containing(linear_tree(4), (0, 1))  # orange edge


def test_avoiding_and_containing_everywhere():
    for t in trees_up_to(9):
        c, part = colored(t)
        maxima = set(all_maximum_matchings(t))
        for v in range(t.n):
            if c.colors[v] is Color.RED:
                m = maximum_matching_avoiding(t, v, c)
                assert m in maxima and all(v not in e for e in m)
        for e in t.edges:
            if {c.colors[e[0]], c.colors[e[1]]} == {Color.RED, Color.GREEN}:
                m = maximum_matching_containing(t, e, c)
                assert m in maxima and e in m


def test_uncovered_are_leaves_witness():
    """Some maximum matching misses only leaves, on every red-green tree."""
    for t in trees_up_to(10):
        c, part = colored(t)
        if len(part) != 1 or len(part.components[0].vertices) != t.n:
            continue
        leaves = {v for v in range(t.n) if t.degree(v) <= 1}
        assert any(
            set(uncovered_vertices(t, m)) <= leaves
            for m in all_maximum_matchings(t)
        ), t.edges


# -- independent sets -----------------------------------------------------------

def test_independent_set_examples():
    assert [sorted(s) for s in independent_sets(Tree(1, ()))] == [[], [0]]
    assert len(list(independent_sets(Tree(2, ((0, 1),))))) == 3
    assert len(list(independent_sets(linear_tree(3)))) == 5
    assert count_maximum_independent_sets(linear_tree(3)) == 1
    assert count_maximum_independent_sets(Tree(1, ())) == 1


def test_figure_tree_has_two_maximum_independent_sets(figure_tree):
    assert count_maximum_independent_sets(figure_tree) == 2


def test_counts_match_enumeration():
    for t in trees_up_to(10):
        sets = list(independent_sets(t))
        assert len(set(sets)) == len(sets)
        best = max(len(s) for s in sets)
        assert count_maximum_independent_sets(t) == sum(
            1 for s in sets if len(s) == best
        )
        by_size = independent_set_size_counts(t)
        assert len(by_size) == best + 1
        for size, expected in enumerate(by_size):
            assert expected == sum(1 for s in sets if len(s) == size)


def test_vc_is_the_top_size_count_past_enumeration():
    """vc(T) is the last entry of the size counts and of the counting
    kernel's size vector with no generic vertex, on trees far past brute
    force; the two size counts agree throughout."""
    for t in (linear_tree(201), seeded_prufer_tree(200, 200), seeded_prufer_tree(400, 400)):
        vc = count_maximum_independent_sets(t)
        sizes = independent_set_size_counts(t)
        kernel = _count_sets_by_size(t.order, t.parent)
        assert sizes[-1] == kernel[-1] == vc
        assert sizes == kernel


def test_independent_guard():
    with pytest.raises(SizeGuardError):
        list(independent_sets(linear_tree(25)))


@given(random_tree())
@settings(max_examples=100)
def test_independent_set_count_is_positive(t):
    assert count_maximum_independent_sets(t) >= 1
    assert sum(independent_set_size_counts(t)) >= t.n + 1


# -- admissible sets -------------------------------------------------------------

def test_admissible_examples(figure_tree):
    _, part = colored(linear_tree(3))
    sets = list(admissible_sets(part.components[0]))
    assert [(a.vertices, a.signs) for a in sets] == [((0, 2), (1, -1))]
    _, single = colored(Tree(1, ()))
    assert [a.vertices for a in admissible_sets(single.components[0])] == [(0,)]
    _, fig = colored(figure_tree)
    assert [a.vertices for a in admissible_sets(fig.components[0])] == [(2, 4, 6)]


def test_admissible_matches_exhaustive_filter():
    for t in trees_up_to(10):
        c, part = colored(t)
        for comp in part:
            reds = list(comp.reds)
            found = {a.vertices for a in admissible_sets(comp)}
            expected = set()
            for mask in range(1, 1 << len(reds)):
                s = frozenset(reds[i] for i in range(len(reds)) if mask >> i & 1)
                if is_admissible(comp, s):
                    expected.add(tuple(sorted(s)))
            assert found == expected


def test_admissible_sign_consistency():
    """Opposite signs across every shared green; +1 on each block minimum."""
    for t in trees_up_to(10):
        c, part = colored(t)
        for comp in part:
            green_nbrs = {
                g: [x for x in comp.vertices if t.has_edge(g, x)]
                for g in comp.greens
            }
            for a in admissible_sets(comp):
                signs = dict(zip(a.vertices, a.signs))
                classes = {v: frozenset({v}) for v in a.vertices}
                for g, nbrs in green_nbrs.items():
                    inside = [x for x in nbrs if x in signs]
                    if inside:
                        assert len(inside) == 2
                        assert signs[inside[0]] == -signs[inside[1]]
                        merged = classes[inside[0]] | classes[inside[1]]
                        for x in merged:
                            classes[x] = merged
                # the blocks are the classes of 'shares a green neighbor'
                assert set(map(frozenset, a.blocks)) == set(classes.values())
                assert sum(map(len, a.blocks)) == len(a.vertices)
                for block in a.blocks:
                    assert block[0] == min(block)
                    assert signs[min(block)] == 1


def test_grow_admissible_everywhere():
    for t in trees_up_to(10):
        c, part = colored(t)
        for comp in part:
            for u in comp.reds:
                a = grow_admissible(comp, u)
                assert u in a.vertices
                assert is_admissible(comp, frozenset(a.vertices))
    with pytest.raises(ValueError):
        _, part = colored(linear_tree(3))
        grow_admissible(part.components[0], 1)


def test_grow_admissible_examples():
    _, part = colored(linear_tree(3))
    assert grow_admissible(part.components[0], 0).vertices == (0, 2)
    _, single = colored(Tree(1, ()))
    assert grow_admissible(single.components[0], 0).vertices == (0,)
