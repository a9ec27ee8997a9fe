"""The coloring four ways, its stability, and the dimension lemmas."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings

from treecount.coloring import (
    Color,
    Coloring,
    SizeGuardError,
    _label_components,
    _parent_roles,
    adjacency_nullity,
    all_maximum_matchings,
    canonical_coloring,
    coloring_by_matchings,
    coloring_by_vertex_covers,
    dimension,
    minimum_vertex_covers,
    red_green_components,
)
from treecount.families import linear_tree, star_tree
from treecount.matchings import independent_set_size_counts
from treecount.trees import Tree, enumerate_free_trees
from conftest import colored, trees_up_to
from oracles import coloring_by_fixpoint, remove_vertices
from test_trees import random_tree, relabel, seeded_prufer_tree

R, O, G = Color.RED, Color.ORANGE, Color.GREEN
ROLE_OF = {O: 0, R: 1, G: 2}


def relabelled_prufer_trees() -> list[Tree]:
    """Seeded Prüfer trees with 3 <= n <= 200, each relabelled by a seeded
    permutation, so that its rooting is not a pre-order."""
    rng = random.Random(2014)
    out = []
    for n in range(3, 201, 7):
        perm = list(range(n))
        rng.shuffle(perm)
        out.append(relabel(seeded_prufer_tree(n, n), perm))
    assert all(t.order != tuple(range(t.n - 1, -1, -1)) for t in out)
    return out


def check_local_description(t: Tree, c: Coloring) -> None:
    """Assert the local characterization: orange dominoes perfectly match the
    orange forest, greens have >= 2 red neighbors, reds have only green ones."""
    matched: set[int] = set()
    for u, v in c.dominoes:
        if c.colors[u] is not Color.ORANGE or c.colors[v] is not Color.ORANGE:
            raise AssertionError("domino endpoint is not orange")
        if u in matched or v in matched:
            raise AssertionError("dominoes overlap")
        matched.update((u, v))
    for v in range(t.n):
        col = c.colors[v]
        nbr_cols = [c.colors[w] for w in t.neighbors[v]]
        if col is Color.ORANGE and v not in matched:
            raise AssertionError("orange vertex not covered by a domino")
        if col is Color.GREEN and nbr_cols.count(Color.RED) < 2:
            raise AssertionError("green vertex with fewer than two red neighbors")
        if col is Color.RED and any(x is not Color.GREEN for x in nbr_cols):
            raise AssertionError("red vertex with a non-green neighbor")


def test_figure_tree(figure_tree):
    c = canonical_coloring(figure_tree)
    assert c.colors == (O, O, R, G, R, G, R)
    assert c.dominoes == frozenset({(0, 1)})


def test_single_vertex_is_red():
    assert canonical_coloring(Tree(1, ())).colors == (R,)


def test_even_paths_are_orange():
    c = canonical_coloring(linear_tree(4))
    assert c.colors == (O, O, O, O)
    assert c.dominoes == frozenset({(0, 1), (2, 3)})


def test_cover_oracle_examples(figure_tree):
    assert coloring_by_vertex_covers(figure_tree) == canonical_coloring(figure_tree).colors
    assert coloring_by_vertex_covers(Tree(2, ((0, 1),))) == (O, O)
    star3 = Tree(4, ((0, 1), (0, 2), (0, 3)))
    assert coloring_by_vertex_covers(star3) == (G, R, R, R)
    # the minimum covers of the figure tree: both greens plus one orange
    covers = minimum_vertex_covers(figure_tree)
    assert covers and all({3, 5} <= s for s in covers)
    assert sorted(sorted(s) for s in covers) == [[0, 3, 5], [1, 3, 5]]


def test_matching_oracle_examples(figure_tree):
    got = coloring_by_matchings(figure_tree)
    assert got.colors == canonical_coloring(figure_tree).colors
    assert (0, 1) in got.dominoes
    assert all(len(m) == 3 for m in all_maximum_matchings(figure_tree))
    single = coloring_by_matchings(Tree(2, ((0, 1),)))
    assert single.colors == (O, O)
    p3 = coloring_by_matchings(linear_tree(3))
    assert p3.colors == (R, G, R)


def test_oracle_guard():
    big = linear_tree(21)
    with pytest.raises(SizeGuardError):
        coloring_by_vertex_covers(big)
    with pytest.raises(SizeGuardError):
        coloring_by_matchings(big)


def test_triple_agreement_small():
    """Exhaustive three-way agreement at n <= 8 (the acceptance suite
    pushes this to 10)."""
    for t in trees_up_to(8):
        c = canonical_coloring(t)
        assert coloring_by_vertex_covers(t) == c.colors
        m = coloring_by_matchings(t)
        assert m.colors == c.colors
        assert m.dominoes == c.dominoes


def test_local_description_holds():
    for t in trees_up_to(10):
        check_local_description(t, canonical_coloring(t))


def test_order_independence():
    """The fixpoint oracle's result does not depend on its queue order."""
    rng = random.Random(11)
    for t in trees_up_to(9):
        base = coloring_by_fixpoint(t)
        for _ in range(20):
            assert coloring_by_fixpoint(t, rng=rng) == base


def test_parent_roles_equal_the_fixpoint():
    """The roles read off a tree's own rooting (:func:`_parent_roles` on
    ``t.order`` and ``t.parent``) are the colors of the recoloring fixpoint,
    which never looks at a matching, and its i(T) the number of independent
    sets: on every free tree with n <= 10, where the colors also equal those
    of :func:`coloring_by_matchings`, and on seeded Prüfer trees with
    n <= 200 relabelled so that their rooting is not a pre-order.  With the
    dominoes of the greedy matching, :func:`canonical_coloring` equals the
    fixpoint on every free tree with n <= 16, on random trees past a
    thousand vertices, a wide star and a long path."""
    small = [t for n in range(1, 11) for t in enumerate_free_trees(n)]
    prufer = relabelled_prufer_trees()
    for t in small + prufer:
        role, total = _parent_roles(t.order, t.parent)
        colors = coloring_by_fixpoint(t).colors
        assert role == [ROLE_OF[c] for c in colors], t.edges
        assert total == sum(independent_set_size_counts(t)), t.edges
        if t.n <= 10:
            assert coloring_by_matchings(t).colors == colors, t.edges
    assert len(small) + len(prufer) == 201 + 29
    free = (t for n in range(1, 17) for t in enumerate_free_trees(n))
    large = (seeded_prufer_tree(1200, 1200), seeded_prufer_tree(2000, 2000))
    large += (star_tree(1000), linear_tree(1201))
    checked = 0
    for t in itertools.chain(free, large):
        assert canonical_coloring(t) == coloring_by_fixpoint(t), t.edges
        checked += 1
    assert checked == 32508 + 4


@given(random_tree())
@settings(max_examples=150)
def test_local_description_property(t):
    check_local_description(t, canonical_coloring(t))


# -- stability ----------------------------------------------------------------

def _restricted_colors(t, c, keep):
    keep = sorted(keep)
    sub = remove_vertices(t, set(range(t.n)) - set(keep))
    for comp, orig in sub:
        local = canonical_coloring(comp)
        for v in range(comp.n):
            yield orig[v], local.colors[v]


def test_stability_operations():
    for t in trees_up_to(9):
        c = canonical_coloring(t)
        orange = [v for v in range(t.n) if c.colors[v] is O]
        redgreen = [v for v in range(t.n) if c.colors[v] is not O]
        for keep in (orange, redgreen):
            for v, col in _restricted_colors(t, c, keep):
                assert col == c.colors[v], (t.edges, keep)
        for u, v in c.dominoes:
            sub = remove_vertices(t, {u, v})
            for comp, orig in sub:
                local = canonical_coloring(comp)
                for x in range(comp.n):
                    assert local.colors[x] == c.colors[orig[x]]
        for g in range(t.n):
            if c.colors[g] is not G:
                continue
            sub = remove_vertices(t, {g})
            for comp, orig in sub:
                local = canonical_coloring(comp)
                for x in range(comp.n):
                    assert local.colors[x] == c.colors[orig[x]]


def test_stability_red_green_component():
    for t in trees_up_to(9):
        c, part = colored(t)
        for comp in part:
            for v, col in _restricted_colors(t, c, comp.vertices):
                assert col == c.colors[v]


# -- components ---------------------------------------------------------------

def test_components_examples(figure_tree):
    c, part = colored(figure_tree)
    assert len(part) == 1
    assert part.components[0].vertices == (2, 3, 4, 5, 6)
    all_orange = linear_tree(4)
    assert len(colored(all_orange)[1]) == 0
    # two 3-leaf stars joined center to center: green-green bridge is dropped
    twostars = Tree(
        8, ((0, 3), (1, 3), (2, 3), (3, 7), (4, 7), (5, 7), (6, 7))
    )
    c2, part2 = colored(twostars)
    assert [comp.vertices for comp in part2] == [(0, 1, 2, 3), (4, 5, 6, 7)]
    assert all(c2.colors[x] is G for x in (3, 7))
    assert [part2.component_of(v) for v in (0, 3, 7)] == [0, 0, 1]
    assert colored(linear_tree(2))[1].component_of(0) == -1  # orange


def test_every_component_red_leaves_only():
    for t in trees_up_to(10):
        c, part = colored(t)
        for comp in part:
            degree = {v: 0 for v in comp.vertices}
            for u, v in comp.edges:
                degree[u] += 1
                degree[v] += 1
            for v, d in degree.items():
                if d == 1 and comp.vertices != (v,):
                    assert c.colors[v] is R


def _components_by_union_find(t, colors):
    """The red-green partition rebuilt independently: union-find over the
    edges with one red and one green end, as (vertices, edges, reds,
    greens) per component, in order of the smallest vertex."""
    root = list(range(t.n))

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    rg_edges = [(u, v) for u, v in t.edges if {colors[u], colors[v]} == {R, G}]
    for u, v in rg_edges:
        root[find(u)] = find(v)
    blocks = {}
    for v in range(t.n):
        if colors[v] is not O:
            blocks.setdefault(find(v), []).append(v)
    out = []
    for vertices in sorted(blocks.values()):
        members = set(vertices)
        out.append((
            tuple(vertices),
            tuple(e for e in rg_edges if e[0] in members),
            tuple(v for v in vertices if colors[v] is R),
            tuple(v for v in vertices if colors[v] is G),
        ))
    return out


def test_components_equal_union_find():
    """Every field of every component, in order, equals a union-find
    rebuild: on every free tree with n <= 12, seeded random trees up to 400
    vertices with many components, the 1-vertex tree, a wide star and a
    long path."""
    free = (t for n in range(1, 13) for t in enumerate_free_trees(n))
    large = [seeded_prufer_tree(n, seed) for n in (40, 100, 200, 400) for seed in range(5)]
    large += [Tree(1, ()), star_tree(1000), linear_tree(1201)]
    most = 0
    for t in itertools.chain(free, large):
        c = canonical_coloring(t)
        part = red_green_components(t, c)
        got = [(p.vertices, p.edges, p.reds, p.greens) for p in part]
        assert got == _components_by_union_find(t, c.colors), t.edges
        most = max(most, len(part))
    assert most >= 20


def test_labels_equal_union_find():
    """The labels of :func:`_label_components` are the components of the
    union-find rebuild, with the smallest vertex and the dimension r - g of
    each, numbered in the order the pass reaches them, parents first: on
    every free tree with n <= 10 and on the relabelled Prüfer trees, whose
    rooting is not a pre-order.  Sorted by that vertex, they come in the
    union-find's order.  Flipping one role fires each of its checks: a red
    leaf turned green is a green leaf, and a green turned orange next to a
    red leaf leaves that red with no red-green edge."""
    flips = {"green leaf": 0, "red vertex missing": 0}
    unsorted = 0  # trees whose pass reaches the components out of that order
    small = [t for n in range(1, 11) for t in enumerate_free_trees(n)]
    for t in small + relabelled_prufer_trees():
        role, _ = _parent_roles(t.order, t.parent)
        colors = [(O, R, G)[r] for r in role]
        want = _components_by_union_find(t, colors)
        label, low, dims = _label_components(t.order, t.parent, role)
        by_low = sorted(range(len(low)), key=low.__getitem__)
        assert [low[c] for c in by_low] == [vs[0] for vs, _, _, _ in want], t.edges
        assert [dims[c] for c in by_low] == [len(rs) - len(gs) for _, _, rs, gs in want]
        where = {v: by_low[i] for i, (vs, _, _, _) in enumerate(want) for v in vs}
        assert label == [where.get(v, -1) for v in range(t.n)], t.edges
        reached = [label[v] for v in reversed(t.order) if label[v] >= 0]
        assert list(dict.fromkeys(reached)) == list(range(len(low))), t.edges
        unsorted += by_low != sorted(by_low)
        if t.n > 10:
            continue
        red_leaf = [role[v] == 1 and t.degree(v) == 1 for v in range(t.n)]
        for v in range(t.n):
            if red_leaf[v]:
                flipped, message = 2, "green leaf"
            elif role[v] == 2 and any(red_leaf[w] for w in t.neighbors[v]):
                flipped, message = 0, "red vertex missing"
            else:
                continue
            wrong = role[:v] + [flipped] + role[v + 1 :]
            with pytest.raises(AssertionError, match=message):
                _label_components(t.order, t.parent, wrong)
            flips[message] += 1
    assert flips == {"green leaf": 746, "red vertex missing": 363}, flips
    assert unsorted == 42


# -- dimension -----------------------------------------------------------------

def test_dimension_examples():
    assert dimension(linear_tree(7)) == 1
    assert dimension(Tree(4, ((0, 2), (1, 2), (2, 3)))) == 2
    assert dimension(linear_tree(4)) == 0


def test_dimension_equals_nullity():
    for t in trees_up_to(10):
        assert dimension(t) == adjacency_nullity(t)


def test_dimension_equals_uncovered_count():
    for t in trees_up_to(10):
        best = max(len(m) for m in all_maximum_matchings(t))
        assert dimension(t) == t.n - 2 * best


def _is_red_green_tree(t, c, part):
    return len(part) == 1 and len(part.components[0].vertices) == t.n


def test_remove_one_red_vertex_drops_dimension():
    for t in trees_up_to(10):
        c, part = colored(t)
        if not _is_red_green_tree(t, c, part):
            continue
        for v in range(t.n):
            if c.colors[v] is not R or t.n == 1:
                continue
            f = remove_vertices(t, {v})
            assert sum(dimension(comp) for comp, _ in f) == dimension(t) - 1


def test_dimension_splits_along_edges():
    for t in trees_up_to(10):
        c, part = colored(t)
        if not _is_red_green_tree(t, c, part):
            continue
        for u, v in t.edges:
            f = remove_vertices(t, {u, v})
            assert sum(dimension(comp) for comp, _ in f) == dimension(t)


def test_every_component_dimension_at_least_one():
    for t in trees_up_to(10):
        _, part = colored(t)
        for comp in part:
            assert comp.dimension >= 1


@given(random_tree())
@settings(max_examples=150)
def test_dimension_matching_property(t):
    from treecount.matchings import maximum_matching

    assert t.n - 2 * len(maximum_matching(t)) == dimension(t)
