"""graph6 codec, canonical keys, free-tree enumeration vs the labelled oracle."""

from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treecount.trees import (
    Graph6Error,
    NotATreeError,
    SizeGuardError,
    Tree,
    automorphism_count,
    canonical_key,
    emit_graph6,
    enumerate_free_trees,
    parse_edge_list,
    parse_graph6,
    prufer_decode,
    read_graph6,
    relabel,
    remove_vertices,
    _free_tree_parents,
    _tree_from_parents,
)
from conftest import trees_of_size, trees_up_to


@st.composite
def random_tree(draw, max_n=10):
    n = draw(st.integers(min_value=1, max_value=max_n))
    if n <= 2:
        return Tree(n, tuple([(0, 1)][: n - 1]))
    seq = draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    return prufer_decode(seq, n)


# -- graph6 ------------------------------------------------------------------

def test_parse_examples():
    t = parse_graph6("HhCGOCA")
    assert t.n == 9
    assert parse_graph6("@").n == 1
    assert parse_graph6("@").edges == ()
    t10 = parse_graph6("IhGGOC@?G")
    assert t10.n == 10


def test_emit_examples():
    assert emit_graph6(Tree(2, ((0, 1),))) == "A_"
    assert emit_graph6(Tree(1, ())) == "@"


@pytest.mark.parametrize(
    "s", ["HhCGOCA", "IhC_GCA?G", "IhGGOC@?G", "IhGGOCA?G", "IhGH?C@?G", "HhGGGG@"]
)
def test_quoted_strings_roundtrip(s):
    assert emit_graph6(parse_graph6(s)) == s


def test_parse_rejects_malformed():
    with pytest.raises(Graph6Error):
        parse_graph6("")
    with pytest.raises(Graph6Error):
        parse_graph6("H!")  # '!' is below the offset
    with pytest.raises(Graph6Error):
        parse_graph6("H")  # truncated payload
    with pytest.raises(Graph6Error):
        parse_graph6("~??")  # truncated long-form header
    with pytest.raises(Graph6Error):
        parse_graph6("~~??????")  # n > 258047 needs the 36-bit header
    with pytest.raises(NotATreeError):
        parse_graph6("B_")  # 3 vertices, 1 edge: disconnected
    # a triangle parses as a graph but is not a tree
    n, edges = read_graph6("Bw")
    assert n == 3 and len(edges) == 3
    with pytest.raises(NotATreeError):
        parse_graph6("Bw")


def test_roundtrip_exhaustive_up_to_12():
    for n in range(1, 13):
        for t in trees_of_size(n):
            assert parse_graph6(emit_graph6(t)).edges == t.edges


@given(random_tree())
@settings(max_examples=200)
def test_roundtrip_random(t):
    s = emit_graph6(t)
    assert parse_graph6(s).edges == t.edges
    assert emit_graph6(parse_graph6(s)) == s


@pytest.mark.parametrize("n", [63, 200])
def test_long_form_roundtrip(n):
    t = prufer_decode([random.Random(n).randrange(n) for _ in range(n - 2)], n)
    s = emit_graph6(t)
    assert s[0] == "~" and read_graph6(s)[0] == n
    assert parse_graph6(s).edges == t.edges
    assert emit_graph6(parse_graph6(s)) == s


def test_long_form_header():
    path = Tree(63, tuple((i, i + 1) for i in range(62)))
    assert emit_graph6(path)[:4] == "~??~"  # 63 = 0b000000_000000_111111
    with pytest.raises(Graph6Error):
        parse_graph6(emit_graph6(path)[:-1])  # truncated payload
    with pytest.raises(Graph6Error):
        emit_graph6(Tree(258048, tuple((0, i) for i in range(1, 258048))))


def _graph6_by_pairs(t):
    """graph6 the long way: every pair u < v tested against the edge set,
    column by column, six bits to a character."""
    adj = set(t.edges)
    bits = [(u, v) in adj for v in range(1, t.n) for u in range(v)]
    bits += [False] * (-len(bits) % 6)
    if t.n <= 62:
        header = chr(t.n + 63)
    else:  # "~" and n in 18 bits, big-endian
        header = "~" + "".join(chr((t.n >> shift & 63) + 63) for shift in (12, 6, 0))
    groups = [
        int("".join("1" if b else "0" for b in bits[i : i + 6]), 2)
        for i in range(0, len(bits), 6)
    ]
    return header + "".join(chr(g + 63) for g in groups)


def test_emit_matches_the_pair_loop():
    trees = list(trees_up_to(11))
    for n in (63, 100, 300):
        rng = random.Random(n)
        trees.append(prufer_decode([rng.randrange(n) for _ in range(n - 2)], n))
    for t in trees:
        assert emit_graph6(t) == _graph6_by_pairs(t), t.edges
    assert [emit_graph6(t)[0] for t in trees[-3:]] == ["~"] * 3


# -- edge lists ---------------------------------------------------------------

def test_edge_list_autodetect():
    zero = parse_edge_list("0 1\n1 2\n")
    one = parse_edge_list("1 2\n2 3\n")
    assert zero.edges == one.edges == ((0, 1), (1, 2))
    forced = parse_edge_list("1 2\n2 3\n", indexing="1")
    assert forced.edges == ((0, 1), (1, 2))
    with pytest.raises(ValueError):
        parse_edge_list("0 2\n")  # gap in the labels


# -- enumeration vs the labelled-tree oracle ----------------------------------

# OEIS A000055, n = 1..18
EXPECTED_COUNTS = [
    1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741, 19320,
    48629, 123867,
]


def _tree_from_levels(levels):
    """Validated tree of a level sequence: each vertex hangs from the last
    vertex one level up."""
    last = {levels[0]: 0}
    edges = []
    for v in range(1, len(levels)):
        edges.append((last[levels[v] - 1], v))
        last[levels[v]] = v
    return Tree(len(levels), tuple(edges))


def rooted_dedup_free_trees(n):
    """Reference generator: every rooted level sequence (Beyer-Hedetniemi,
    1-based levels, from the path down), one tree per new canonical key."""
    levels = list(range(1, n + 1))
    seen = set()
    while True:
        t = _tree_from_levels(levels)
        key = canonical_key(t)
        if key not in seen:
            seen.add(key)
            yield t
        p = max((i for i in range(n) if levels[i] > 2), default=-1)
        if p < 0:
            return
        q = max(i for i in range(p) if levels[i] == levels[p] - 1)
        levels = levels[:p] + [levels[i - (p - q)] for i in range(p, n)]


def test_enumeration_matches_rooted_dedup_oracle():
    for n in range(1, 13):
        direct = [canonical_key(t) for t in enumerate_free_trees(n)]
        oracle = {canonical_key(t) for t in rooted_dedup_free_trees(n)}
        assert set(direct) == oracle, n
        assert len(direct) == len(oracle)


def test_enumeration_counts_and_distinct_keys():
    for n in range(1, 17):
        keys = [canonical_key(t) for t in enumerate_free_trees(n)]
        assert len(keys) == EXPECTED_COUNTS[n - 1], n
        assert len(set(keys)) == len(keys), n


def test_walk_counts_past_the_tree_builds():
    """The walk alone, with no Tree built, still gives A000055 at n = 17, 18."""
    for n in (17, 18):
        assert sum(1 for _ in _free_tree_parents(n)) == EXPECTED_COUNTS[n - 1]


def test_trusted_trees_equal_validated_trees():
    for n in range(1, 13):
        for parent in _free_tree_parents(n):
            fast = _tree_from_parents(parent)
            slow = Tree(n, tuple((parent[v], v) for v in range(1, n)))
            assert (fast.n, fast.edges, fast.neighbors) == (
                slow.n, slow.edges, slow.neighbors
            )


def test_free_tree_counts_vs_prufer_oracle_small():
    """Full brute force: decode every Prufer sequence and bucket by key."""
    for n in range(1, 9):
        keys = {canonical_key(t) for t in trees_of_size(n)}
        if n <= 2:
            oracle_keys = {canonical_key(Tree(n, tuple([(0, 1)][: n - 1])))}
        else:
            oracle_keys = {
                canonical_key(prufer_decode(seq, n))
                for seq in itertools.product(range(n), repeat=n - 2)
            }
        assert keys == oracle_keys
        assert len(keys) == EXPECTED_COUNTS[n - 1]


@pytest.mark.parametrize("n,samples", [(9, 60000), (10, 60000)])
def test_prufer_samples_land_in_enumeration(n, samples):
    keys = {canonical_key(t) for t in trees_of_size(n)}
    rng = random.Random(20260809 + n)
    for _ in range(samples):
        seq = [rng.randrange(n) for _ in range(n - 2)]
        assert canonical_key(prufer_decode(seq, n)) in keys


def test_enumeration_counts_by_orbit_identity():
    """Sum of labelled representatives per class equals the labelled total,
    so the enumeration is complete and duplicate-free at every size."""
    for n in range(2, 11):
        total = sum(
            math.factorial(n) // automorphism_count(t) for t in trees_of_size(n)
        )
        assert total == n ** (n - 2)
        assert len(trees_of_size(n)) == EXPECTED_COUNTS[n - 1]


def test_automorphism_count_long_and_wide():
    assert automorphism_count(Tree(1201, tuple((i, i + 1) for i in range(1200)))) == 2
    assert automorphism_count(Tree(1200, tuple((i, i + 1) for i in range(1199)))) == 2
    star = Tree(1201, tuple((0, i) for i in range(1, 1201)))
    assert automorphism_count(star) == math.factorial(1200)
    # two stars K_{1,3} joined at their centres: swap the halves too
    double = Tree(8, ((0, 1), (0, 2), (0, 3), (0, 4), (4, 5), (4, 6), (4, 7)))
    assert automorphism_count(double) == 2 * 6 * 6


def test_enumeration_guard():
    with pytest.raises(SizeGuardError):
        list(enumerate_free_trees(21))
    with pytest.raises(ValueError):
        list(enumerate_free_trees(0))


# -- canonical keys ------------------------------------------------------------

def test_key_examples():
    p3 = Tree(3, ((0, 1), (1, 2)))
    assert canonical_key(p3, {0: 5, 2: 5}) == canonical_key(p3, {2: 5, 0: 5})
    # swapping the two distinct leaf labels is an automorphism of the path
    assert canonical_key(p3, {0: 1, 2: 2}) == canonical_key(p3, {0: 2, 2: 1})
    assert canonical_key(Tree(4, ((0, 1), (1, 2), (2, 3)))) != canonical_key(
        Tree(4, ((0, 1), (0, 2), (0, 3)))
    )


def test_key_distinguishes_labels():
    p3 = Tree(3, ((0, 1), (1, 2)))
    assert canonical_key(p3, {0: 1}) != canonical_key(p3, {1: 1})


def test_key_constant_on_relabelling_orbits():
    rng = random.Random(7)
    for t in trees_up_to(9):
        base = canonical_key(t)
        labelled = canonical_key(t, {v: v % 3 for v in range(t.n)})
        for _ in range(20):
            perm = list(range(t.n))
            rng.shuffle(perm)
            r = relabel(t, perm)
            assert canonical_key(r) == base
            moved = {perm[v]: v % 3 for v in range(t.n)}
            assert canonical_key(r, moved) == labelled


@given(random_tree(), st.randoms(use_true_random=False))
@settings(max_examples=150)
def test_key_relabel_invariance_property(t, rnd):
    perm = list(range(t.n))
    rnd.shuffle(perm)
    assert canonical_key(relabel(t, perm)) == canonical_key(t)


# -- vertex removal -------------------------------------------------------------

def test_remove_vertices_examples():
    p3 = Tree(3, ((0, 1), (1, 2)))
    f = remove_vertices(p3, {1})
    assert [c.n for c in f.components] == [1, 1]
    assert f.orig == ((0,), (2,))
    p7 = Tree(7, tuple((i, i + 1) for i in range(6)))
    f = remove_vertices(p7, {0})
    assert len(f.components) == 1 and f.components[0].n == 6
    star_plus = Tree(4, ((0, 2), (1, 2), (2, 3)))
    f = remove_vertices(star_plus, {2})
    assert len(f.components) == 3


def test_remove_vertices_label_maps_partition():
    t = parse_graph6("HhCGOCA")
    f = remove_vertices(t, {3, 4})
    assert sorted(x for m in f.orig for x in m) == [0, 1, 2, 5, 6, 7, 8]
    for comp, orig in f:
        for u, v in comp.edges:
            assert t.has_edge(orig[u], orig[v])
