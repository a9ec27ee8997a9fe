"""graph6 codec, canonical keys, free-tree enumeration vs the labelled oracle."""

from __future__ import annotations

import itertools
import math
import random
import tracemalloc
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treecount.coloring import adjacency_nullity
from treecount.trees import (
    Graph6Error,
    NotATreeError,
    SizeGuardError,
    Tree,
    canonical_key,
    emit_graph6,
    enumerate_free_trees,
    parse_edge_list,
    parse_graph6,
    read_graph6,
    tree_centers,
    _free_tree_parents,
    _greedy_mates,
    _rooted_order,
)
from conftest import prufer_decode, trees_of_size, trees_up_to
from oracles import _free_tree_parents as slice_walk
from oracles import remove_vertices


@st.composite
def random_tree(draw, max_n=10):
    n = draw(st.integers(min_value=1, max_value=max_n))
    if n <= 2:
        return Tree(n, tuple([(0, 1)][: n - 1]))
    seq = draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    return prufer_decode(seq, n)


def seeded_prufer_tree(n: int, seed: int) -> Tree:
    """The tree of a Pruefer sequence drawn from ``random.Random(seed)``."""
    rng = random.Random(seed)
    return prufer_decode([rng.randrange(n) for _ in range(n - 2)], n)


def relabel(t: Tree, perm: Sequence[int]) -> Tree:
    """Apply the permutation ``perm`` (old label -> new label) to a tree."""
    if sorted(perm) != list(range(t.n)):
        raise ValueError("not a permutation of the vertex set")
    return Tree(t.n, tuple((perm[u], perm[v]) for u, v in t.edges))


def _rooted_aut(t: Tree, root: int, banned: int) -> tuple[bytes, int]:
    """Signature and automorphism-group order of the subtree at ``root`` when
    the edge to ``banned`` is cut."""
    done: dict[int, tuple[bytes, int]] = {}
    for v, parent in reversed(_rooted_order(t, root, banned)):
        sigs = sorted(done.pop(w) for w in t.neighbors[v] if w != parent)
        aut = 1
        for _, grp in itertools.groupby(sigs, key=lambda p: p[0]):
            block = list(grp)
            for _, sub in block:
                aut *= sub
            aut *= math.factorial(len(block))
        done[v] = (b"(" + b"".join(s for s, _ in sigs) + b")", aut)
    return done[root]


def automorphism_count(t: Tree) -> int:
    """Order of the automorphism group of an unlabelled tree."""
    centers = tree_centers(t)
    if len(centers) == 1:
        return _rooted_aut(t, centers[0], -1)[1]
    a, b = centers
    ka, auta = _rooted_aut(t, a, b)
    kb, autb = _rooted_aut(t, b, a)
    total = auta * autb
    if ka == kb:
        total *= 2
    return total


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
    with pytest.raises(Graph6Error):
        parse_graph6("A@")  # n = 2 has one bit; "@" sets a padding bit
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


def test_read_graph6_memory_follows_the_edges():
    """The path with n = 3000 is a 750 kB string over 4.5 million pairs; the
    reader decodes only its set bits, in place, so its traced peak stays
    small: below a copy of the 2 MB payload at n = 5000."""
    for n, bound in ((3000, 8 * 2**20), (5000, 2**20)):
        path = [(i, i + 1) for i in range(n - 1)]
        s = emit_graph6(Tree(n, tuple(path)))
        tracemalloc.start()
        try:
            got = read_graph6(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == (n, path)
        assert peak < bound, (n, peak)


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
    with pytest.raises(ValueError, match="'u v' per line"):
        parse_edge_list("1 2 3\n")
    with pytest.raises(ValueError, match="auto, 0 or 1"):
        parse_edge_list("0 1\n", indexing="2")
    assert parse_edge_list("# nothing\n\n") == Tree(1, ())  # no edges


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


def _walk_arrays(n, d=None):
    """The parent arrays of the walk, without the positions they come with."""
    return [parent for parent, _ in _free_tree_parents(n, d)]


def _first_changes(arrays):
    """For each array, the first position where it differs from the one
    before it, 1 for the first."""
    found = []
    for before, parent in zip([None, *arrays], arrays):
        k = 1
        if before is not None:
            while parent[k] == before[k]:
                k += 1
        found.append(k)
    return found


def test_walk_counts_past_the_tree_builds():
    """The walk alone, with no Tree built, still gives A000055 at n = 17, 18."""
    for n in (17, 18):
        assert sum(1 for _ in _free_tree_parents(n)) == EXPECTED_COUNTS[n - 1]


def test_walk_yields_arrays_it_keeps_no_hold_on():
    """The walk steps its working list in place, so each yield must be a
    copy: collected first and compared after, the arrays are still one per
    class."""
    for n in range(1, 13):
        arrays = _walk_arrays(n)
        assert len({tuple(p) for p in arrays}) == EXPECTED_COUNTS[n - 1], n


def test_walk_pruned_on_deficiency_equals_filtered_walk():
    """Asked for a deficiency d, the walk yields, in the same order, exactly
    the arrays of the full walk whose greedy matching leaves d vertices
    unmatched: every d up to n (the star leaves n - 2) for n <= 12, and
    d <= 3 up to n = 16."""
    for n in range(1, 17):
        full = _walk_arrays(n)
        unmatched = [_greedy_mates(range(n - 1, -1, -1), p).count(-1) for p in full]
        for d in range(4 if n > 12 else max(n, 3) + 1):
            want = [p for p, u in zip(full, unmatched) if u == d]
            assert _walk_arrays(n, d) == want, (n, d)
    assert list(_free_tree_parents(1, 1)) == [([-1], 1)]
    assert list(_free_tree_parents(1, 0)) == []


def test_walk_order_equals_slice_walk():
    """The walk, keeping the root's second child and the subtree heights
    along its steps, yields the same arrays in the same order as the walk
    that reads them off slices of every sequence (tests/oracles.py).  The
    order decides which representatives a census prints."""
    cases = [(n, d) for n in range(1, 17) for d in (None, 0, 1, 2, 3)]
    cases += [(n, d) for n in (17, 18) for d in (0, 1)]
    cases += [(19, 1), (20, 0)]
    for n, d in cases:
        assert _walk_arrays(n, d) == list(slice_walk(n, d)), (n, d)


def test_walk_reports_where_each_array_first_differs():
    """Each array comes with the first position where it differs from the
    array yielded before it (1 for the first), for every deficiency and
    with none, to n = 14: the position the census refolds from.  The
    expected positions are read off the walk's own arrays and off those of
    the slice walk (tests/oracles.py).  A position below the first change
    would still count right, only refolding more, so this is the test that
    sees the walk forget to raise it again after a yield."""
    arrays = 0
    for n in range(1, 15):
        for d in (None, *range(n + 1)):
            pairs = list(_free_tree_parents(n, d))
            lows = [low for _, low in pairs]
            assert lows == _first_changes([p for p, _ in pairs]), (n, d)
            assert lows == _first_changes(list(slice_walk(n, d))), (n, d)
            arrays += len(pairs)
    assert arrays == 2 * sum(EXPECTED_COUNTS[:14])  # every d, then none


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


# -- the rooting and matching a Tree carries -----------------------------------

def test_tree_carries_its_rooting_and_matching():
    """Every free tree with n <= 10 and 20 seeded Prufer trees with n from
    40 to 400: the adjacency lists are sorted; ``order`` lists each vertex
    once, children before parents, ending at the root 0; ``mate`` is a
    matching of tree edges that leaves as many vertices unmatched as the
    adjacency matrix has nullity."""
    rng = random.Random(16)
    sizes = [round(40 * 10 ** (i / 19)) for i in range(20)]
    prufer = [prufer_decode([rng.randrange(n) for _ in range(n - 2)], n) for n in sizes]
    for t in [*trees_up_to(10), *prufer]:
        assert all(list(ns) == sorted(ns) for ns in t.neighbors)
        where = {v: i for i, v in enumerate(t.order)}
        assert sorted(where) == list(range(t.n)) and len(t.order) == t.n
        assert t.order[-1] == 0 and t.parent[0] == -1
        for v in range(1, t.n):
            p = t.parent[v]
            assert t.has_edge(v, p) and where[v] < where[p], (emit_graph6(t), v)
        for v, m in enumerate(t.mate):
            assert m < 0 or (t.mate[m] == v and t.has_edge(v, m)), (emit_graph6(t), v)
        assert t.mate.count(-1) == adjacency_nullity(t), emit_graph6(t)


def test_tree_identity_ignores_the_rooting():
    a = Tree(3, ((0, 1), (1, 2)))
    b = Tree(3, ((2, 1), (1, 0)))
    assert a == b and hash(a) == hash(b)
    assert repr(a) == "Tree(n=3, edges=((0, 1), (1, 2)))"
    assert a.mate == b.mate == (-1, 2, 1)  # 2 takes its parent 1 first
    with pytest.raises(NotATreeError, match="not connected"):
        Tree(4, ((0, 1), (1, 2), (2, 0)))
    with pytest.raises(NotATreeError, match="not connected"):
        Tree(5, ((0, 1), (1, 2), (2, 0), (3, 4)))
    with pytest.raises(ValueError, match="at least one vertex"):
        Tree(0, ())
    with pytest.raises(NotATreeError, match="duplicate edge"):
        Tree(3, ((0, 1), (1, 0)))
    with pytest.raises(NotATreeError, match="self-loop"):
        Tree(2, ((0, 0),))
    with pytest.raises(ValueError, match="out of range"):
        Tree(2, ((0, 2),))


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
