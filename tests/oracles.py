"""Independent oracles for the production paths, kept with the tests that
use them and outside the installed package.

For :func:`treecount.coloring.canonical_coloring`: the recoloring fixpoint
:func:`coloring_by_fixpoint`, which never looks at a matching, and the
maximum matchings that avoid a red vertex or contain a red-green edge,
built by matching what is left after removing them.  Both those matchings
and the recursion below cut trees with :func:`remove_vertices`, which
returns a :class:`Forest` with maps back to the original labels.

For :func:`treecount.counting.count_polynomial`: the leaf/domino recursion
of :class:`CountEngine` peels a red leaf (generic or versal case) or splits
an orange tree along a domino, memoized on the canonical key of the
choice-decorated tree.  The orange/unimodal two-step chain of
:class:`ChainEngine` reaches orange trees and versal unimodal trees from the
closed form of the even paths alone.  Neither shares the independent-set
pass they check.

For :func:`treecount.trees._free_tree_parents`: the same walk with its
validity test read off slices of the level sequence on every step (the
root's second child by :func:`_second_child`, both heights by ``max``),
O(n) per step.  It pins the order in which the trees, and so the census
representatives, come out.  Its deficiency prune keeps on purpose the
older rule, which charges a vertex's extra free children only when the
vertex closes, so it checks the production walk's earlier charge instead
of repeating it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from treecount.coloring import Color, Coloring, canonical_coloring, dimension, red_green_components
from treecount.counting import Mode, PhiError, PhiKind, PhiSpec, closed_form_a, resolve_tree_phi
from treecount.matchings import maximum_matching, maximum_matching_size
from treecount.polynomials import Poly, Q
from treecount.trees import (
    Edge,
    Tree,
    _Chain,
    canonical_key,
    check_enumeration_size,
    normalize_edge,
)

ONE = Poly.const(1)

# ---------------------------------------------------------------------------
# The recoloring fixpoint
# ---------------------------------------------------------------------------

def coloring_by_fixpoint(t: Tree, rng: random.Random | None = None) -> Coloring:
    """Compute the canonical coloring by the recoloring fixpoint.

    All vertices start red.  Whenever some vertex has exactly one red
    neighbor, that neighbor turns green; if the witness is itself green at
    that moment, the witness-neighbor edge becomes a domino.  Once stable,
    green vertices without a red neighbor become orange.  The result does
    not depend on the processing order; ``rng`` shuffles the work queue to
    let tests exercise exactly that.
    """
    colors = [Color.RED] * t.n
    red_nbrs = [t.degree(v) for v in range(t.n)]
    dominoes: set[Edge] = set()
    queue = list(range(t.n))
    in_queue = [True] * t.n
    while queue:
        if rng is None:
            v = queue.pop()
        else:
            v = queue.pop(rng.randrange(len(queue)))
        in_queue[v] = False
        if red_nbrs[v] != 1:
            continue
        w = next(x for x in t.neighbors[v] if colors[x] is Color.RED)
        colors[w] = Color.GREEN
        if colors[v] is Color.GREEN:
            dominoes.add(normalize_edge(v, w))
        for x in t.neighbors[w]:
            red_nbrs[x] -= 1
            if not in_queue[x]:
                queue.append(x)
                in_queue[x] = True
    for v in range(t.n):
        if colors[v] is Color.GREEN and red_nbrs[v] == 0:
            colors[v] = Color.ORANGE
    return Coloring(tuple(colors), frozenset(dominoes))


# ---------------------------------------------------------------------------
# Vertex removal
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Forest:
    """Disjoint union of trees with maps back to the original labels.

    ``orig[i][x]`` is the label, in the graph the forest was cut from, of
    local vertex ``x`` of component ``i``.  Component vertex sets partition
    the set of surviving original labels.
    """

    components: tuple[Tree, ...]
    orig: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.components) != len(self.orig):
            raise ValueError("one label map per component")
        labels = [x for m in self.orig for x in m]
        if len(labels) != len(set(labels)):
            raise ValueError("label maps overlap")

    @property
    def n(self) -> int:
        return sum(t.n for t in self.components)

    def __iter__(self) -> Iterator[tuple[Tree, tuple[int, ...]]]:
        return iter(zip(self.components, self.orig))


def remove_vertices(t: Tree, drop: Iterable[int]) -> Forest:
    """Induced forest on the complement of ``drop``, with label maps back."""
    dropped = set(drop)
    if not dropped <= set(range(t.n)):
        raise ValueError("vertex to remove is not in the tree")
    keep = [v for v in range(t.n) if v not in dropped]
    comp_of: dict[int, int] = {}
    comps: list[list[int]] = []
    for start in keep:
        if start in comp_of:
            continue
        idx = len(comps)
        members = [start]
        comp_of[start] = idx
        stack = [start]
        while stack:
            x = stack.pop()
            for y in t.neighbors[x]:
                if y not in dropped and y not in comp_of:
                    comp_of[y] = idx
                    members.append(y)
                    stack.append(y)
        comps.append(sorted(members))
    trees = []
    for members in comps:
        local = {x: i for i, x in enumerate(members)}
        edges = tuple(
            (local[u], local[v]) for u, v in t.edges if u in local and v in local
        )
        trees.append(Tree(len(members), edges))
    return Forest(tuple(trees), tuple(tuple(m) for m in comps))


# ---------------------------------------------------------------------------
# Matchings through a given red vertex or red-green edge
# ---------------------------------------------------------------------------

def _forest_matching(f: Forest) -> set[Edge]:
    """A maximum matching of a forest, in the labels it was cut from."""
    return {
        normalize_edge(orig[u], orig[v])
        for comp, orig in f
        for u, v in maximum_matching(comp)
    }


def maximum_matching_avoiding(
    t: Tree, v: int, coloring: Coloring | None = None
) -> frozenset[Edge]:
    """A maximum matching of ``t`` leaving the red vertex ``v`` uncovered."""
    c = coloring or canonical_coloring(t)
    if c.colors[v] is not Color.RED:
        raise ValueError(f"vertex {v} is not red")
    rest = _forest_matching(remove_vertices(t, {v}))
    if len(rest) != maximum_matching_size(t):
        raise AssertionError("matching of T minus a red vertex is not maximum")
    return frozenset(rest)


def maximum_matching_containing(
    t: Tree, e: Edge, coloring: Coloring | None = None
) -> frozenset[Edge]:
    """A maximum matching of ``t`` containing the red-green edge ``e``."""
    u, v = e
    if not t.has_edge(u, v):
        raise ValueError(f"{e} is not an edge")
    c = coloring or canonical_coloring(t)
    if {c.colors[u], c.colors[v]} != {Color.RED, Color.GREEN}:
        raise ValueError(f"edge {e} is not red-green")
    rest = _forest_matching(remove_vertices(t, {u, v}))
    rest.add(normalize_edge(u, v))
    if len(rest) != maximum_matching_size(t):
        raise AssertionError("completed matching through a red-green edge not maximum")
    return frozenset(rest)


# ---------------------------------------------------------------------------
# The leaf/domino recursion
# ---------------------------------------------------------------------------

_KIND_LABEL = {None: 0, PhiKind.GENERIC: 1, PhiKind.VERSAL: 2}

#: Base counts for a single red vertex.
_SINGLE = {
    PhiKind.GENERIC: Q - 1,
    PhiKind.VERSAL: Q * Q - Q + 1,
}

VertexKinds = tuple  # tuple[PhiKind | None, ...]


def _induced_kinds(
    child: Tree, orig: Sequence[int], parent_kinds: VertexKinds
) -> VertexKinds:
    """Restrict a per-vertex choice to a subtree, recolored from scratch.

    Vertices that become orange lose their mark; red/green vertices keep the
    mark of the unique parent component containing them (removals only ever
    shrink the red/green set, so the inherited mark is always present).
    """
    child_coloring = canonical_coloring(child)
    out: list[PhiKind | None] = []
    for x in range(child.n):
        if child_coloring.colors[x] is Color.ORANGE:
            out.append(None)
        else:
            kind = parent_kinds[orig[x]]
            if kind is None:
                raise AssertionError("red/green vertex came from an orange one")
            out.append(kind)
    return tuple(out)


class CountEngine:
    """Memoized evaluator of the point-count recursion.

    The memo lives as long as the engine.  ``rng`` randomizes the red-leaf
    and domino choices, which must not change any result.
    """

    def __init__(self, rng: random.Random | None = None) -> None:
        self.memo: dict[bytes, Poly] = {}
        self.rng = rng

    def count(self, t: Tree, phi: PhiSpec) -> Poly:
        resolved = resolve_tree_phi(t, phi)
        kinds = tuple(resolved.kinds[c] if c >= 0 else None for c in resolved.label)
        return self.tree_poly(t, kinds)

    def tree_poly(self, t: Tree, kinds: VertexKinds) -> Poly:
        key = canonical_key(t, [_KIND_LABEL[k] for k in kinds])
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        result = self._compute(t, kinds)
        self.memo[key] = result
        return result

    def forest_poly(self, f: Forest, parent_kinds: VertexKinds) -> Poly:
        out = ONE
        for comp, orig in f:
            out = out * self.tree_poly(comp, _induced_kinds(comp, orig, parent_kinds))
        return out

    def _choose(self, options: list, scores: list) -> object:
        if self.rng is not None:
            return options[self.rng.randrange(len(options))]
        return min(zip(scores, options))[1]

    def _compute(self, t: Tree, kinds: VertexKinds) -> Poly:
        if t.n == 1:
            if kinds[0] is None:
                raise PhiError("an isolated vertex is red and needs a choice")
            return _SINGLE[kinds[0]]
        coloring = canonical_coloring(t)
        for v in range(t.n):
            if (kinds[v] is None) != (coloring.colors[v] is Color.ORANGE):
                raise PhiError("vertex marks do not match the coloring")
        red_leaves = [
            v
            for v in range(t.n)
            if t.degree(v) == 1 and coloring.colors[v] is Color.RED
        ]
        if not red_leaves:
            result = self._orange_split(t, coloring, kinds)
        else:
            result = self._leaf_split(t, kinds, red_leaves)
        self._check_shape(t, coloring, kinds, result)
        return result

    def _leaf_split(self, t: Tree, kinds: VertexKinds, red_leaves: list[int]) -> Poly:
        """Peel a red leaf v with green neighbor u.

        Generic component: N = (q-1) N(T-v) + q N(T-u-v);
        versal component:  N = (q-1)^2 N(T-v) + q N(T-u-v).
        """
        scores = []
        for v in red_leaves:
            u = t.neighbors[v][0]
            pieces = remove_vertices(t, {u, v})
            scores.append(max((c.n for c in pieces.components), default=0))
        v = self._choose(red_leaves, scores)
        u = t.neighbors[v][0]
        minus_leaf = remove_vertices(t, {v})
        fringe = remove_vertices(t, {u, v})
        n_minus_leaf = self.forest_poly(minus_leaf, kinds)
        n_fringe = self.forest_poly(fringe, kinds)
        if kinds[v] is PhiKind.GENERIC:
            return (Q - 1) * n_minus_leaf + Q * n_fringe
        return (Q - 1) ** 2 * n_minus_leaf + Q * n_fringe

    def _orange_split(self, t: Tree, coloring: Coloring, kinds: VertexKinds) -> Poly:
        """Split an orange tree along a domino u-v.

        With T_u/T_v the orange trees hanging off u and off v, and S the
        forests obtained from them by also deleting the contact vertex:
        N = (q-1)^2 prod N(T_u) prod N(T_v)
            + q prod Nversal(S_u) prod N(T_v)
            + q prod N(T_u) prod Nversal(S_v).
        """
        dominoes = sorted(coloring.dominoes)
        scores = []
        for a, b in dominoes:
            pieces = remove_vertices(t, {a, b})
            scores.append(max((c.n for c in pieces.components), default=0))
        u, v = self._choose(dominoes, scores)
        pieces = remove_vertices(t, {u, v})
        orange_u, orange_v = ONE, ONE
        versal_u, versal_v = ONE, ONE
        for comp, orig in pieces:
            inherited = _induced_kinds(comp, orig, kinds)
            contact_side = None
            contact_local = None
            for x in range(comp.n):
                if u in t.neighbors[orig[x]]:
                    contact_side, contact_local = "u", x
                if v in t.neighbors[orig[x]]:
                    contact_side, contact_local = "v", x
            plain = self.tree_poly(comp, inherited)
            stripped = remove_vertices(comp, {contact_local})
            versal = ONE
            for sub, _ in stripped:
                sub_kinds = tuple(
                    None if c is Color.ORANGE else PhiKind.VERSAL
                    for c in canonical_coloring(sub).colors
                )
                versal = versal * self.tree_poly(sub, sub_kinds)
            if contact_side == "u":
                orange_u = orange_u * plain
                versal_u = versal_u * versal
            else:
                orange_v = orange_v * plain
                versal_v = versal_v * versal
        return (
            (Q - 1) ** 2 * orange_u * orange_v
            + Q * versal_u * orange_v
            + Q * orange_u * versal_v
        )

    def _check_shape(
        self, t: Tree, coloring: Coloring, kinds: VertexKinds, result: Poly
    ) -> None:
        partition = red_green_components(t, coloring)
        versal_rank = sum(
            comp.dimension
            for comp in partition
            if kinds[comp.min_vertex] is PhiKind.VERSAL
        )
        if not result.is_monic or result.degree != t.n + versal_rank:
            raise AssertionError(
                f"count polynomial has wrong shape: {result} for n={t.n}, "
                f"versal rank {versal_rank}"
            )


# ---------------------------------------------------------------------------
# The orange/unimodal chain
# ---------------------------------------------------------------------------

def _is_path(t: Tree) -> bool:
    return all(t.degree(v) <= 2 for v in range(t.n))


def branch_length(t: Tree, leaf: int) -> int:
    """Number of valency-2 vertices walked from the leaf's neighbor."""
    if t.degree(leaf) != 1:
        raise ValueError(f"vertex {leaf} is not a leaf")
    prev, cur = leaf, t.neighbors[leaf][0]
    length = 0
    while t.degree(cur) == 2:
        length += 1
        prev, cur = cur, next(x for x in t.neighbors[cur] if x != prev)
    return length


class ChainEngine:
    """The two-step scheme for orange trees and versal unimodal trees.

    Orange: peel the leaf with the shortest branch, N = Nversal(T - leaf)
    + q * N(T - domino).  Unimodal: extend the red leaf with the longest
    branch into an orange tree and run the same identity backwards.  Even
    paths seed the chain through their closed form; the general recursion
    is never consulted.
    """

    def __init__(self) -> None:
        self.memo: dict[bytes, Poly] = {}

    def orange(self, t: Tree) -> Poly:
        key = b"N" + canonical_key(t)
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        if _is_path(t):
            if t.n % 2:
                raise AssertionError("odd path reached the orange chain")
            result = closed_form_a(t.n, Mode.ORANGE)
        else:
            leaves = [v for v in range(t.n) if t.degree(v) == 1]
            v = min(leaves, key=lambda x: (branch_length(t, x), x))
            u = t.neighbors[v][0]
            minus_leaf = remove_vertices(t, {v})
            rest = ONE
            for comp, _ in remove_vertices(t, {u, v}):
                rest = rest * self.orange(comp)
            result = self.versal_unimodal(minus_leaf.components[0]) + Q * rest
        self.memo[key] = result
        return result

    def versal_unimodal(self, t: Tree) -> Poly:
        key = b"V" + canonical_key(t)
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        coloring = canonical_coloring(t)
        red_leaves = [
            v
            for v in range(t.n)
            if t.degree(v) == 1 or t.n == 1
            if coloring.colors[v] is Color.RED
        ]
        w = max(red_leaves, key=lambda x: (branch_length(t, x) if t.n > 1 else 0, -x))
        extended = Tree(t.n + 1, t.edges + ((w, t.n),))
        shrunk = ONE
        for comp, _ in remove_vertices(t, {w}):
            shrunk = shrunk * self.orange(comp)
        result = self.orange(extended) - Q * shrunk
        self.memo[key] = result
        return result


def orange_unimodal_chain(t: Tree) -> Poly:
    """N for an orange tree, or the all-versal N for a unimodal tree,
    computed purely by the chain scheme."""
    d = dimension(t)
    engine = ChainEngine()
    if d == 0:
        return engine.orange(t)
    if d == 1:
        return engine.versal_unimodal(t)
    raise ValueError("chain scheme applies to orange or unimodal trees only")


# ---------------------------------------------------------------------------
# The free-tree walk with its validity test read off slices
# ---------------------------------------------------------------------------

def _next_rooted(levels: list[int], parent: list[int], p: int) -> bool:
    """Step a canonical level sequence (root at level 0) and its parent
    array in place to their Beyer-Hedetniemi successor at position ``p``:
    keep the prefix before ``p`` and replay, from ``p`` on, the block that
    starts at the parent ``q`` of ``p``.  Each copy of the block hangs from
    the parent of ``q``; its other parents move with it.  False, with
    nothing changed, when ``p`` is the root: the walk is over."""
    if p == 0:
        return False
    q = parent[p]
    d = p - q
    for j in range(p, len(levels)):
        levels[j] = levels[j - d]
        x = parent[j - d]
        parent[j] = x + d if x >= q else x
    return True


def _second_child(levels: list[int]) -> int:
    """Position of the root's second child, or the length if it has one."""
    try:
        return levels.index(1, 2)
    except ValueError:
        return len(levels)


def _free_tree_parents(n: int, deficiency: int | None = None) -> Iterator[list[int]]:
    """Parent array of one rooted representative per free tree on n vertices.

    Wright, Richmond, Odlyzko and McKay, SIAM J. Comput. 15 (1986) 540-548:
    walk the level sequences of trees rooted at a centre in Beyer-Hedetniemi
    order, starting from the path.  A sequence stands for its free tree when
    the first subtree of the root (``left``) is no higher than the rest of
    the tree, no larger when the heights tie, and not lexicographically
    greater when the sizes tie too.  An invalid sequence jumps past every
    rooted tree that keeps the same invalid ``left``.  Vertices are numbered
    in pre-order, so ``parent[0] == -1`` and ``parent[v] < v`` otherwise.
    Each step rewrites ``levels`` and ``parent`` in place from its position
    on; every yielded array is a copy, which the caller may keep.

    With a ``deficiency`` d, only the trees whose greedy leaf-up matching
    (:func:`_greedy_mates`, vertices n-1 down to 0) leaves exactly d vertices
    unmatched are yielded, and the walk skips sequences that cannot have d.
    Whether a vertex is matched by one of its children depends on its
    subtree alone, the range of positions up to the next one at its level
    or lower, and so does which of its children stay unmatched.  The walk
    therefore reads each sequence from left to right keeping a chain of the
    open vertices (those whose subtree has not ended: the path from the
    root to the last position read), each with its number of free children,
    and the number of vertices left unmatched so far.  A position at level
    l closes every open vertex at level l or deeper, and the end of the
    sequence closes all of them.  A closing vertex with f > 0 free children
    is matched to the last of them and leaves the other f - 1 unmatched;
    one with none is free, for its parent, or unmatched if it is the root.
    The chain and the count before every position are kept, so a sequence
    is read again only from the lowest position that a step rewrote.

    The f - 1 are charged when their parent closes, on purpose: the
    production walk charges each of them as soon as it closes free beside a
    free sibling, and skips more sequences for it.  Both rules give the same
    final count, so the two walks must agree on every array they yield, and
    this one does not share the rule it checks.

    Sequences come in decreasing lexicographic order, so a later one that
    keeps the prefix before a position where a vertex closed keeps that
    subtree and the vertices it left unmatched.  When more than d vertices
    are unmatched once the vertices closing at position E are closed, every
    later sequence that keeps the prefix before E has too many.  The walk
    stops reading there and steps at the last position before E whose level
    is not 1, as after a yield, which skips exactly those; level-1 positions
    cannot decrease, and the root ends the walk.
    """
    if n < 1:
        raise ValueError("a tree has at least one vertex")
    check_enumeration_size(n)
    if n == 1:
        if deficiency in (None, 1):
            yield [-1]
        return
    levels = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    parent = list(range(-1, n - 1))
    if n > 2:
        parent[n // 2 + 1] = 0  # the second arm of the path hangs from the root
    # chain_at[k], lost_at[k]: the open vertices and the unmatched count
    # before position k, valid for every k up to ``read``
    chain_at: list[_Chain] = [None] * (n + 1)
    lost_at = [0] * (n + 1)
    chain_at[1] = (0, None)
    read = 1
    while True:
        m = _second_child(levels)
        left = (max(levels[1:m]) - 1, m - 1)  # height and size
        rest = (max(levels[m:], default=0), n - m + 1)
        valid = left < rest or (
            left == rest and [x - 1 for x in levels[1:m]] <= [0] + levels[m:]
        )
        if valid:
            p = n - 1
            if deficiency is None:
                yield parent[:]
            else:
                k = read
                chain, lost = chain_at[k], lost_at[k]
                while True:
                    # close the open vertices whose subtrees end at k
                    for _ in range(levels[k - 1] - (levels[k] if k < n else 0) + 1):
                        f, chain = chain
                        if f:
                            lost += f - 1  # matched to one free child
                        elif chain is None:
                            lost += 1  # a free root
                        else:
                            chain = (chain[0] + 1, chain[1])  # free for its parent
                    if lost > deficiency or k == n:
                        break
                    k += 1
                    chain = chain_at[k] = (0, chain)
                    lost_at[k] = lost
                read = k
                if lost > deficiency:
                    p = k - 1
                elif lost == deficiency:
                    yield parent[:]
            while levels[p] == 1:
                p -= 1
            if not _next_rooted(levels, parent, p):
                return
        else:
            p = m - 1  # the last vertex of ``left``
            deep = levels[p] > 2
            _next_rooted(levels, parent, p)
            if deep:
                # end with a path from the root as deep as the new ``left``
                height = max(levels[1 : _second_child(levels)])
                levels[n - height :] = range(1, height + 1)
                parent[n - height :] = [0, *range(n - height, n - 1)]
                # The tail may start before p.  Up to n = 19 ``read`` was
                # then already at or below its start, but nothing proves
                # that, so the min keeps the chain restore correct anyway.
                p = min(p, n - height)
        read = min(read, p)
