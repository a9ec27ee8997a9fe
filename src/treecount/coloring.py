"""The canonical red-orange-green coloring of trees and its invariants.

One production path computes the coloring: two linear passes over a
children-first vertex order and a parent array, a :class:`Tree`'s own
rooting or a pre-order array, with no adjacency lists and no matching,
give every vertex's role and the number i(T) of independent sets
(:func:`_parent_roles`), and one more pass over the same order labels the
red-green components (:func:`_label_components`).  The count reads those
integers straight; :func:`canonical_coloring` and
:func:`red_green_components` dress them as colors, dominoes and component
records.  Two independent exponential oracles live here too, a
minimum-vertex-cover one and a maximum-matching one, both self-contained so
they share no code with what they check (the recoloring fixpoint is a
third, in the test suite's ``tests/oracles.py``).  The dimension invariant
r(T) - g(T) also equals the adjacency-matrix nullity and the number of
vertices missed by any maximum matching.
"""

from __future__ import annotations

import enum
import itertools
from typing import NamedTuple, Sequence

from .trees import Edge, SizeGuardError, Tree


class Color(enum.Enum):
    RED = "red"
    ORANGE = "orange"
    GREEN = "green"


ORACLE_MAX_VERTICES = 20

#: The color of each role of :func:`_parent_roles`, and the role of each color.
_COLORS = (Color.ORANGE, Color.RED, Color.GREEN)
_ROLES = {color: role for role, color in enumerate(_COLORS)}


class Coloring(NamedTuple):
    """Per-vertex colors plus the forced orange dominoes."""

    colors: tuple[Color, ...]
    dominoes: frozenset[Edge]


def _parent_roles(order: Sequence[int], parent: Sequence[int]) -> tuple[list[int], int]:
    """The colors of the tree with parent array ``parent`` (-1 at the root)
    as roles, 0 orange, 1 red and 2 green, and the tree's number i(T) of
    independent sets.  ``order`` lists the vertices children first, the
    root last: a tree's ``t.order``, or n - 1 down to 0 for a pre-order
    array.

    Two linear passes, with no adjacency lists and no matching.  Call v
    exposed when some maximum matching of its subtree misses it, which is
    when none of its children is exposed in its own subtree.  Bottom-up,
    ``up[v]`` counts v's exposed children, and the independent sets below v
    without and with v give i(T) at the root.  Top-down, v's parent p is
    exposed in the rest of the tree, rooted at p, when ``up[p]`` counts
    none but v; then ``up[v]`` counts p too, and so counts v's neighbours
    exposed on their side of v.  A maximum matching of the tree misses v
    exactly when that count is 0, or else one of v and such a neighbour
    could always be matched to the other; those are the reds, the vertices
    some maximum matching misses (Gallai-Edmonds), and their neighbours are
    green.  A red makes its parent green.  A child c of a red v is not
    exposed, v being so, so c has an exposed child w; as ``up[c]`` counts v
    and w, w is red and makes c green.
    """
    n = len(parent)
    up = [0] * n
    without, with_ = [1] * n, [1] * n
    for v in order[:-1]:
        p = parent[v]
        wo = without[v]
        if not up[v]:
            up[p] += 1
        without[p] *= wo + with_[v]
        with_[p] *= wo
    root = order[-1]
    role = [0] * n
    if not up[root]:
        role[root] = 1
    for v in order[-2::-1]:
        p = parent[v]
        free = not up[v]  # exposed in its own subtree
        if up[p] == free:
            up[v] += 1
        elif free:
            role[v] = 1
            role[p] = 2
    return role, without[root] + with_[root]


def _label_components(
    order: Sequence[int], parent: Sequence[int], role: Sequence[int]
) -> tuple[list[int], list[int], list[int]]:
    """The red-green components of the tree of :func:`_parent_roles`: each
    vertex's component (-1 at a vertex of role 0), and each component's
    smallest vertex and dimension r - g.

    A tree's edges are its parent edges, so one pass with parents first
    labels them: a red or green vertex joins its parent's component when
    the two hold roles 1 and 2, and opens a component otherwise.  So the
    components are numbered in the order the pass reaches them, which is
    not in general the order of their smallest vertex; whoever needs that
    order sorts them, the count does not.  A 1-vertex tree is a single
    all-red component.  Checked: every green meets at least two red-green
    edges, so a component has only red leaves, and when n > 1 every red
    meets one.
    """
    n = len(parent)
    label = [-1] * n
    degree = [0] * n  # red-green edges at each vertex
    low: list[int] = []
    dim: list[int] = []
    for v in reversed(order):
        r = role[v]
        if not r:
            continue
        p = parent[v]
        if p >= 0 and role[p] + r == 3:
            c = label[p]
            degree[p] += 1
            degree[v] += 1
            if v < low[c]:
                low[c] = v
        else:
            c = len(low)
            low.append(v)
            dim.append(0)
        label[v] = c
        dim[c] += 3 - 2 * r  # +1 for a red, -1 for a green
    need = (0, 1 if n > 1 else 0, 2)  # red-green edges each role needs
    for r, d in zip(role, degree):
        if d < need[r]:
            if r == 2:
                raise AssertionError("green leaf in a red-green component")
            raise AssertionError("red vertex missing from all components")
    return label, low, dim


def canonical_coloring(t: Tree) -> Coloring:
    """Compute the canonical coloring off the tree's rooting.

    The colors are the roles of :func:`_parent_roles`.  The dominoes are the
    edges of the greedy leaf-up matching ``t.mate`` with both ends orange:
    the orange vertices span a forest with a perfect matching, and a forest
    has at most one.
    """
    role, _ = _parent_roles(t.order, t.parent)
    dominoes = frozenset(
        (v, m) for v, m in enumerate(t.mate) if v < m and not role[v]
    )
    return Coloring(tuple([_COLORS[r] for r in role]), dominoes)


# ---------------------------------------------------------------------------
# Exponential oracles.  Deliberately self-contained brute force.
# ---------------------------------------------------------------------------

def _guard(t: Tree) -> None:
    if t.n > ORACLE_MAX_VERTICES:
        raise SizeGuardError(
            f"oracle guarded at n <= {ORACLE_MAX_VERTICES}, got n = {t.n}"
        )


def minimum_vertex_covers(t: Tree) -> list[frozenset[int]]:
    """Every minimum vertex cover, by exhaustive search over subset sizes."""
    _guard(t)
    for size in range(t.n + 1):
        found = [
            frozenset(s)
            for s in itertools.combinations(range(t.n), size)
            if all(u in s or v in s for u, v in t.edges)
        ]
        if found:
            return found
    raise AssertionError("unreachable: the full vertex set is a cover")


def coloring_by_vertex_covers(t: Tree) -> tuple[Color, ...]:
    """Colors from minimum-vertex-cover membership: green in all, orange in
    some, red in none."""
    covers = minimum_vertex_covers(t)
    in_all = frozenset.intersection(*covers)
    in_some = frozenset.union(*covers)
    return tuple(
        Color.GREEN if v in in_all else Color.ORANGE if v in in_some else Color.RED
        for v in range(t.n)
    )


def _all_matchings_of_size(t: Tree, size: int) -> list[frozenset[Edge]]:
    edges = list(t.edges)
    out: list[frozenset[Edge]] = []

    def extend(idx: int, used: set[int], acc: list[Edge]) -> None:
        if len(acc) == size:
            out.append(frozenset(acc))
            return
        if size - len(acc) > len(edges) - idx:
            return
        for j in range(idx, len(edges)):
            u, v = edges[j]
            if u not in used and v not in used:
                used.update((u, v))
                acc.append(edges[j])
                extend(j + 1, used, acc)
                acc.pop()
                used.difference_update((u, v))

    extend(0, set(), [])
    return out


def all_maximum_matchings(t: Tree) -> list[frozenset[Edge]]:
    """Every maximum matching, by backtracking over the edge list."""
    _guard(t)
    for size in range(t.n // 2, -1, -1):
        found = _all_matchings_of_size(t, size)
        if found:
            return found
    raise AssertionError("unreachable: the empty matching always exists")


def coloring_by_matchings(t: Tree) -> Coloring:
    """Colors and dominoes from the behaviour of vertices across all maximum
    matchings: always covered by one fixed domino (orange), always covered
    but variously (green), sometimes uncovered (red)."""
    matchings = all_maximum_matchings(t)
    colors = []
    dominoes: set[Edge] = set()
    for v in range(t.n):
        owning = set()
        for m in matchings:
            dom = next((e for e in m if v in e), None)
            owning.add(dom)
        if None in owning:
            colors.append(Color.RED)
        elif len(owning) == 1:
            colors.append(Color.ORANGE)
            dominoes.add(next(iter(owning)))
        else:
            colors.append(Color.GREEN)
    return Coloring(tuple(colors), frozenset(dominoes))


# ---------------------------------------------------------------------------
# Red-green components and dimension
# ---------------------------------------------------------------------------

class RedGreenComponent(NamedTuple):
    """One connected component of the subgraph of red-green edges."""

    vertices: tuple[int, ...]
    edges: tuple[Edge, ...]
    reds: tuple[int, ...]
    greens: tuple[int, ...]

    @property
    def min_vertex(self) -> int:
        return self.vertices[0]

    @property
    def dimension(self) -> int:
        return len(self.reds) - len(self.greens)


class RedGreenPartition(tuple[RedGreenComponent, ...]):
    """The red-green components of a tree, in order of their smallest vertex."""

    __slots__ = ()

    @property
    def components(self) -> tuple[RedGreenComponent, ...]:
        return tuple(self)

    def component_of(self, v: int) -> int:
        """Index of the component containing vertex ``v`` (-1 when orange)."""
        for i, comp in enumerate(self.components):
            if v in comp.vertices:
                return i
        return -1


def red_green_components(t: Tree, c: Coloring) -> RedGreenPartition:
    """Connected components of the graph kept from red-green edges only.

    Orange vertices belong to no component.  A 1-vertex tree is a single
    all-red component.  Components come in order of their smallest vertex;
    each one lists its vertices, reds and greens in increasing order and its
    edges in the order of ``t.edges``.  They are labelled off the tree's
    rooting by :func:`_label_components`, with its checks, and filled by
    :func:`_fill_components`.
    """
    role = [_ROLES[x] for x in c.colors]
    label, low, _ = _label_components(t.order, t.parent, role)
    # a component's vertices start with its smallest one, which no other holds
    return RedGreenPartition(sorted(_fill_components(t.edges, role, label, len(low))))


def _fill_components(
    edges: Sequence[Edge], role: Sequence[int], label: Sequence[int], count: int
) -> list[RedGreenComponent]:
    """The ``count`` components of :func:`_label_components`, filled by one
    pass over ``edges`` and one over the vertices.  Only vertices of nonzero
    role are filled in, so a component whose roles are masked to 0 comes
    out empty."""
    comp_edges: list[list[Edge]] = [[] for _ in range(count)]
    for e in edges:
        u, v = e
        if role[u] + role[v] == 3:
            comp_edges[label[u]].append(e)
    vertices: list[list[int]] = [[] for _ in range(count)]
    reds: list[list[int]] = [[] for _ in range(count)]
    greens: list[list[int]] = [[] for _ in range(count)]
    for v, r in enumerate(role):
        if r:
            i = label[v]
            vertices[i].append(v)
            (reds if r == 1 else greens)[i].append(v)
    return [
        RedGreenComponent(tuple(vs), tuple(es), tuple(rs), tuple(gs))
        for vs, es, rs, gs in zip(vertices, comp_edges, reds, greens)
    ]


def dimension(t: Tree) -> int:
    """The invariant r(T) - g(T) of the canonical coloring, counted as the
    vertices the tree's greedy maximum matching ``t.mate`` leaves unmatched:
    each green vertex is matched to a red one, and the red vertices left
    over are exactly the unmatched ones."""
    return t.mate.count(-1)


def adjacency_nullity(t: Tree) -> int:
    """Kernel dimension of the adjacency matrix, by exact elimination over Q
    on sparse rows (column -> nonzero entry)."""
    from fractions import Fraction

    rows: list[dict[int, Fraction]] = [{} for _ in range(t.n)]
    for u, v in t.edges:
        rows[u][v] = rows[v][u] = Fraction(1)
    rank = 0
    for col in range(t.n):
        hits = [i for i, r in enumerate(rows) if col in r]
        if not hits:
            continue
        pivot = rows.pop(hits[0])
        for i in hits[1:]:
            r = rows[i - 1]  # shifted down by the pop
            factor = r[col] / pivot[col]
            for k, x in pivot.items():
                y = r.get(k, 0) - factor * x
                if y:
                    r[k] = y
                else:
                    r.pop(k, None)
        rank += 1
    return t.n - rank
