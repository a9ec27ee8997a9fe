"""The canonical red-orange-green coloring of trees and its invariants.

The production path reads the coloring off one maximum matching, the greedy
leaf-up matching ``t.mate`` that every tree carries, by the Gallai-Edmonds
decomposition; the census runs the same two steps on the parent arrays of
the free-tree walk and the adjacency lists built from them.  Two
independent exponential oracles live here too, a minimum-vertex-cover one
and a maximum-matching one, both self-contained so they share no code with
what they check (the recoloring fixpoint is a third, in the test suite's
``tests/oracles.py``).  On top of the coloring sit the red-green
components, found in linear passes over the tree's adjacency, and the
dimension invariant r(T) - g(T), which also equals the adjacency-matrix
nullity and the number of vertices missed by any maximum matching.
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


class Coloring(NamedTuple):
    """Per-vertex colors plus the forced orange dominoes."""

    colors: tuple[Color, ...]
    dominoes: frozenset[Edge]


def _gallai_edmonds(nbrs: Sequence[Sequence[int]], mate: Sequence[int]) -> list[Color]:
    """Colors of the tree with adjacency lists ``nbrs``, read off any maximum
    matching ``mate`` by the Gallai-Edmonds decomposition.

    Red vertices are those an even alternating path reaches from an
    unmatched vertex, which are the vertices some maximum matching misses;
    green vertices are their neighbours; the rest are orange, and every
    maximum matching pairs them among themselves.  A green vertex is always
    matched, or the path reaching it would augment the matching, and the
    path goes on to its mate; a tree is bipartite, so no vertex is reached
    both at even and at odd distance.  The colors do not depend on the order
    of the lists: :func:`canonical_coloring` passes ``t.neighbors``, the
    census lists it builds from a parent array.
    """
    orange, green, red = Color.ORANGE, Color.GREEN, Color.RED
    colors = [orange] * len(mate)
    stack = [v for v, m in enumerate(mate) if m < 0]
    for v in stack:
        colors[v] = red
    while stack:
        for y in nbrs[stack.pop()]:
            if colors[y] is orange:
                colors[y] = green
                z = mate[y]
                colors[z] = red
                stack.append(z)
    return colors


def canonical_coloring(t: Tree) -> Coloring:
    """Compute the canonical coloring from one maximum matching.

    The tree's greedy leaf-up matching ``t.mate`` gives the colors by
    Gallai-Edmonds (:func:`_gallai_edmonds`).  The dominoes are its edges
    with both ends orange: the orange vertices span a forest with a perfect
    matching, and a forest has at most one.
    """
    mate = t.mate
    colors = _gallai_edmonds(t.neighbors, mate)
    orange = Color.ORANGE
    dominoes = frozenset(
        (v, m) for v, m in enumerate(mate) if v < m and colors[v] is orange
    )
    return Coloring(tuple(colors), dominoes)


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
    edges in the order of ``t.edges``.

    Three linear passes: a search over ``t.neighbors`` that follows
    red-green edges only labels the components, one pass over ``t.edges``
    fills in their edges and counts each vertex's red-green degree, and one
    over the vertices fills in their vertices, reds and greens.  Orange
    vertices are never labelled, so no component holds one.  Checked: every
    green meets at least two red-green edges, so a component has only red
    leaves, and when n > 1 every red meets one.
    """
    colors = c.colors
    nbrs = t.neighbors
    n = t.n
    orange, red, green = Color.ORANGE, Color.RED, Color.GREEN
    label = [-1] * n
    count = 0
    for start in range(n):
        if label[start] >= 0 or colors[start] is orange:
            continue
        label[start] = count
        stack = [start]
        while stack:
            x = stack.pop()
            other = green if colors[x] is red else red
            for y in nbrs[x]:
                if label[y] < 0 and colors[y] is other:
                    label[y] = count
                    stack.append(y)
        count += 1
    edges: list[list[Edge]] = [[] for _ in range(count)]
    degree = [0] * n
    for e in t.edges:
        u, v = e
        cu, cv = colors[u], colors[v]
        if cu is not cv and cu is not orange and cv is not orange:
            edges[label[u]].append(e)
            degree[u] += 1
            degree[v] += 1
    vertices: list[list[int]] = [[] for _ in range(count)]
    reds: list[list[int]] = [[] for _ in range(count)]
    greens: list[list[int]] = [[] for _ in range(count)]
    for v, i in enumerate(label):
        if i < 0:
            continue
        vertices[i].append(v)
        if colors[v] is red:
            if not degree[v] and n > 1:
                raise AssertionError("red vertex missing from all components")
            reds[i].append(v)
        else:
            if degree[v] < 2:
                raise AssertionError("green leaf in a red-green component")
            greens[i].append(v)
    return RedGreenPartition(
        RedGreenComponent(tuple(vs), tuple(es), tuple(rs), tuple(gs))
        for vs, es, rs, gs in zip(vertices, edges, reds, greens)
    )


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
