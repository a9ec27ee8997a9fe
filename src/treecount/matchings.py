"""Matchings, independent sets, vertex covers and admissible sets.

The combinatorial substrate under the variety constructions: the greedy
maximum matching of a tree (the mate array of :mod:`treecount.trees`,
which also gives the orange dominoes and the dimension), the independent sets,
and the admissible sets of red vertices that carry the genericity
condition, with their canonical signs and shared-green blocks.  vc(T) and
the independent sets counted by size check the counting kernel, each by
its own fold up the rooted tree.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Iterable, Iterator, NamedTuple, Sequence

from .coloring import RedGreenComponent, SizeGuardError
from .trees import Edge, Tree

INDEPENDENT_SET_MAX_VERTICES = 24


def maximum_matching(t: Tree) -> frozenset[Edge]:
    """One maximum matching, by greedy leaf elimination up the tree: the
    edges of ``t.mate``."""
    return frozenset((v, m) for v, m in enumerate(t.mate) if v < m)


def maximum_matching_size(t: Tree) -> int:
    return (t.n - t.mate.count(-1)) // 2


def uncovered_vertices(t: Tree, m: frozenset[Edge]) -> list[int]:
    covered = {x for e in m for x in e}
    return [v for v in range(t.n) if v not in covered]


# ---------------------------------------------------------------------------
# Independent sets
# ---------------------------------------------------------------------------

def independent_sets(t: Tree) -> Iterator[frozenset[int]]:
    """Every independent set (the empty one included), in the deterministic
    order of the natural vertex-by-vertex backtracking."""
    if t.n > INDEPENDENT_SET_MAX_VERTICES:
        raise SizeGuardError(
            f"independent-set enumeration guarded at n <= {INDEPENDENT_SET_MAX_VERTICES}"
        )
    acc: list[int] = []

    def extend(v: int) -> Iterator[frozenset[int]]:
        if v == t.n:
            yield frozenset(acc)
            return
        yield from extend(v + 1)
        if all(w not in t.neighbors[v] for w in acc):
            acc.append(v)
            yield from extend(v + 1)
            acc.pop()

    yield from extend(0)


def count_maximum_independent_sets(t: Tree) -> int:
    """vc(T): the number of maximum independent sets (= minimum vertex covers),
    by one pass up the tree over (size, count) of the largest independent
    sets of each subtree without and with its root."""
    size_out, count_out = [0] * t.n, [1] * t.n
    size_in, count_in = [1] * t.n, [1] * t.n
    for v in t.order:
        s_out, s_in = size_out[v], size_in[v]
        best = s_out if s_out > s_in else s_in
        count = (count_out[v] if s_out == best else 0) + (count_in[v] if s_in == best else 0)
        p = t.parent[v]
        if p >= 0:
            size_out[p] += best
            count_out[p] *= count
            size_in[p] += s_out
            count_in[p] *= count_out[v]
    return count  # the root comes last


def independent_set_size_counts(t: Tree) -> list[int]:
    """``counts[s]`` = number of independent sets of size ``s``, by the same
    pass over the independence polynomials of each subtree without and with
    its root; no list ever ends in a zero, so nothing is trimmed."""
    def mul(a: list[int], b: list[int]) -> list[int]:
        res = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                res[i + j] += x * y
        return res

    out = [[1] for _ in range(t.n)]
    inn = [[0, 1] for _ in range(t.n)]
    for v in t.order:
        both = [x + y for x, y in zip_longest(out[v], inn[v], fillvalue=0)]
        p = t.parent[v]
        if p >= 0:
            out[p] = mul(out[p], both)
            inn[p] = mul(inn[p], out[v])
    return both  # the root comes last


# ---------------------------------------------------------------------------
# Admissible sets
# ---------------------------------------------------------------------------

class AdmissibleSet(NamedTuple):
    """Nonempty red set where every green of the component sees 0 or 2 of it,
    signed so that reds sharing a green neighbor get opposite signs.

    ``blocks`` are its connected blocks under 'shares a green neighbor', each
    in BFS order from its smallest member, which carries sign +1."""

    vertices: tuple[int, ...]
    signs: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]


def _green_adjacency(component: RedGreenComponent) -> dict[int, tuple[int, ...]]:
    adj: dict[int, list[int]] = {g: [] for g in component.greens}
    for u, v in component.edges:
        if u in adj:
            adj[u].append(v)
        if v in adj:
            adj[v].append(u)
    return {g: tuple(sorted(ns)) for g, ns in adj.items()}


def _blocks_and_signs(
    greens: Iterable[Sequence[int]], s: frozenset[int]
) -> tuple[tuple[tuple[int, ...], ...], dict[int, int]] | None:
    """The blocks of ``s`` under 'shares a green neighbor', each in BFS order
    from its smallest member, signed +1 there and alternating along the
    links; None as soon as a green neighborhood in ``greens`` holds 1 or 3+
    members of ``s``.  On an admissible set of a tree component the links
    form a forest, so a parity conflict would mean an odd cycle in the tree.
    """
    linked: dict[int, list[int]] = {}
    for ns in greens:
        inside = [x for x in ns if x in s]
        if inside:
            if len(inside) != 2:
                return None
            a, b = inside
            linked.setdefault(a, []).append(b)
            linked.setdefault(b, []).append(a)
    blocks = []
    sign: dict[int, int] = {}
    for start in sorted(s):
        if start in sign:
            continue
        sign[start] = 1
        block = [start]
        for v in block:
            for w in sorted(linked.get(v, ())):
                if w not in sign:
                    sign[w] = -sign[v]
                    block.append(w)
                elif sign[w] != -sign[v]:
                    raise AssertionError("sign parity conflict in admissible set")
        blocks.append(tuple(block))
    return tuple(blocks), sign


def admissible_sets(component: RedGreenComponent) -> Iterator[AdmissibleSet]:
    """Every admissible set of the component with its canonical signs and
    blocks, in lexicographic order of the underlying red subsets.

    Each block's signs are fixed only up to a flip, so flipping some blocks
    gives another valid assignment, which :func:`genericity_patterns` of
    :mod:`treecount.groupoid` emits; only flipping every block together
    leaves the genericity condition unchanged.
    """
    reds = sorted(component.reds)
    greens = _green_adjacency(component).values()
    for mask in range(1, 1 << len(reds)):
        s = frozenset(reds[i] for i in range(len(reds)) if mask >> i & 1)
        found = _blocks_and_signs(greens, s)
        if found is not None:
            blocks, sign = found
            vertices = tuple(sorted(s))
            yield AdmissibleSet(vertices, tuple(sign[v] for v in vertices), blocks)
