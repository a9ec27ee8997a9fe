"""Matchings, independent sets, vertex covers and admissible sets.

The combinatorial substrate under the variety constructions: the greedy
maximum matching of a tree (the mate array of :mod:`treecount.trees`,
which also gives the coloring and the dimension), exact counting of
maximum independent sets, enumeration of all independent sets, and the
admissible sets of red vertices that carry the genericity condition, with
their canonical signs and shared-green blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

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


def _independent_dp(t: Tree) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Per-vertex (max size, count) pairs for 'v excluded' / 'v included'."""
    parent = t.parent
    out: list[tuple[int, int]] = [(0, 1)] * t.n
    inn: list[tuple[int, int]] = [(1, 1)] * t.n
    for v in t.order:
        children = [w for w in t.neighbors[v] if parent[w] == v]
        size_out, cnt_out = 0, 1
        size_in, cnt_in = 1, 1
        for w in children:
            best = max(out[w][0], inn[w][0])
            cnt = (out[w][1] if out[w][0] == best else 0) + (
                inn[w][1] if inn[w][0] == best else 0
            )
            size_out += best
            cnt_out *= cnt
            size_in += out[w][0]
            cnt_in *= out[w][1]
        out[v] = (size_out, cnt_out)
        inn[v] = (size_in, cnt_in)
    return out, inn


def count_maximum_independent_sets(t: Tree) -> int:
    """vc(T): the number of maximum independent sets (= minimum vertex covers)."""
    out, inn = _independent_dp(t)
    best = max(out[0][0], inn[0][0])
    return (out[0][1] if out[0][0] == best else 0) + (
        inn[0][1] if inn[0][0] == best else 0
    )


def independent_set_size_counts(t: Tree) -> list[int]:
    """``counts[s]`` = number of independent sets of size ``s``."""
    parent = t.parent
    out: list[list[int]] = [[1] for _ in range(t.n)]
    inn: list[list[int]] = [[0, 1] for _ in range(t.n)]

    def mul(a: list[int], b: list[int]) -> list[int]:
        res = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    res[i + j] += x * y
        return res

    for v in t.order:
        children = [w for w in t.neighbors[v] if parent[w] == v]
        for w in children:
            both = [x + y for x, y in zip(out[w] + [0] * len(inn[w]), inn[w] + [0] * len(out[w]))]
            while both and both[-1] == 0:
                both.pop()
            out[v] = mul(out[v], both)
            inn[v] = mul(inn[v], out[w])
    total = [
        x + y
        for x, y in zip(out[0] + [0] * len(inn[0]), inn[0] + [0] * len(out[0]))
    ]
    while total and total[-1] == 0:
        total.pop()
    return total


# ---------------------------------------------------------------------------
# Admissible sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdmissibleSet:
    """Nonempty red set where every green of the component sees 0 or 2 of it,
    signed so that reds sharing a green neighbor get opposite signs.

    ``blocks`` are its connected blocks under 'shares a green neighbor', each
    in BFS order from its smallest member, which carries sign +1."""

    vertices: tuple[int, ...]
    signs: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.vertices)


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
